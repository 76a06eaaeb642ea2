# Shared compile/link settings for every xk_* module, test, bench, and
# example target. Applied through the xk::build_flags interface target so
# per-directory lists stay declarative.

include(CheckIPOSupported)

add_library(xk_build_flags INTERFACE)
add_library(xk::build_flags ALIAS xk_build_flags)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(xk_build_flags INTERFACE
    -Wall -Wextra -Wshadow -Wnon-virtual-dtor)
  if(XK_WERROR)
    target_compile_options(xk_build_flags INTERFACE -Werror)
  endif()
  if(XK_NATIVE)
    target_compile_options(xk_build_flags INTERFACE -march=native)
  endif()
endif()

if(XK_SANITIZE)
  if(NOT XK_SANITIZE MATCHES "^(address|thread|undefined)$")
    message(FATAL_ERROR
      "XK_SANITIZE must be one of: address, thread, undefined "
      "(got '${XK_SANITIZE}')")
  endif()
  target_compile_options(xk_build_flags INTERFACE
    -fsanitize=${XK_SANITIZE} -fno-omit-frame-pointer -g)
  target_link_options(xk_build_flags INTERFACE -fsanitize=${XK_SANITIZE})
  if(XK_SANITIZE STREQUAL "undefined")
    # Abort on the first report: recoverable UBSan only prints
    # "runtime error" and the test still passes.
    target_compile_options(xk_build_flags INTERFACE
      -fno-sanitize-recover=undefined)
    target_link_options(xk_build_flags INTERFACE
      -fno-sanitize-recover=undefined)
  endif()
endif()

if(XK_LTO)
  check_ipo_supported(RESULT xk_ipo_ok OUTPUT xk_ipo_msg LANGUAGES CXX)
  if(xk_ipo_ok)
    set(CMAKE_INTERPROCEDURAL_OPTIMIZATION ON)
  else()
    message(WARNING "XK_LTO requested but IPO is unsupported: ${xk_ipo_msg}")
  endif()
endif()

if(NOT XK_OBS)
  # Turns every obs emit/span helper into an empty inline (src/obs/trace.hpp)
  # — the instrumentation-free baseline the CI overhead gate compares against.
  target_compile_definitions(xk_build_flags INTERFACE XK_OBS_OFF)
endif()

if(XK_CHECK)
  # Compiles the XK_EXPECT invariant assertions into the scheduler seams
  # (src/check/check.hpp). Off by default: the unchecked build defines
  # nothing and every hook is an empty macro, so the hot paths are
  # byte-identical to a tree without the checker.
  target_compile_definitions(xk_build_flags INTERFACE XK_CHECK_ON)
endif()

find_package(Threads REQUIRED)
target_link_libraries(xk_build_flags INTERFACE Threads::Threads)

# Defines one static library per runtime module with the shared flags and
# include layout. Usage: xk_add_module(<name> SOURCES ... DEPENDS ...)
function(xk_add_module name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPENDS" ${ARGN})
  add_library(${name} STATIC ${ARG_SOURCES})
  add_library(xk::${name} ALIAS ${name})
  target_include_directories(${name} PUBLIC "${XK_SRC_INCLUDE_DIR}")
  target_link_libraries(${name} PUBLIC xk::build_flags ${ARG_DEPENDS})
endfunction()
