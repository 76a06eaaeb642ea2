#!/usr/bin/env python3
"""Memory-order lint for the concurrency core (no toolchain required).

The codebase's atomics discipline is documented in docs/ANALYSIS.md; this
script enforces the mechanical parts of it over the lint scope (src/core
and src/quark — the files where a silently-wrong order is a scheduler bug,
not a stale counter):

  R1 explicit-order   Every std::atomic operation must pass an explicit
                      std::memory_order argument. A bare `.load()` compiles
                      to seq_cst, which both hides the author's intent and
                      costs a full fence on weaker ISAs; in this tree every
                      default is treated as an unreviewed ordering decision.

  R2 justified-relaxed  A relaxed *publish* (`.store(..., relaxed)` or
                      `.exchange(..., relaxed)`) is the single most
                      error-prone idiom in the tree: it is correct only
                      when some *other* edge orders the write. Each one
                      must carry an `// xk-order:` comment (same line or
                      the lines directly above) naming that edge.

  R3 one-lock         src/core/readylist.cpp takes exactly one lock,
                      graph_mu_ (see the Locking comment in
                      readylist.hpp), through a scoped guard. Acquiring
                      any other mutex is a violation, and so is acquiring
                      graph_mu_ while it is already held — a self-deadlock
                      on a non-recursive mutex — or calling .lock() /
                      .try_lock() directly. Functions named `*_graph_held`
                      are analysed as entering with graph_mu_ already
                      held.

The lint is lexical on purpose: the container toolchain has no libclang,
so the script scrubs comments/strings and parses balanced-paren argument
lists (orders often sit on continuation lines). Known blind spots, kept
out of scope deliberately and documented in docs/ANALYSIS.md: operator
forms (`atomic++`, `atomic = v`) and orders forwarded through a variable.
The tree avoids the former in lint scope; clang-tidy covers the rest.

Usage:
  python3 scripts/check_atomics.py              # lint the default scope
  python3 scripts/check_atomics.py FILE...      # lint specific files
  python3 scripts/check_atomics.py --self-test  # prove the rules fire
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Lint scope

SCOPE_GLOBS = [
    "src/core/*.hpp",
    "src/core/*.cpp",
    "src/quark/*.hpp",
    "src/quark/*.cpp",
    "src/quark/*.h",
]

# Atomic member operations that accept a memory_order argument. `.wait`,
# `.notify_*` and `.clear` are excluded: the first two collide with
# condition_variable/Parker methods and the tree uses no std::atomic wait;
# `.clear` collides with every container.
ATOMIC_OPS = (
    "load",
    "store",
    "exchange",
    "compare_exchange_weak",
    "compare_exchange_strong",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
)

OP_RE = re.compile(r"\.(" + "|".join(ATOMIC_OPS) + r")\s*\(")
FENCE_RE = re.compile(r"\batomic_thread_fence\s*\(")

JUSTIFY_TAG = "xk-order:"
# How far above a relaxed publish the justification may sit. Generous
# enough for a publish under a multi-line comment block, small enough that
# a stray tag cannot blanket a whole function.
JUSTIFY_WINDOW = 6

# ---------------------------------------------------------------------------
# R3: the ready list's one lock. Mirrors the Locking comment in
# readylist.hpp; change both together.
LOCK_ORDER_FILE = "src/core/readylist.cpp"
LIST_LOCK = "graph_mu_"

# RAII acquisitions, capturing the mutex expression. Matched against
# scrubbed source.
RAII_ACQUIRE = re.compile(r"\b(?:std::)?(?:lock_guard|unique_lock|scoped_lock)\b"
                          r"[^;(]*\(\s*([^;),]*)")
# Unscoped acquisitions, which the lexical guard tracking cannot follow.
EXPLICIT_LOCK = re.compile(r"\.\s*(?:try_)?lock\s*\(\s*\)")
GRAPH_HELD_FN = re.compile(r"\b(\w+_graph_held)\s*\([^;]*\)\s*(?:const\s*)?\{")


class Violation:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


# ---------------------------------------------------------------------------
# Source scrubbing: blank out comments and string/char literals (preserving
# every newline, so offsets map back to line numbers) — an order named in a
# comment must not satisfy R1, and `//` inside a string must not hide code.


def scrub(text: str) -> str:
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def balanced_args(text: str, open_paren: int) -> tuple[str, int]:
    """Returns (argument text, index one past the closing paren) for the
    call whose '(' sits at `open_paren`. Scrubbed input: no strings or
    comments can unbalance the scan."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:j], j + 1
    return text[open_paren + 1:], len(text)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# R1 + R2


def check_orders(path: str, raw: str, scrubbed: str) -> list[Violation]:
    out: list[Violation] = []
    raw_lines = raw.splitlines()

    def justified(first_line: int, last_line: int) -> bool:
        lo = max(0, first_line - 1 - JUSTIFY_WINDOW)
        window = raw_lines[lo:last_line]
        return any(JUSTIFY_TAG in ln for ln in window)

    for m in OP_RE.finditer(scrubbed):
        op = m.group(1)
        args, end = balanced_args(scrubbed, m.end() - 1)
        first = line_of(scrubbed, m.start())
        last = line_of(scrubbed, end - 1)
        # A bare identifier named `order` is the forwarding-wrapper idiom
        # (Task::load_state passes its defaulted std::memory_order through);
        # the order is explicit at the wrapper's caller, which is in scope.
        if "memory_order" not in args and \
                not re.search(r"\border\b", args):
            out.append(Violation(
                path, first, "R1",
                f".{op}() without an explicit std::memory_order "
                "(silent seq_cst)"))
            continue
        if op in ("store", "exchange") and "memory_order_relaxed" in args:
            if not justified(first, last):
                out.append(Violation(
                    path, first, "R2",
                    f"relaxed .{op}() publish without an `// {JUSTIFY_TAG}` "
                    "justification (same line or directly above)"))
    for m in FENCE_RE.finditer(scrubbed):
        args, _ = balanced_args(scrubbed, scrubbed.index("(", m.start()))
        if "memory_order" not in args:
            out.append(Violation(
                path, line_of(scrubbed, m.start()), "R1",
                "atomic_thread_fence() without an explicit order"))
    return out


# ---------------------------------------------------------------------------
# R3: lexical per-function lock tracking. Brace depth delimits RAII guard
# lifetimes. The analysis is intra-procedural — a caller's held locks are
# invisible — except for the `_graph_held` naming convention, which the
# tree uses precisely so that holding graph_mu_ is visible in the
# signature.


def check_lock_order(path: str, scrubbed: str) -> list[Violation]:
    out: list[Violation] = []

    events = []  # (offset, kind, lock) kind in {acq, enter_held}
    for m in RAII_ACQUIRE.finditer(scrubbed):
        events.append((m.start(), "acq", m.group(1).strip()))
    for m in GRAPH_HELD_FN.finditer(scrubbed):
        # Entering a *_graph_held body: graph_mu_ is held by contract.
        events.append((m.end() - 1, "enter_held", LIST_LOCK))
    events.sort()
    for m in EXPLICIT_LOCK.finditer(scrubbed):
        out.append(Violation(
            path, line_of(scrubbed, m.start()), "R3",
            f"unscoped lock call; take {LIST_LOCK} through a scoped guard"))

    held: list[int] = []  # brace depths at which graph_mu_ became held
    depth = 0
    ei = 0
    for off, ch in enumerate(scrubbed):
        while ei < len(events) and events[ei][0] == off:
            _, kind, lock = events[ei]
            ei += 1
            if kind == "acq" and lock != LIST_LOCK:
                out.append(Violation(
                    path, line_of(scrubbed, off), "R3",
                    f"acquires {lock}; the ready list has one lock, "
                    f"{LIST_LOCK}"))
                continue
            if kind == "acq" and held:
                out.append(Violation(
                    path, line_of(scrubbed, off), "R3",
                    f"acquires {LIST_LOCK} while already holding it "
                    "(self-deadlock on a non-recursive mutex)"))
            # Registers at the current depth, so a guard (or a held-on-entry
            # contract) dies when its enclosing brace closes.
            held.append(depth)
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            held = [d for d in held if d < depth]
    return out


# ---------------------------------------------------------------------------


def lint_file(p: pathlib.Path) -> list[Violation]:
    raw = p.read_text(encoding="utf-8", errors="replace")
    scrubbed = scrub(raw)
    rel = str(p.relative_to(REPO)) if p.is_absolute() and REPO in p.parents \
        else str(p)
    out = check_orders(rel, raw, scrubbed)
    if rel.replace("\\", "/").endswith(LOCK_ORDER_FILE):
        out += check_lock_order(rel, scrubbed)
    return out


def lint_text(name: str, raw: str, lock_order: bool = False):
    scrubbed = scrub(raw)
    out = check_orders(name, raw, scrubbed)
    if lock_order:
        out += check_lock_order(name, scrubbed)
    return out


# ---------------------------------------------------------------------------
# Self-test: the negative mode the CI job runs first. Each BAD snippet must
# produce exactly the named rule; each GOOD snippet must be clean. A lint
# that cannot fail is not a gate.

GOOD_SNIPPETS = {
    "explicit orders + justified relaxed": """
void f(std::atomic<int>& a) {
  a.load(std::memory_order_acquire);
  a.fetch_add(1, std::memory_order_acq_rel);
  // xk-order: init-before-publish; the flag handoff provides the edge.
  a.store(1, std::memory_order_relaxed);
  a.compare_exchange_strong(x, y,
                            std::memory_order_acq_rel,
                            std::memory_order_relaxed);
}
""",
    "orders on continuation lines": """
void f(std::atomic<int>& a) {
  a.store(compute_something(long_argument_one, long_argument_two),
          std::memory_order_release);
}
""",
    "forwarded order parameter": """
TaskState load_state(std::memory_order order = std::memory_order_acquire)
    const {
  return state.load(order);
}
""",
    "comment text does not satisfy R1": """
void f(std::vector<int>& v) {
  v.clear();  // .load() in a comment is not an atomic op
}
""",
    "one lock, taken once": """
void ReadyList::extend(unsigned shard) {
  std::lock_guard lock(graph_mu_);
  add_node_graph_held(t, shard);
}
void ReadyList::add_node_graph_held(Task* t, unsigned shard) {
  push_ready_graph_held(n, shard);
}
std::size_t ReadyList::covered() const {
  std::lock_guard lock(graph_mu_);
  return covered_count_;
}
""",
}

BAD_SNIPPETS = {
    # rule -> snippet
    "R1 bare load": ("R1", """
void f(std::atomic<int>& a) { int x = a.load(); }
"""),
    "R1 bare store": ("R1", """
void f(std::atomic<int>& a) { a.store(42); }
"""),
    "R1 order only in comment": ("R1", """
void f(std::atomic<int>& a) {
  a.store(42 /* std::memory_order_release */);
}
"""),
    "R2 unjustified relaxed store": ("R2", """
void f(std::atomic<int>& a) {
  a.store(1, std::memory_order_relaxed);
}
"""),
    "R2 unjustified relaxed exchange": ("R2", """
void f(std::atomic<int>& a) {
  int old = a.exchange(1, std::memory_order_relaxed);
}
"""),
    "R3 graph_mu_ re-acquired in a *_graph_held body": ("R3", """
void ReadyList::sweep_watch_graph_held(unsigned shard) {
  std::lock_guard lock(graph_mu_);
}
"""),
    "R3 a second mutex": ("R3", """
void ReadyList::pop(unsigned s) {
  std::lock_guard lock(shards_[s].mu);
}
"""),
    "R3 unscoped lock call": ("R3", """
void ReadyList::pop(unsigned s) {
  if (!graph_mu_.try_lock()) return;
  graph_mu_.unlock();
}
"""),
}


def self_test() -> int:
    failures = 0
    for name, snippet in GOOD_SNIPPETS.items():
        got = lint_text("<good>", snippet, lock_order=True)
        if got:
            failures += 1
            print(f"self-test FAIL (good snippet flagged): {name}")
            for v in got:
                print(f"  {v}")
    for name, (rule, snippet) in BAD_SNIPPETS.items():
        got = lint_text("<bad>", snippet, lock_order=True)
        if not any(v.rule == rule for v in got):
            failures += 1
            print(f"self-test FAIL (violation not caught): {name} "
                  f"(wanted {rule}, got {[v.rule for v in got]})")
    if failures == 0:
        total = len(GOOD_SNIPPETS) + len(BAD_SNIPPETS)
        print(f"self-test OK ({total} snippets: every seeded violation "
              "caught, no false positives)")
        return 0
    return 1


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: the declared scope)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded good/bad snippets and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    if args.files:
        paths = [pathlib.Path(f) for f in args.files]
    else:
        paths = sorted(p for g in SCOPE_GLOBS for p in REPO.glob(g))
    if not paths:
        print("check_atomics: no files in scope", file=sys.stderr)
        return 2

    violations: list[Violation] = []
    for p in paths:
        violations += lint_file(p)
    for v in violations:
        print(v)
    if violations:
        print(f"check_atomics: {len(violations)} violation(s) in "
              f"{len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"check_atomics: {len(paths)} files clean "
          f"(R1 explicit-order, R2 justified-relaxed, R3 one-lock)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
