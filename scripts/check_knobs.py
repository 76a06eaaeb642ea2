#!/usr/bin/env python3
"""Knob-docs lint: every XK_* variable the runtime reads has a TUNING row.

docs/TUNING.md is the one place a user learns what an XK_* environment
variable does. This script keeps it in step with the code:

  K1 undocumented   An XK_* name read under src/ — the first argument of an
                    env_*(...) helper (env_int, env_bool, env_string,
                    env_size, ...) or of getenv — has no table row in
                    docs/TUNING.md.

  K2 stale-row      A TUNING.md table row names (in its first cell) an
                    XK_* variable that nothing under src/ reads.

  K3 knob-ceiling   More distinct XK_* variables are read under src/ than
                    MAX_KNOBS. Each knob is a mode the tests and benches
                    must cover; a new one has to displace an old one (or
                    raise the ceiling here, in review).

Reads are found lexically: comments are scrubbed first, so a name that is
only mentioned in a comment does not count as read, and the argument may
sit on a continuation line. XKREPRO_* bench-harness variables are out of
scope (BENCHMARKS.md documents them).

Usage:
  python3 scripts/check_knobs.py              # lint src/ against TUNING.md
  python3 scripts/check_knobs.py --self-test  # prove the rules fire
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC_GLOBS = ["src/**/*.cpp", "src/**/*.hpp", "src/**/*.h"]
TUNING = REPO / "docs" / "TUNING.md"

# Ceiling on the number of distinct XK_* variables read under src/ (K3).
MAX_KNOBS = 16

READ_RE = re.compile(r'\b(?:env_[a-z_]+|getenv)\s*\(\s*"(XK_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(XK_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def scrub_comments(text: str) -> str:
    """Blanks // and /* */ comments (newlines kept); strings stay intact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def reads_in(text: str) -> set[str]:
    return set(READ_RE.findall(scrub_comments(text)))


def rows_in(markdown: str) -> set[str]:
    return set(ROW_RE.findall(markdown))


def problems(reads: dict[str, list[str]], rows: set[str],
             max_knobs: int = MAX_KNOBS) -> list[str]:
    """`reads` maps each read name to the files that read it."""
    out = []
    if len(reads) > max_knobs:
        out.append(f"K3 knob-ceiling: {len(reads)} XK_* variables are read "
                   f"under src/, above the ceiling of {max_knobs}")
    for name in sorted(set(reads) - rows):
        out.append(f"K1 undocumented: {name} (read in "
                   f"{', '.join(sorted(reads[name]))}) has no row in "
                   "docs/TUNING.md")
    for name in sorted(rows - set(reads)):
        out.append(f"K2 stale-row: docs/TUNING.md documents {name}, which "
                   "nothing under src/ reads")
    return out


# ---------------------------------------------------------------------------
# Self-test: (source, markdown, rules that must fire). An empty rule list
# means the case must come out clean. The self-test runs with a ceiling of
# SELF_TEST_MAX_KNOBS.

SELF_TEST_MAX_KNOBS = 3

CASES = {
    "every read documented": ("""
cfg.a = env_int("XK_A", cfg.a);
cfg.b = env_size(
    "XK_B", cfg.b);  // the name on a continuation line
const char* m = std::getenv("XK_C");
bool csv = env_bool("XKREPRO_CSV", false);  // harness variable, out of scope
""", """
| variable | default |
|---|---|
| `XK_A` | 1 |
| `XK_B` | 2 |
| `XK_C` | unset |
""", []),
    "read without a row": ("""
cfg.a = env_int("XK_A", cfg.a);
auto name = xk::env_string("XK_UNDOC").value_or("x");
""", """
| `XK_A` | 1 |
""", ["K1"]),
    "row without a read": ("""
cfg.a = env_int("XK_A", cfg.a);
""", """
| `XK_A` | 1 |
| `XK_GONE` | 4 |
""", ["K2"]),
    "a read only in a comment is no read": ("""
cfg.a = env_int("XK_A", cfg.a);
// cfg.g = env_int("XK_GONE", 4);
/* env_bool("XK_GONE2", true) */
""", """
| `XK_A` | 1 |
| `XK_GONE` | 4 |
| `XK_GONE2` | 1 |
""", ["K2"]),
    "a mention outside the first cell is no row": ("""
cfg.a = env_int("XK_A", cfg.a);
cfg.b = env_int("XK_B", cfg.b);
""", """
| `XK_A` | 1 | must exceed `XK_B` |
""", ["K1"]),
    "more knobs than the ceiling": ("""
cfg.a = env_int("XK_A", cfg.a);
cfg.b = env_int("XK_B", cfg.b);
cfg.c = env_int("XK_C", cfg.c);
cfg.d = env_int("XK_D", cfg.d);
""", """
| `XK_A` | 1 |
| `XK_B` | 2 |
| `XK_C` | 3 |
| `XK_D` | 4 |
""", ["K3"]),
}


def self_test() -> int:
    failures = 0
    for name, (src, md, want) in CASES.items():
        got = problems({n: ["<src>"] for n in reads_in(src)}, rows_in(md),
                       SELF_TEST_MAX_KNOBS)
        rules = sorted({p.split()[0] for p in got})
        if rules != sorted(set(want)):
            failures += 1
            print(f"self-test FAIL: {name} (wanted {sorted(set(want))}, "
                  f"got {rules})")
            for p in got:
                print(f"  {p}")
    if failures == 0:
        print(f"self-test OK ({len(CASES)} cases: every seeded violation "
              "caught, no false positives)")
        return 0
    return 1


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded cases and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    paths = sorted({p for g in SRC_GLOBS for p in REPO.glob(g)})
    if not paths or not TUNING.is_file():
        print("check_knobs: no sources or no docs/TUNING.md", file=sys.stderr)
        return 2
    reads: dict[str, list[str]] = {}
    for p in paths:
        for name in reads_in(p.read_text(encoding="utf-8")):
            reads.setdefault(name, []).append(str(p.relative_to(REPO)))
    rows = rows_in(TUNING.read_text(encoding="utf-8"))
    found = problems(reads, rows)
    for p in found:
        print(p)
    if found:
        print(f"check_knobs: {len(found)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_knobs: {len(reads)} XK_* variables read under src/ "
          f"(ceiling {MAX_KNOBS}), each with a docs/TUNING.md row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
