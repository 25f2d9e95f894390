#!/usr/bin/env python3
"""Fail when the auditgame library carries a header only tests include.

Every header under ``src/`` must be directly included by at least one file
outside ``tests/`` — a library file, a tool, a bench driver, the perfbench
client or an example — not counting the header's own ``.cc``. A header
with no such includer is code no shipped binary runs: delete it, or move it
under ``tests/`` next to the oracle it serves (``tests/lp_oracle/``).

    python3 tools/check_library_users.py [--root REPO]

Exit codes: 0 every header has a user, 1 some header has none.
"""
import argparse
import pathlib
import re
import sys

# The directories whose files count as users of the library.
USER_DIRS = ("src", "tools", "bench", "perfbench", "examples")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def unused_headers(root):
    """Returns the src/-relative paths of headers no non-test file includes."""
    src = root / "src"
    headers = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.h"))
    includers = {header: set() for header in headers}
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            user = path.relative_to(root).as_posix()
            for included in INCLUDE.findall(path.read_text(errors="replace")):
                if included in includers:
                    includers[included].add(user)
    unused = []
    for header in headers:
        own_source = "src/" + header[: -len(".h")] + ".cc"
        if not includers[header] - {own_source}:
            unused.append(header)
    return unused


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent directory's "
        "parent)",
    )
    args = parser.parse_args(argv)
    unused = unused_headers(args.root)
    for header in unused:
        print(f"src/{header}: included by nothing outside tests/ "
              "(besides its own .cc)")
    if unused:
        return 1
    print("check_library_users: every src/ header has a non-test user")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
