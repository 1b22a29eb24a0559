#!/usr/bin/env python3
"""Net ``src/`` line delta of the working tree against a git ref:
``python benchmarks/src_delta.py <git-ref>`` (run from inside the repo).

ROADMAP's rules ask every PR to report this number.  Counted are the
lines ``git diff`` marks added or removed under ``src/`` that are neither
blank nor a ``#`` comment (docstrings count: they are the documentation
tools read); a renamed file counts as one removed and one added.  New
files must be known to git (``git add``) to be seen.  Prints one row per
changed file and the total.
"""

from __future__ import annotations

import subprocess
import sys


def counted(line: str) -> bool:
    text = line.strip()
    return bool(text) and not text.startswith("#")


def src_delta(ref: str, repo: str = ".") -> dict[str, list[int]]:
    """``path -> [added, removed]`` for every file changed under ``src/``."""
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-ext-diff", "--no-renames", "-U0",
         ref, "--", "src"],
        cwd=repo, check=True, capture_output=True, text=True).stdout
    files: dict[str, list[int]] = {}
    counts: list[int] = []
    in_header = False
    for line in diff.splitlines():
        if line.startswith("diff --git "):
            in_header = True
        elif in_header:
            if line.startswith(("--- a/", "+++ b/")):
                counts = files.setdefault(line[6:], [0, 0])
            in_header = not line.startswith("@@")
        elif line[:1] in "+-" and counted(line[1:]):
            counts[line[0] == "-"] += 1
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[1], file=sys.stderr)
        return 2
    files = src_delta(argv[0])
    width = max([len(path) for path in files] + [len("src/ total")])
    print(f"{'file':<{width}}  {'added':>7}  {'removed':>7}  {'net':>7}")
    for path, (added, removed) in sorted(files.items()):
        print(f"{path:<{width}}  {added:>7}  {removed:>7}  "
              f"{added - removed:>+7}")
    added = sum(a for a, _ in files.values())
    removed = sum(r for _, r in files.values())
    print(f"{'src/ total':<{width}}  {added:>7}  {removed:>7}  "
          f"{added - removed:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
