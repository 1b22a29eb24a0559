#!/usr/bin/env python3
"""Reach profile: the functions of ``src/repro`` that the repository's own
end-to-end surfaces never call.

    python benchmarks/reach.py

Runs one after another, each in a subprocess whose interpreter installs a
profiler at start-up (``sys.setprofile`` and ``threading.setprofile``,
from a ``sitecustomize`` module put first on ``PYTHONPATH``, so the
processes they start are profiled too):

* the five scripts in ``examples/``;
* the four e2e workloads, ``benchmarks/e2e/run.py --workload NAME --smoke``;
* the CLI tests, ``pytest tests/test_cli*.py``.

Each process records the functions under ``src/repro`` that it called.  A
function's lines run from its first decorator (or its ``def``) to its last
line, the functions nested in it counted on their own; they are unreached
when no process called the function.  Writes
``benchmarks/results/reach.txt`` (totals, per file, every unreached
function) and prints the number of unreached lines.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
OUT = os.path.join(REPO, "benchmarks", "results", "reach.txt")
WORKLOADS = ("batch_generate", "stream_churn", "serve_readonly",
             "serve_mixed")

#: Installed in every profiled interpreter: remembers each code object it
#: enters (by identity, kept alive so an id is never reused) and writes
#: ``[file, first line]`` of those under ``REACH_SRC`` at exit.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

def _install(out, src):
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in entered:
                entered[id(code)] = code

    @atexit.register
    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        reached = sorted({(c.co_filename, c.co_firstlineno)
                          for c in entered.values()
                          if c.co_filename.startswith(src)})
        with open(os.path.join(out, f"{os.getpid()}.json"), "w") as f:
            json.dump(reached, f)

    sys.setprofile(profile)
    threading.setprofile(profile)

if os.environ.get("REACH_OUT"):
    _install(os.environ["REACH_OUT"], os.environ["REACH_SRC"])
'''


def commands() -> list[list[str]]:
    """What the profile runs, each a command line run from the repo."""
    runs = [[sys.executable, path]
            for path in sorted(glob.glob(os.path.join(REPO, "examples",
                                                      "*.py")))]
    runs += [[sys.executable, os.path.join(REPO, "benchmarks", "e2e",
                                           "run.py"),
              "--workload", name, "--smoke"] for name in WORKLOADS]
    runs.append([sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider",
                 *sorted(glob.glob(os.path.join(REPO, "tests",
                                                "test_cli*.py")))])
    return runs


def reached_functions() -> set[tuple[str, int]]:
    """``(file, first line)`` of every function some run called."""
    with tempfile.TemporaryDirectory() as scratch:
        site = os.path.join(scratch, "site")
        out = os.path.join(scratch, "out")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as f:
            f.write(SITECUSTOMIZE)
        env = dict(os.environ, REACH_OUT=out, REACH_SRC=SRC,
                   PYTHONPATH=os.pathsep.join(
                       [site, os.path.join(REPO, "src"), REPO]))
        for command in commands():
            shown = " ".join(os.path.relpath(part, REPO)
                             if part.startswith(REPO) else part
                             for part in command[1:])
            print(f"reach: {shown}", flush=True)
            done = subprocess.run(command, cwd=REPO, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode:
                print(f"reach: exit {done.returncode}: "
                      f"{done.stderr.strip()[-500:]}", flush=True)
        reached: set[tuple[str, int]] = set()
        for path in glob.glob(os.path.join(out, "*.json")):
            with open(path, encoding="utf-8") as f:
                reached.update((name, line) for name, line in json.load(f))
        return reached


def functions(path: str) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, lines)`` of every function defined
    in ``path``, nested ones on their own.  The first line is the first
    decorator's, as the code object's ``co_firstlineno`` is."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found: list[tuple[str, int, int]] = []

    def span(node: ast.AST) -> range:
        first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        return range(first, node.end_lineno + 1)

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = set(span(child))
                for inner in ast.walk(child):
                    if inner is not child and isinstance(
                            inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        lines -= set(span(inner))
                found.append((name, span(child).start, len(lines)))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def report(reached: set[tuple[str, int]]) -> tuple[list[str], int]:
    """The lines of ``reach.txt`` and the number of unreached lines."""
    per_file: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    unreached_functions: list[str] = []
    total_functions = reached_count = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        name = os.path.relpath(path, REPO)
        for qualname, first, lines in functions(path):
            total_functions += 1
            per_file[name][1] += lines
            if (path, first) in reached:
                reached_count += 1
            else:
                per_file[name][0] += lines
                unreached_functions.append(
                    f"{name}:{first} {qualname} ({lines})")
    lines = sum(total for _, total in per_file.values())
    unreached = sum(missed for missed, _ in per_file.values())
    out = [
        "Reach profile: function lines of src/repro that no run of "
        "examples/*.py, benchmarks/e2e/run.py --workload NAME --smoke "
        "(the four workloads) or pytest tests/test_cli*.py calls "
        "(python benchmarks/reach.py)",
        "",
        f"functions: {total_functions}, called: {reached_count}",
        f"function lines: {lines}, unreached: {unreached} "
        f"({unreached / max(lines, 1):.1%})",
        "",
        "per file (unreached / function lines):",
    ]
    out += [f"  {name}: {missed} / {total}"
            for name, (missed, total) in sorted(per_file.items()) if total]
    out += ["", "unreached functions (file:first line, name, lines):"]
    out += [f"  {entry}" for entry in unreached_functions]
    return out, unreached


def main() -> int:
    lines, unreached = report(reached_functions())
    with open(OUT, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    print(f"reach: {unreached} unreached function lines "
          f"(written to {os.path.relpath(OUT, REPO)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
