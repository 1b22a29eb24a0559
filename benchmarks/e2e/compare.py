#!/usr/bin/env python3
"""Compare two sets of e2e runs: ``compare.py A.json B.json``.

A and B are files written by ``run.py`` (``results/run_<sha>_<seed>.json``;
use ``--runs K`` so each holds K repetitions).  A is the base, B the change.
Every workload gets its own row per end-to-end metric: median and quartiles
of both sides, the ratio B/A with its base, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` - the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, and the two sides
  overlap, so the runs cannot tell; a gain or a loss this small needs more
  or longer runs;
* ``worse`` / ``better`` - B's median differs from A's by more than the
  bound (with a spread wider than the bound: only when every run of B is
  on one side of every run of A);
* ``ok`` - within the bound.

Judged are the five end-to-end metrics of ``BENCHMARK.json`` (durations at
reference speed, what the driver gates) and the issue's ``workload.*`` names
(the same durations on the plain wall clock, with the issue's bounds,
``spec.ISSUE_BOUNDS``).  The byte ratios that are exact for a seed have a
bound of 0: any difference is ``better`` or ``worse``.  A workload's
``failed`` row reads ``worse`` when B failed more operations than A or any
run of B is not ``correct``.  Runs marked invalid (late open-loop generator)
are left out and counted in a note.  When both files hold traced runs, a
second table lists the per-layer metrics (ratio only: they have no bound).
Exit status 1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

import spec


def load(path: str) -> list[dict[str, Any]]:
    """The valid runs of a run file; says how many it left out."""
    with open(path, encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    valid = [run for run in runs if run.get("valid", True)]
    if len(valid) < len(runs):
        print(f"# note: {path}: {len(runs) - len(valid)} run(s) marked "
              "invalid (late generator) are left out")
    return valid


def by_metric(runs: list[dict[str, Any]], trace: int,
              ) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run of the given trace mode;
    an untraced run's ``workload.*`` rows (``also``) included."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["trace"] == trace:
            into = out.setdefault(run["workload"], {})
            for name, value in {**run["metrics"],
                                **run.get("also", {})}.items():
                into.setdefault(name, []).append(value)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(label, B's median as a share of A's) for one metric on one workload."""
    a1, a, a3 = quartiles(base)
    b1, b, b3 = quartiles(change)
    ratio = b / a if a else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if better == "lower":
        all_better, all_worse = max(change) < min(base), min(change) > max(base)
    else:
        all_better, all_worse = min(change) > max(base), max(change) < min(base)
    separated = len(base) > 1 and len(change) > 1
    spread = max((a3 - a1) / a if a else 0.0, (b3 - b1) / b if b else 0.0)
    if spread > bound:
        # too noisy for the bound, unless the two sides do not even overlap
        if separated and all_better:
            return "better", ratio
        if separated and all_worse and worse_by > bound:
            return "worse", ratio
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if -worse_by > bound:
        return "better", ratio
    return "ok", ratio


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    base_runs, change_runs = load(paths[0]), load(paths[1])
    judged = [(m["name"], m["better"], m["bound"])
              for m in spec.contract()["end_to_end"]]
    judged += [(m["name"], m["better"], spec.ISSUE_BOUNDS[m["name"]])
               for m in spec.contract()["per_layer"]
               if m["name"] in spec.ISSUE_BOUNDS]
    base, change = by_metric(base_runs, 0), by_metric(change_runs, 0)
    labels = []
    print(f"{'workload':<15} {'metric':<38} {'A med [q1, q3]':>34} "
          f"{'B med [q1, q3]':>34} {'B/A':>16} {'bound':>6}  verdict")
    for workload in spec.names("workloads"):
        for name, better, bound in judged:
            a = base.get(workload, {}).get(name)
            b = change.get(workload, {}).get(name)
            if not a or not b:
                continue
            label, ratio = verdict(a, b, better, bound)
            labels.append(label)
            print(f"{workload:<15} {name:<38} {_side(a):>34} {_side(b):>34} "
                  f"{ratio:>6.3f}x of {quartiles(a)[1]:<8.4g}"
                  f"{bound:>6.2f}  {label}")
        mine_a = [r for r in base_runs if r["workload"] == workload]
        mine_b = [r for r in change_runs if r["workload"] == workload]
        if mine_a and mine_b:
            failed_a = max(r["failed"] for r in mine_a)
            failed_b = max(r["failed"] for r in mine_b)
            incorrect = sum(1 for r in mine_b if not r["correct"])
            label = "worse" if failed_b > failed_a or incorrect else "ok"
            labels.append(label)
            print(f"{workload:<15} {'failed':<38} "
                  f"{failed_a:>27} of {mine_a[0]['attempted']:<6} "
                  f"{failed_b:>27} of {mine_b[0]['attempted']:<6} "
                  f"{incorrect:>3} of {len(mine_b)} runs of B not correct  "
                  f"{label}")
    layers_a, layers_b = by_metric(base_runs, 1), by_metric(change_runs, 1)
    if layers_a and layers_b:
        print(f"\n{'workload':<15} {'per-layer metric':<52} {'A':>12} "
              f"{'B':>12} {'B/A':>8}")
        for workload in layers_a:
            for name, a in layers_a[workload].items():
                b = layers_b.get(workload, {}).get(name)
                if not b or not (any(a) or any(b)):
                    continue
                am, bm = statistics.median(a), statistics.median(b)
                ratio = f"{bm / am:.3f}x" if am else "-"
                print(f"{workload:<15} {name:<52} {am:>12.4g} {bm:>12.4g} "
                      f"{ratio:>8}")
    return 1 if "worse" in labels else 0


def _side(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


if __name__ == "__main__":
    sys.exit(main())
