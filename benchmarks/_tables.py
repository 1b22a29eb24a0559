"""Shared table reporting for the experiment benchmarks.

Every experiment prints its rows (the series a paper table/figure would
show) and also writes them to ``benchmarks/results/<name>.txt`` so the
numbers survive pytest's output capturing.  EXPERIMENTS.md records the
measured values from these files.
"""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_table(name: str, title: str, headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> str:
    """Format, print, and persist one experiment table; returns the text."""
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths))
        )
    text = "\n".join(lines)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w",
              encoding="utf-8") as f:
        f.write(text + "\n")
    print("\n" + text)
    return text


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def gate(name: str, actual: float, op: str, threshold: float) -> dict:
    """One machine-readable pass/fail claim for a result file's ``gates``
    list (``op`` is ``>=``, ``<=``, ``<`` or ``==``); ``check_gates.py``
    re-validates it."""
    ok = {">=": actual >= threshold, "<=": actual <= threshold,
          "<": actual < threshold, "==": actual == threshold}[op]
    return {"name": name, "actual": actual, "op": op,
            "threshold": threshold, "pass": ok}


def assert_gates(gates: Sequence[dict]) -> None:
    """Fail the bench on the first recorded gate that does not hold."""
    for g in gates:
        assert g["pass"], (f"{g['name']}: {g['actual']:.2f} violates "
                           f"{g['op']} {g['threshold']}")
