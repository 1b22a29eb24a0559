"""Smoke test of the e2e benchmark itself.

Run with ``pytest benchmarks/e2e`` (tier-1 collects ``tests/`` only).  It
drives all four workloads at ``--smoke`` sizes through the real command,
one subprocess each, then repeats the single-client ones in this process to
check that counts repeat and that a slowed layer is seen where it should be.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(REPO, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

SEED = 7
SINGLE_CLIENT = ("batch_generate", "stream_churn")
WORKLOADS = spec.names("workloads")
END_TO_END = spec.names("end_to_end")
PER_LAYER = spec.names("per_layer")
UNITS = spec.units()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All workloads, untraced and traced, through the one command."""
    out = tmp_path_factory.mktemp("e2e")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace",
         "--seed", str(SEED), "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=REPO)
    assert done.returncode == 0, done.stdout + done.stderr
    run_file, = [n for n in os.listdir(out) if n.startswith("run_")]
    with open(out / run_file, encoding="utf-8") as f:
        data = json.load(f)
    with open(out / "trajectory.jsonl", encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    return {"stdout": done.stdout, "runs": data["runs"], "meta": data["meta"],
            "trajectory": rows, "seconds": time.perf_counter() - started,
            "path": str(out / run_file)}


def test_every_declared_metric_is_printed_and_nothing_else(smoke):
    assert smoke["seconds"] < 30
    runs = smoke["runs"]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in WORKLOADS for t in (0, 1))
    for r in runs:
        declared = PER_LAYER if r["trace"] else END_TO_END
        assert tuple(r["metrics"]) == declared, r["workload"]
        assert set(r.get("also", ())) <= set(PER_LAYER)
    printed = set()
    result_lines = []
    for line in smoke["stdout"].splitlines():
        if line.startswith("{"):
            result_lines.append(json.loads(line))
        elif line and not line.startswith(("#", "wrote")):
            name, _value, unit = line.split()[:3]
            assert unit == UNITS[name], line  # KeyError: undeclared name
            printed.add(name)
    assert printed == set(UNITS)
    assert len(result_lines) == len(runs)
    for line in result_lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for name, cell in line["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == UNITS[name]


def test_outputs_are_correct_and_nothing_failed(smoke):
    for r in smoke["runs"]:
        assert r["correct"] is True, (r["workload"], r["checks"], r["errors"])
        assert r["failed"] == 0 and r["failed_share"] == 0.0
        assert r["attempted"] >= 1 and all(r["checks"].values())
        if not r["trace"]:  # an end-to-end metric is never 0
            assert all(v > 0 for v in r["metrics"].values()), r["metrics"]


def test_one_trajectory_row_keyed_by_sha_seed_nproc(smoke):
    row, = smoke["trajectory"]
    assert {"sha", "dirty", "seed", "nproc", "python", "gc", "flush_policy",
            "metrics"} <= set(row)
    assert row["seed"] == SEED and set(row["metrics"]) == set(WORKLOADS)


@pytest.fixture(scope="module")
def again():
    """The single-client workloads once more, traced, in this process."""
    return {name: run.measure(name, SEED, 1.0, trace=True, smoke=True)
            for name in SINGLE_CLIENT}


def test_counts_repeat_exactly_for_a_seed(smoke, again):
    first = {r["workload"]: r["metrics"] for r in smoke["runs"] if r["trace"]}
    for name in SINGLE_CLIENT:
        for metric, value in again[name]["metrics"].items():
            if metric.endswith(".n") or metric in spec.EXACT:
                assert value == first[name][metric], (name, metric)
    # and the zeros are the point: layers a workload bypasses read 0
    assert first["serve_readonly"]["extraction.extract_s"] == 0
    assert first["serve_readonly"]["storage.rdbms.engine.commits.n"] == 0
    assert first["batch_generate"]["integration.er_apply_s"] == 0
    assert first["stream_churn"]["lang.execute_self_s"] == 0
    assert first["stream_churn"]["cache.hits.n"] > 0


def test_slowed_layer_shows_in_its_self_time_and_trips_compare(
        again, tmp_path, monkeypatch, capsys):
    from repro.debugger.semantic import SemanticDebugger

    def measured(trace: bool) -> dict:
        return run.measure("batch_generate", SEED, 1.0, trace=trace,
                           smoke=True)

    base_traced = again["batch_generate"]
    base = measured(trace=False)
    check = SemanticDebugger.check

    def slow_check(self, fact, context=""):
        time.sleep(0.001)
        return check(self, fact, context)

    monkeypatch.setattr(SemanticDebugger, "check", slow_check)
    slow_traced = measured(trace=True)
    slow = measured(trace=False)
    monkeypatch.undo()

    added = (slow_traced["metrics"]["debugger.check_s"]
             - base_traced["metrics"]["debugger.check_s"])
    # generate() checks every fact it stores, once
    facts = base_traced["metrics"]["storage.rdbms.engine.rows_inserted.n"]
    assert facts > 0
    assert added > 0.5 * 0.001 * facts  # the sleep landed in that layer
    for other in ("extraction.extract_s", "integration.resolve_s"):
        assert slow_traced["metrics"][other] < \
            base_traced["metrics"][other] + 0.25 * added
    assert next(iter(slow_traced["layers_self_s"])) == "debugger"

    def run_file(label: str, *results: dict) -> str:
        path = str(tmp_path / f"{label}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": {}, "runs": list(results)}, f)
        return path

    def rows(table: str, metric: str) -> list[str]:
        return [line for line in table.splitlines()
                if line.startswith("batch_generate") and f" {metric} " in line]

    a = run_file("base", base, base_traced)
    assert compare.main([a, run_file("slow", slow, slow_traced)]) == 1
    table = capsys.readouterr().out
    assert rows(table, "ops_per_s")[0].endswith("worse")
    assert rows(table, "failed")[0].endswith("ok")
    # both files hold a traced run, so the per-layer table is printed
    assert rows(table, "debugger.check_s")
    assert compare.main([a, a]) == 0
    capsys.readouterr()

    # what must stay as it is: nothing failed, outputs correct, exact bytes
    failing = dict(base, failed=1, correct=False)
    assert compare.main([a, run_file("failing", failing)]) == 1
    assert rows(capsys.readouterr().out, "failed")[0].endswith("worse")
    name = "workload.wal_bytes_per_fact"
    fatter = dict(base, also=dict(base["also"], **{name: base["also"][name] + 1}))
    assert compare.main([a, run_file("fatter", fatter)]) == 1
    assert rows(capsys.readouterr().out, name)[0].endswith("worse")
    # an invalid run is left out, not counted
    assert compare.main([a, run_file("late", base, dict(failing, valid=False))]) == 0
    assert "left out" in capsys.readouterr().out
