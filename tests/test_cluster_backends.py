"""Tests for the real execution backends and their Map-Reduce integration."""

import os
import subprocess
import sys
import zlib
from dataclasses import dataclass

import pytest

from repro.cluster.backends import (
    BackendError,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.cluster.mapreduce import (
    MapReduceJob,
    _stable_hash,
    run_mapreduce,
)
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.faults import FaultInjector
from repro.faults.retry import RetryPolicy


def _double(x):
    return x * 2


def _word_map(line):
    return [(w, 1) for w in line.split()]


def _sum_reduce(key, values):
    return sum(values)


def _sum_combine(key, values):
    return [sum(values)]


# ----------------------------------------------------------------- factory


def test_make_backend_specs():
    assert make_backend(None) is None
    assert isinstance(make_backend("serial"), SerialBackend)
    assert isinstance(make_backend("thread"), ThreadPoolBackend)
    assert isinstance(make_backend("process"), ProcessPoolBackend)
    existing = SerialBackend()
    assert make_backend(existing) is existing


def test_make_backend_rejects_unknown_spec():
    with pytest.raises(BackendError):
        make_backend("quantum")
    with pytest.raises(BackendError):
        make_backend(42)  # type: ignore[arg-type]


def test_make_backend_worker_override():
    backend = make_backend("thread", max_workers=3)
    assert backend.max_workers == 3
    backend.close()


# --------------------------------------------------------------- map order


@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
def test_backend_map_preserves_input_order(spec):
    with make_backend(spec, max_workers=4) as backend:
        items = list(range(57))
        assert backend.map(_double, items) == [i * 2 for i in items]
        # odd chunk sizes must not reorder or drop results
        assert backend.map(_double, items, chunk_size=5) == \
            [i * 2 for i in items]


@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
def test_backend_map_empty_input(spec):
    with make_backend(spec, max_workers=2) as backend:
        assert backend.map(_double, []) == []


def test_process_backend_rejects_unpicklable_payload():
    with ProcessPoolBackend(max_workers=2) as backend:
        with pytest.raises(BackendError, match="picklable"):
            backend.map(lambda x: x, [1, 2, 3])


def test_backend_close_is_idempotent():
    backend = ThreadPoolBackend(max_workers=2)
    assert backend.map(_double, [1, 2]) == [2, 4]
    backend.close()
    backend.close()


# ----------------------------------------------------- mapreduce + backend


def _wordcount(lines, backend=None, combine=False, seed=1):
    job = MapReduceJob(
        map_fn=_word_map,
        reduce_fn=_sum_reduce,
        combine_fn=_sum_combine if combine else None,
        split_size=5,
        num_reducers=3,
    )
    return run_mapreduce(job, lines, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=seed), backend))


def test_mapreduce_output_identical_across_backends():
    lines = ["a b a", "b c", "a d e"] * 12
    inline = _wordcount(lines)
    for spec in ("serial", "thread", "process"):
        with make_backend(spec, max_workers=4) as backend:
            result = _wordcount(lines, backend=backend)
            assert result.output == inline.output
            assert result.shuffle_records == inline.shuffle_records
            assert result.backend_name == spec
    assert inline.backend_name == "serial"  # the cluster's default


def test_mapreduce_backend_does_not_change_simulated_makespan():
    lines = ["x y z w"] * 30
    inline = _wordcount(lines)
    with make_backend("thread", max_workers=4) as backend:
        threaded = _wordcount(lines, backend=backend)
    assert threaded.makespan == inline.makespan
    assert threaded.map_makespan == inline.map_makespan
    assert threaded.reduce_makespan == inline.reduce_makespan


def test_mapreduce_reports_wave_task_counts_and_real_seconds():
    lines = ["a b" for _ in range(20)]
    with make_backend("serial") as backend:
        result = _wordcount(lines, backend=backend)
    assert result.map_tasks == 4  # 20 lines / split_size 5
    assert 1 <= result.reduce_tasks <= 3
    assert result.real_seconds >= 0.0
    default = _wordcount(lines)
    assert default.backend_name == "serial"
    assert default.map_tasks == 4


def test_combiner_reduces_shuffle_records_under_backend():
    lines = ["x x x x x"] * 20
    with make_backend("process", max_workers=2) as backend:
        plain = _wordcount(lines, backend=backend)
        combined = _wordcount(lines, backend=backend, combine=True)
    assert plain.output == combined.output == {"x": 100}
    assert combined.shuffle_records < plain.shuffle_records
    # the map-side combiner collapses each split's 25 pairs into 1
    assert combined.shuffle_records == combined.map_tasks


# ------------------------------------------------- stable-hash partitioning

_SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _child_python(script, hash_seed):
    """Run a snippet in a fresh interpreter with a forced str-hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR
    env["PYTHONHASHSEED"] = str(hash_seed)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_stable_hash_is_deterministic_across_processes():
    keys = ["alpha", "beta", "gamma", ("tuple", 3), 42]
    local = [_stable_hash(k) for k in keys]
    script = (
        "from repro.cluster.mapreduce import _stable_hash; "
        "print([_stable_hash(k) for k in "
        "['alpha', 'beta', 'gamma', ('tuple', 3), 42]])"
    )
    assert eval(_child_python(script, 0)) == local
    assert eval(_child_python(script, 12345)) == local  # immune to salting


def test_salted_hash_is_not_process_stable():
    # The control for the test above: the builtin str hash the shuffle must
    # NOT use really does differ between differently-salted interpreters.
    script = "print([hash(k) for k in ['alpha', 'beta', 'gamma', 'delta']])"
    assert _child_python(script, 0) != _child_python(script, 1)


def test_partition_assignment_identical_across_processes():
    keys = [f"key-{i}" for i in range(40)]
    num_reducers = 4
    local = [_stable_hash(k) % num_reducers for k in keys]
    script = (
        "from repro.cluster.mapreduce import _stable_hash; "
        f"print([_stable_hash(f'key-{{i}}') % {num_reducers} "
        f"for i in range(40)])"
    )
    assert eval(_child_python(script, 99)) == local


def test_mapreduce_with_cluster_instance_and_backend():
    # run_mapreduce accepts an existing cluster over an inner backend; the
    # cluster keeps accumulating its attempts log across jobs.
    job = MapReduceJob(map_fn=_word_map, reduce_fn=_sum_reduce, split_size=2)
    with SimulatedCluster(ClusterConfig(num_workers=2, seed=8),
                          make_backend("thread", max_workers=2)) as cluster:
        result = run_mapreduce(job, ["a a", "b"], cluster=cluster)
        assert cluster.backend._pool is not None
    assert result.output == {"a": 2, "b": 1}
    assert cluster.attempts_log
    assert cluster.backend._pool is None  # closed with the cluster


# ------------------------------------------------- one retry budget, N runs


def _attempts(injector, key):
    """How often ``injector`` has been checked for ``key`` (its durable
    per-key count, which survives worker processes)."""
    path = os.path.join(injector.state_dir,
                        f"{zlib.crc32(key.encode('utf-8')):08x}.attempts")
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as f:
        return int(f.read())


@dataclass(frozen=True)
class _Checked:
    """Picklable payload: one injector check per item, then the item."""

    injector: FaultInjector

    def __call__(self, item):
        self.injector.check(item)
        return item


@pytest.mark.parametrize("routine", ["map", "map_stream"])
@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
@pytest.mark.parametrize("attempts", [1, 3])
def test_a_failing_item_runs_exactly_max_attempts_times(tmp_path, attempts,
                                                        spec, routine):
    injector = FaultInjector(keys={"poison"}, fail_attempts=10**9,
                             state_dir=str(tmp_path / f"{spec}-{routine}"))
    retry = RetryPolicy(max_attempts=attempts, base_delay=0.0)
    items = ["a", "b", "poison", "c", "d"]
    with make_backend(spec, max_workers=2, retry=retry) as backend:
        run = getattr(backend, routine)
        with pytest.raises(BackendError, match=f"{attempts} attempt"):
            list(run(_Checked(injector), items, chunk_size=2))
    assert _attempts(injector, "poison") == attempts


def _fails_on_two(x):
    if x == 2:
        raise ValueError("two")
    return x * 10


@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
def test_map_stream_routes_a_persistent_failure_to_on_item_failure(spec):
    failed = []

    def substitute(item, exc):
        failed.append((item, type(exc).__name__, str(exc)))
        return -item

    retry = RetryPolicy(max_attempts=2, base_delay=0.0)
    with make_backend(spec, max_workers=2, retry=retry) as backend:
        out = list(backend.map_stream(_fails_on_two, [1, 2, 3, 4],
                                      chunk_size=2,
                                      on_item_failure=substitute))
    assert out == [10, -2, 30, 40]
    assert failed == [(2, "ValueError", "two")]
