"""Physical layer: simulated cluster and Map-Reduce engine (Figure 1).

The paper: *"Given that IE and II are often very computation intensive ...
we need parallel processing in the physical layer. A popular way to achieve
this is to use a computer cluster running Map-Reduce-like processes."*

We do not have a cluster, so we simulate one (documented substitution in
DESIGN.md): scheduling, data partitioning, shuffle, worker failures,
stragglers, and speculative re-execution are all real, and a simulated
clock yields makespans whose *shape* under varying worker counts is the
quantity experiment E7 reports.

:mod:`repro.cluster.backends` provides *real* wall-clock parallelism on
the local machine: serial, thread-pool, and process-pool execution
backends (experiment E15), each with one routine, ``map_stream``.  The
simulated cluster is a backend too: it runs the real work on an inner
backend it is given and schedules the same task graph on its simulated
workers, so it adds the cost/failure model without changing the output.
"""

from repro.cluster.backends import (
    BackendError,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.cluster.simulator import ClusterConfig, SimulatedCluster, Task, TaskResult
from repro.cluster.mapreduce import MapReduceJob, MapReduceResult, run_mapreduce

__all__ = [
    "BackendError",
    "ClusterConfig",
    "ExecutionBackend",
    "MapReduceJob",
    "MapReduceResult",
    "ProcessPoolBackend",
    "SerialBackend",
    "SimulatedCluster",
    "Task",
    "TaskResult",
    "ThreadPoolBackend",
    "make_backend",
    "run_mapreduce",
]
