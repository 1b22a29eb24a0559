"""The four workloads: inputs from the seed, set-up, timed rounds, checks.

Every workload drives the program only through its public API
(``StructureManagementSystem``, ``StreamingPipeline``, ``Database``,
``ContinuousQueryManager``) with the product's defaults.  The amount of work
in a timed phase is a fixed function of ``--seconds`` (rates calibrated on
the tree this benchmark was added to), never of how fast the program runs,
so operation counts repeat exactly for a seed and a faster program simply
finishes sooner.  See README.md for why each workload is here.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import re
import shutil
import statistics
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep
from typing import Any

from repro.core.streaming import DocDelta
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import RangeConstraint
from repro.docmodel.document import Document
from repro.extraction import (
    ContextRule,
    DictionaryExtractor,
    InfoboxExtractor,
    RuleCascadeExtractor,
    WikiTableExtractor,
    normalize_number,
    normalize_temperature,
)
from repro.extraction.normalize import MONTHS
from repro.integration import EntityResolver
from repro.storage.rdbms.sql import execute_sql
from repro.telemetry import metrics
from repro.userlayer.monitoring import ContinuousQuery

from spec import ROUNDS
from trace import NullRecorder

UNTRACED = NullRecorder()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def dir_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


@dataclass
class Round:
    """What one timed round measured, on the wall clock."""

    ops: int = 0                 # units of throughput completed
    wall: float = 0.0            # seconds those units took (closed loop)
    attempted: int = 0
    failed: int = 0
    #: sample lists, in seconds, by name
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: plain counts the harness itself makes
    counts: dict[str, float] = field(default_factory=dict)
    #: perf_counter() at both ends of the stretch ``wall`` and the samples
    #: were measured in
    timed: tuple[float, float] = (0.0, 0.0)
    #: the same for samples taken elsewhere and on the process CPU clock
    #: (stream_churn's open loop)
    sampled: tuple[float, float] | None = None

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def at_reference_speed(self, timed: float, sampled: float) -> "Round":
        """The same round with ``wall`` and the samples divided by how much
        slower than at its best the machine ran during their stretches
        (run.py, ``Machine``)."""
        return Round(
            ops=self.ops, wall=self.wall / timed,
            attempted=self.attempted, failed=self.failed, counts=self.counts,
            samples={name: [v / sampled for v in values]
                     for name, values in self.samples.items()})


def rate(rounds: list[Round]) -> float:
    """Operations per second: the median of the rounds' own rates, so one
    round the machine stalled in does not set the run's value."""
    return statistics.median(r.ops / r.wall for r in rounds)


def pooled(rounds: list[Round], name: str) -> list[float]:
    return [v for r in rounds for v in r.samples.get(name, ())]


class Workload:
    """Base: sizes from ``--seconds``, a scratch directory, failure log."""

    name = ""
    setups = 5  # set-up is repeated and setup_s is the median
    system: StructureManagementSystem | None = None  # the one left open
    disk: dict[str, int] | None = None  # bytes by store, where one is kept

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.errors: list[str] = []
        if smoke:
            self.setups = 1

    def workspace(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)

    def fail(self, what: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(what)

    def valid(self, stats: dict[str, float]) -> bool:
        """False when the run measured the harness rather than the program."""
        return True

    # Subclasses provide: sizes(), setup(), discard(), run_round(),
    # finish(), stats(), facts_written(), sample_counts().


# --------------------------------------------------------------------------
# batch_generate
# --------------------------------------------------------------------------

CITY_PROGRAM = (
    'pages = docs()\n'
    'box   = extract(pages, "infobox")\n'
    'prose = extract(pages, "prose")\n'
    'tabs  = extract(pages, "tables")\n'
    'u1    = union(box, prose)\n'
    'u2    = union(u1, tabs)\n'
    'canon = resolve(u2, "er")\n'
    'fused = fuse(canon, "weighted_vote")\n'
    'output fused'
)
_SPRING_TO_FALL = ("mar", "apr", "may", "jun", "jul", "aug", "sep")


def _month_attr(key_cell: str) -> str | None:
    month = key_cell.strip().lower()
    return f"{month[:3]}_temp" if month in MONTHS else None


def _tables_extractor() -> WikiTableExtractor:
    return WikiTableExtractor(
        key_column="month",
        value_normalizers={"temperature": normalize_number},
        attribute_namer=_month_attr)


def _facts_checksum(system: StructureManagementSystem) -> tuple[int, int]:
    """(row count, order-independent checksum) of the facts table."""
    total = 0
    rows = system.query(f"SELECT * FROM {FACTS_TABLE}")
    for row in rows:
        total = (total + zlib.crc32(
            repr(sorted(row.items())).encode("utf-8"))) & 0xFFFFFFFFFFFF
    return len(rows), total


class BatchGenerate(Workload):
    """The city-portal program of examples/wikipedia_city_portal.py, from a
    fresh workspace to a reopened one, once per cycle."""

    name = "batch_generate"
    setups = 3  # a set-up is a whole warm-up cycle here
    OPS_PER_CYCLE = 10  # open ingest generate compact 3 checks close reopen close

    def sizes(self) -> dict[str, Any]:
        pages = 24 if self.smoke else 200
        # ~1.6 s per 200-page cycle (reopen and verification included) on
        # the tree this was calibrated on
        per_round = 1 if self.smoke else max(1, round(self.seconds * 0.2))
        return {"pages": pages, "cycles_per_round": per_round,
                "corruption_rate": 0.1, "styles": "all four"}

    def setup(self) -> None:
        size = self.sizes()
        self.pages = size["pages"]
        self.cycles_per_round = size["cycles_per_round"]
        corpus, truth = generate_city_corpus(CityCorpusConfig(
            num_cities=self.pages, seed=self.seed, corruption_rate=0.1))
        self.corpus = list(corpus)
        self.corpus_bytes = sum(len(d.text.encode("utf-8"))
                                for d in self.corpus)
        names = [t.name for t in truth]
        clean = [t for t in truth if t.corrupted_month is None]
        probes = random.Random(self.seed).sample(clean, 5)
        self.expected_avg = {
            t.name: statistics.fmean(t.monthly_temps[2:9]) for t in probes}
        entity_list = ", ".join(f"'{name}'" for name in self.expected_avg)
        attr_list = ", ".join(f"'{m}_temp'" for m in _SPRING_TO_FALL)
        self.avg_sql = (
            f"SELECT entity, AVG(value_num) AS a FROM {FACTS_TABLE} "
            f"WHERE entity IN ({entity_list}) AND attribute IN ({attr_list}) "
            "GROUP BY entity")
        self.probe_city = probes[0].name
        rules = [
            ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                        r"(\d+(?:\.\d+)?)\s*degrees",
                        normalizer=normalize_temperature, confidence=0.75)
            for m in MONTHS
        ]
        self.extractors = {
            "infobox": InfoboxExtractor(),
            "prose": RuleCascadeExtractor(
                rules=rules, entity_dictionary=DictionaryExtractor(
                    attribute="city", phrases=names)),
            "tables": _tables_extractor(),
        }
        self.flagged: list[int] = []
        self.disk = {}
        self._cycle(Round(), UNTRACED, "warm-up")  # in no metric but setup_s
        self.flagged.clear()

    def discard(self) -> None:
        pass  # every cycle removes its own workspace

    def _open(self, workspace: str) -> StructureManagementSystem:
        system = StructureManagementSystem(workspace=workspace)
        for name, extractor in self.extractors.items():
            system.registry.register_extractor(name, extractor)
        system.registry.register_resolver("er", EntityResolver(threshold=0.95))
        for month in MONTHS:
            for attr in (f"{month[:3]}_temp", f"{month}_temperature"):
                system.debugger.add_constraint(
                    RangeConstraint(attr, -80.0, 130.0))
        return system

    def _cycle(self, out: Round, rec: Any, trace_id: str) -> None:
        workspace = self.workspace()
        out.attempted += self.OPS_PER_CYCLE
        try:
            with rec.root("bench.cycle", trace_id):
                started = perf_counter()
                system = self._open(workspace)
                registered = len(system.debugger.constraints)
                system.ingest(self.corpus)
                report = system.generate(CITY_PROGRAM)
                system.compact()
                averages = {r["entity"]: r["a"]
                            for r in system.query(self.avg_sql)}
                hits = system.keyword_facts(self.probe_city, k=3)
                explanation = system.explain(self.probe_city, "jul_temp")
                checked = perf_counter()
                before = _facts_checksum(system)
                learned = len(system.debugger.constraints) - registered
                nodes = len(system.provenance)
                closing = perf_counter()
                system.close()
                closed = perf_counter()
                reopened = StructureManagementSystem(workspace=workspace)
                count = reopened.fact_count()
                answered = perf_counter()
                after = _facts_checksum(reopened)
                reopened.close()
            # the verification reads between the checks and close() are
            # the harness's, not the cycle's
            out.add("cycle", (checked - started) + (closed - closing))
            out.add("reopen", answered - closed)
            out.ops += self.pages
            for name, value in (("facts", report.facts_stored),
                                ("constraints_learned", learned),
                                ("provenance_nodes", nodes)):
                out.counts[name] = out.counts.get(name, 0) + value
            self.flagged.append(report.facts_flagged)
            self.disk = {entry: dir_bytes(os.path.join(workspace, entry))
                         for entry in sorted(os.listdir(workspace))}
            for city, expected in self.expected_avg.items():
                got = averages.get(city)
                if got is None or abs(got - expected) > 0.5:
                    out.failed += 1
                    self.fail(f"{trace_id}: AVG for {city} is {got}, "
                              f"truth {expected:.2f}")
            if not hits:
                out.failed += 1
                self.fail(f"{trace_id}: keyword_facts found nothing")
            if not explanation or explanation.startswith("no recorded"):
                out.failed += 1
                self.fail(f"{trace_id}: explain() is empty")
            if count != before[0] or after != before:
                out.failed += 1
                self.fail(f"{trace_id}: reopened facts {after} != {before}")
        except Exception as exc:  # a cycle that raises fails all its ops
            out.failed += self.OPS_PER_CYCLE
            self.fail(f"{trace_id}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(workspace, ignore_errors=True)

    def run_round(self, index: int, rec: Any) -> Round:
        out = Round()
        started = perf_counter()
        for cycle in range(self.cycles_per_round):
            self._cycle(out, rec,
                        f"cycle-{index * self.cycles_per_round + cycle}")
        out.timed = (started, perf_counter())
        out.wall = sum(out.samples.get("cycle", ()))
        return out

    def finish(self) -> dict[str, bool]:
        return {
            "facts_flagged > 0": bool(self.flagged) and min(self.flagged) > 0,
            "facts_flagged identical in every cycle":
                len(set(self.flagged)) == 1,
        }

    def stats(self, rounds: list[Round]) -> dict[str, float]:
        cycles = pooled(rounds, "cycle")
        if not cycles:
            return {}
        docs_per_s = self.pages / statistics.median(cycles)
        reopen = statistics.median(pooled(rounds, "reopen"))
        stored = sum(self.disk.values())
        return {
            "ops_per_s": docs_per_s,
            "response_p50_ms": reopen * 1000.0,
            "workload.docs_per_s": docs_per_s,
            "workload.reopen_p50_s": reopen,
            "workload.stored_bytes_per_corpus_byte":
                stored / self.corpus_bytes,
            "debugger.constraints_learned.n":
                sum(r.counts.get("constraints_learned", 0) for r in rounds),
            "uncertainty.nodes.n":
                sum(r.counts.get("provenance_nodes", 0) for r in rounds),
            "uncertainty.bytes": self.disk.get("provenance.json", 0),
            "storage.snapshots.bytes": self.disk.get("raw", 0),
            "storage.filestore.bytes": self.disk.get("intermediate", 0),
        }

    def facts_written(self, rounds: list[Round]) -> int:
        return int(sum(r.counts.get("facts", 0) for r in rounds))

    def sample_counts(self, rounds: list[Round]) -> dict[str, int]:
        n = len(pooled(rounds, "cycle"))
        return {"ops_per_s": n, "response_p50_ms": n}


# --------------------------------------------------------------------------
# stream_churn
# --------------------------------------------------------------------------

_TEMP_VALUE = re.compile(
    r"((?:_temp|_temperature) = |\|\| )(-?\d+(?:\.\d+)?)")
# First letters no generated city name or ordinal starts with, so marker
# entities never share an entity-resolution block with the seeded corpus.
_MARKER_LETTERS = "DIJKPQTUVXYZ"
MARKER_SQL = ("SELECT entity, value_num FROM fused_facts "
              "WHERE attribute = 'marker_seq'")
HOT_SQL = ("SELECT entity, attribute, value_num FROM fused_facts "
           "WHERE attribute = 'jul_temp' AND value_num > 90")


def _changed_page(doc: Document, rng: random.Random) -> Document:
    """The same page with one temperature reading edited."""
    matches = list(_TEMP_VALUE.finditer(doc.text))
    match = rng.choice(matches)
    value = round(float(match.group(2)) + rng.choice((-1.5, -0.7, 0.6, 1.3)),
                  1)
    return Document(doc.doc_id, doc.text[:match.start(2)] + f"{value:g}"
                    + doc.text[match.end(2):])


def _marker_page(seq: int, rng: random.Random) -> Document:
    """A new page about an entity nobody else mentions.

    Every attribute value is unique to ``seq``, which subtracts from the
    resolver's pair score, so two markers never merge and the fused
    ``marker_seq`` row identifies the delta that added the page.
    """
    name = _MARKER_LETTERS[seq % len(_MARKER_LETTERS)] + "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(9))
    text = (
        "{{Infobox city\n"
        f" | name = {name}\n"
        f" | population = {100_000 + seq}\n"
        f" | marker_seq = {seq}\n"
        f" | jul_temp = {60 + (seq % 2000) / 100:g}\n"
        "}}\n\n"
        f"'''{name}''' is a city. As of the last census, the population "
        f"was {100_000 + seq:,}."
    )
    return Document(f"marker_{seq}", text)


class StreamChurn(Workload):
    """A seeded corpus kept fresh under churn through the streaming DGE."""

    name = "stream_churn"
    setups = 7              # a set-up is only ~0.6 s here
    DOCS_PER_DELTA = 5      # 3 changed + 1 added + 1 removed
    # no prose pages: the pipeline's two extractors read nothing from them
    STYLES = ("infobox", "infobox_long", "table")
    MARKER_LIFETIME = 24    # deltas a marker page lives before it is removed
    CITY_REMOVAL_EVERY = 8  # every 8th removal takes a seeded page instead

    def sizes(self) -> dict[str, Any]:
        if self.smoke:
            return {"pages": 60, "rate_per_s": 25.0,
                    "open_deltas_per_round": 10, "burst_deltas_per_round": 10}
        rate = 24.0
        return {
            "pages": 400, "rate_per_s": rate,
            # two thirds of the time on the schedule, the rest in bursts
            # (~8 ms of service per delta at 400 pages)
            "open_deltas_per_round":
                max(4, round(self.seconds * 0.68 * rate / ROUNDS)),
            "burst_deltas_per_round": max(4, round(self.seconds * 12)),
        }

    def setup(self) -> None:
        size = self.sizes()
        self.rate = size["rate_per_s"]
        self.open_n = size["open_deltas_per_round"]
        self.burst_n = size["burst_deltas_per_round"]
        corpus, _ = generate_city_corpus(CityCorpusConfig(
            num_cities=size["pages"], seed=self.seed, corruption_rate=0.1,
            styles=self.STYLES))
        seeded = list(corpus)
        self.script = self._script(
            seeded, ROUNDS * (self.open_n + self.burst_n))
        self.directory = self.workspace()
        self.system = StructureManagementSystem(
            workspace=self.directory, cache="memory")
        self.system.registry.register_extractor("infobox", InfoboxExtractor())
        self.system.registry.register_extractor("tables", _tables_extractor())
        self.pipeline = self.system.streaming_pipeline()
        #: marker seq -> (wall, process CPU) clocks at each notification
        self.notified: dict[int, list[tuple[float, float]]] = {}
        self.hot_rows = 0
        self.on_marker = self._on_marker
        self.system.monitoring.register(ContinuousQuery(
            "markers", MARKER_SQL,
            callback=lambda qid, row: self.on_marker(qid, row)))
        self.system.monitoring.register(ContinuousQuery(
            "hot", HOT_SQL, callback=self._on_hot))
        self.pipeline.process(DocDelta(added=tuple(seeded)))
        self.pipeline.start()
        self.submitted = 0

    def _script(self, seeded: list[Document], count: int) -> list[DocDelta]:
        """The whole delta sequence, a pure function of the seed."""
        rng = random.Random(self.seed * 1_000_003 + 17)
        original = {d.doc_id: d for d in seeded}
        live = dict(original)
        # Every delta edits one page of each style, so every delta is the
        # same kind of work (a table page's mention sits in one big
        # entity-resolution block, an infobox page's in a small one) and
        # the tail of freshness is not a matter of which seed drew more
        # table pages.
        by_style = [[d.doc_id for d in seeded[k::len(self.STYLES)]]
                    for k in range(len(self.STYLES))]
        script = []
        for seq in range(count):
            picked = [rng.choice(pool) for pool in by_style]
            changed = []
            for doc_id in picked:
                # half the edits to an already-edited page revert it: text
                # the extraction cache has seen, so the lookup hits
                if live[doc_id] is not original[doc_id] and rng.random() < 0.5:
                    changed.append(original[doc_id])
                else:
                    changed.append(_changed_page(live[doc_id], rng))
                live[doc_id] = changed[-1]
            if seq >= self.MARKER_LIFETIME and seq % self.CITY_REMOVAL_EVERY:
                removed = f"marker_{seq - self.MARKER_LIFETIME}"
            else:  # a seeded page the delta did not edit
                pool = by_style[seq % len(by_style)]
                removed = rng.choice([d for d in pool if d not in picked])
                pool.remove(removed)
                del live[removed]
            script.append(DocDelta(added=(_marker_page(seq, rng),),
                                   changed=tuple(changed),
                                   removed=(removed,)))
        return script

    def _on_marker(self, query_id: str, row: dict[str, Any]) -> None:
        self.notified.setdefault(int(row["value_num"]), []).append(
            (perf_counter(), process_time()))

    def _on_hot(self, query_id: str, row: dict[str, Any]) -> None:
        self.hot_rows += 1

    def discard(self) -> None:
        self.pipeline.stop()
        self.system.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def run_round(self, index: int, rec: Any) -> Round:
        out = Round()
        pipeline = self.pipeline
        rec.expect_deltas(self.submitted)
        self.on_marker = rec.wrap(self._on_marker,
                                  "userlayer.monitoring.callback_s")
        written_before = pipeline.stats.fused_rows_written
        # Open loop: delta k is due at start + k / rate whether or not the
        # pipeline has kept up; freshness counts from that due time.
        first = self.submitted
        due_at: dict[int, float] = {}
        sent_at: dict[int, tuple[float, float]] = {}
        start = perf_counter() + 0.02
        for k in range(self.open_n):
            seq = first + k
            due = start + k / self.rate
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            due_at[seq] = due
            sent_at[seq] = (perf_counter(), process_time())
            rec.set_trace(f"delta-{seq}")
            self._submit(out, seq)
        pipeline.drain()
        out.sampled = (start, perf_counter())
        for seq, due in due_at.items():
            sent, sent_cpu = sent_at[seq]
            out.add("late", sent - due)
            stamps = self.notified.get(seq)
            if not stamps:
                out.failed += 1
                self.fail(f"delta {seq}: marker row never notified")
                continue
            notified, notified_cpu = stamps[0]
            out.add("freshness", notified - due)
            # The same with the hypervisor's share taken out sample by
            # sample: the generator's lateness plus the CPU time the
            # process spent from the submit to the callback, deltas queued
            # ahead included (README, "Why durations are divided ...").
            out.add("freshness_busy",
                    (sent - due) + (notified_cpu - sent_cpu))
            rec.add_root("core.streaming.queue_wait_s", f"delta-{seq}",
                         due, notified)
            rec.add_child("bench.late", f"delta-{seq}", due, sent)
        # Closed burst: back to back through the bounded queue, then drain.
        burst = perf_counter()
        for k in range(self.burst_n):
            seq = self.submitted
            rec.set_trace(f"delta-{seq}")
            self._submit(out, seq)
        pipeline.drain()
        out.timed = (burst, perf_counter())
        out.wall = out.timed[1] - burst
        out.ops = self.burst_n * self.DOCS_PER_DELTA
        out.counts["fused_rows"] = (pipeline.stats.fused_rows_written
                                    - written_before)
        return out

    def _submit(self, out: Round, seq: int) -> None:
        out.attempted += 1
        self.submitted += 1
        try:
            self.pipeline.submit(self.script[seq])
        except Exception as exc:
            out.failed += 1
            self.fail(f"delta {seq}: {type(exc).__name__}: {exc}")

    def finish(self) -> dict[str, bool]:
        self.pipeline.stop()
        stats = self.pipeline.stats
        registry = metrics.get_registry()
        return {
            "deltas_in == deltas submitted":
                stats.deltas_in == self.submitted + 1,  # + the seeding delta
            "dead-letter empty": stats.docs_deadlettered == 0
                and not self.system.deadletter.doc_ids()
                and registry.get("dge.stage_errors") == 0,
            "fused_values() == oracle_fused()":
                self.pipeline.fused_values() == self.pipeline.oracle_fused(),
            "every marker row notified exactly once":
                sorted(self.notified) == list(range(self.submitted))
                and all(len(v) == 1 for v in self.notified.values()),
        }

    def stats(self, rounds: list[Round]) -> dict[str, float]:
        fresh = pooled(rounds, "freshness")
        late = pooled(rounds, "late")
        if not fresh or not all(r.wall for r in rounds):
            return {}
        docs_per_s = rate(rounds)
        return {
            "ops_per_s": docs_per_s,
            "response_p50_ms":
                statistics.median(pooled(rounds, "freshness_busy")) * 1000.0,
            "workload.docs_per_s": docs_per_s,
            "workload.freshness_p50_ms": statistics.median(fresh) * 1000.0,
            "workload.freshness_p95_ms": percentile(fresh, 0.95) * 1000.0,
            "bench.gen_late_p50_ms": statistics.median(late) * 1000.0,
            "bench.gen_late_p95_ms": percentile(late, 0.95) * 1000.0,
            "bench.gen_late_max_ms": max(late) * 1000.0,
            "core.streaming.max_queue_depth":
                self.pipeline.stats.max_queue_depth,
        }

    def facts_written(self, rounds: list[Round]) -> int:
        return int(sum(r.counts.get("fused_rows", 0) for r in rounds))

    def sample_counts(self, rounds: list[Round]) -> dict[str, int]:
        n = len(pooled(rounds, "freshness"))
        return {"ops_per_s": sum(r.ops for r in rounds),
                "response_p50_ms": n}

    def valid(self, stats: dict[str, float]) -> bool:
        """An open-loop run whose generator ran late measured the
        generator.  Lateness is part of freshness (which counts from the
        due time), so the run is invalid when it is more than a tenth of
        it, median against median and tail against tail."""
        return (stats["bench.gen_late_p50_ms"]
                <= 0.10 * stats["workload.freshness_p50_ms"]
                and stats["bench.gen_late_p95_ms"]
                <= 0.10 * stats["workload.freshness_p95_ms"])


# --------------------------------------------------------------------------
# serve_readonly / serve_mixed
# --------------------------------------------------------------------------

QUERY_CLASSES = ("point", "pk", "range_topk", "agg")
WARMUP_QUERIES = 200


def _entity(index: int) -> str:
    return f"entity_{index:05d}"


class Serve(Workload):
    """Shared set-up: a facts table loaded from the seed, a query schedule."""

    READS_PER_SECOND = 0.0  # calibrated per subclass
    # Four reads in ten are answered by the 128-entry result cache, so the
    # median read is a point query that missed it - robustly: at s = 1.1
    # the hit rate is 0.5 and the median flips between the two modes from
    # seed to seed.
    ZIPF_S = 1.0

    def sizes(self) -> dict[str, Any]:
        entities = 100 if self.smoke else 2000
        reads = 300 if self.smoke else ROUNDS * max(
            50, round(self.seconds * self.READS_PER_SECOND / ROUNDS))
        return {"entities": entities, "attributes": 10,
                "rows": entities * 10, "reads": reads,
                "mix": f"80% point (Zipf s={self.ZIPF_S}), 5% pk, "
                       "7.5% range_topk, 7.5% agg",
                "qcache_entries": 128}

    def setup(self) -> None:
        size = self.sizes()
        self.entities = size["entities"]
        self.attributes = [f"attr_{i:02d}" for i in range(size["attributes"])]
        self.reads = size["reads"]
        rng = random.Random(self.seed)
        self.model: dict[int, dict[str, Any]] = {}
        # distinct values per attribute: ORDER BY ... LIMIT has no ties
        values = {a: rng.sample(range(100_000), self.entities)
                  for a in self.attributes}
        for e in range(self.entities):
            for a in self.attributes:
                fact_id = len(self.model)
                self.model[fact_id] = {
                    "fact_id": fact_id, "entity": _entity(e), "attribute": a,
                    "value_text": None, "value_num": values[a][e] / 100.0,
                    "confidence": rng.randrange(300, 1000) / 1000.0,
                    "doc_id": f"doc_{e % 977}",
                }
        self.schedule = self._schedule(rng, self.reads)
        warmup = self._schedule(rng, WARMUP_QUERIES)
        self.directory = self.workspace()
        self.system = StructureManagementSystem(workspace=self.directory)
        rows = list(self.model.values())
        for at in range(0, len(rows), 10_000):
            batch = rows[at:at + 10_000]
            self.system.db.run(lambda t: t.insert_many(FACTS_TABLE, batch))
        self.system.compact()
        for _, sql in warmup:
            self.system.query(sql)

    def _schedule(self, rng: random.Random, count: int) -> list[tuple[str, str]]:
        weights = [1.0 / (rank ** self.ZIPF_S)
                   for rank in range(1, self.entities + 1)]
        cumulative = list(itertools.accumulate(weights))
        by_rank = list(range(self.entities))
        rng.shuffle(by_rank)
        rows = self.entities * len(self.attributes)
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.80:
                rank = bisect.bisect_left(
                    cumulative, rng.random() * cumulative[-1])
                out.append(("point", self._point_sql(by_rank[rank])))
            elif roll < 0.85:
                out.append(("pk",
                            "SELECT entity, attribute, value_num FROM facts "
                            f"WHERE fact_id = {rng.randrange(rows)}"))
            elif roll < 0.925:
                out.append(("range_topk",
                            "SELECT entity, value_num FROM facts "
                            f"WHERE attribute = '{rng.choice(self.attributes)}'"
                            f" AND value_num > {rng.randrange(0, 900)} "
                            "ORDER BY value_num DESC LIMIT 10"))
            else:
                out.append(("agg",
                            "SELECT attribute, COUNT(*) AS n, "
                            "AVG(value_num) AS a FROM facts "
                            f"WHERE confidence > {rng.randrange(30, 95) / 100}"
                            " GROUP BY attribute"))
        return out

    @staticmethod
    def _point_sql(entity_index: int) -> str:
        return ("SELECT fact_id, attribute, value_num FROM facts "
                f"WHERE entity = '{_entity(entity_index)}'")

    def discard(self) -> None:
        self.system.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _read(self, out: Round, rec: Any, index: int) -> list[dict] | None:
        """One timed read of the schedule; None when it failed."""
        cls, sql = self.schedule[index]
        with rec.root("bench.op", f"q-{index}"):
            called = perf_counter()
            try:
                rows = self.system.query(sql)
            except Exception as exc:
                rows = None
                self.fail(f"read {index}: {type(exc).__name__}: {exc}")
            taken = perf_counter() - called
        out.add("read", taken)
        out.add(cls, taken)
        return rows

    def read_stats(self, rounds: list[Round]) -> dict[str, float]:
        reads = pooled(rounds, "read")
        if not reads or not all(r.wall for r in rounds):
            return {}
        qps = rate(rounds)
        p50 = statistics.median(reads) * 1000.0
        p95 = percentile(reads, 0.95) * 1000.0
        out = {
            "ops_per_s": qps, "response_p50_ms": p50,
            "workload.queries_per_s": qps, "workload.query_p50_ms": p50,
            "workload.query_p95_ms": p95,
        }
        for cls in QUERY_CLASSES:
            samples = pooled(rounds, cls)
            out[f"core.system.query.{cls}.n"] = len(samples)
            out[f"core.system.query.{cls}_p50_ms"] = (
                statistics.median(samples) * 1000.0 if samples else 0.0)
        return out

    def facts_written(self, rounds: list[Round]) -> int:
        return 0

    def sample_counts(self, rounds: list[Round]) -> dict[str, int]:
        n = len(pooled(rounds, "read"))
        return {"ops_per_s": n, "response_p50_ms": n}


def _same_rows(got: list[dict], want: list[dict], ordered: bool) -> bool:
    """Row-for-row equality; floats may differ in the last bits because the
    vectorized and the naive aggregate sum in different orders."""
    if len(got) != len(want):
        return False
    if not ordered:
        key = lambda row: repr(sorted(  # noqa: E731
            (k, round(v, 6) if isinstance(v, float) else v)
            for k, v in row.items()))
        got, want = sorted(got, key=key), sorted(want, key=key)
    for a, b in zip(got, want):
        if a.keys() != b.keys():
            return False
        for column, value in a.items():
            other = b[column]
            if isinstance(value, float) and isinstance(other, float):
                if abs(value - other) > 1e-9 * max(1.0, abs(other)):
                    return False
            elif value != other:
                return False
    return True


class ServeReadonly(Serve):
    name = "serve_readonly"
    CLIENTS = 2
    READS_PER_SECOND = 400.0
    ORACLE_EVERY = 400

    def setup(self) -> None:
        super().setup()
        #: read index -> rows it returned, for finish() to check
        self.kept: dict[int, list[dict]] = {}

    def run_round(self, index: int, rec: Any) -> Round:
        out = Round()
        per_round = self.reads // ROUNDS
        first = index * per_round
        returned = [0] * self.CLIENTS
        failed = [0] * self.CLIENTS  # one slot per thread: no shared counter

        def client(slot: int) -> None:
            for i in range(first + slot, first + per_round, self.CLIENTS):
                rows = self._read(out, rec, i)
                if rows is None:
                    failed[slot] += 1
                    continue
                returned[slot] += len(rows)
                if i % self.ORACLE_EVERY == 0:
                    self.kept[i] = rows

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(self.CLIENTS)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.timed = (started, perf_counter())
        out.wall = out.timed[1] - started
        out.ops = out.attempted = per_round
        out.failed = sum(failed)
        out.counts["rows_returned"] = sum(returned)
        return out

    def finish(self) -> dict[str, bool]:
        """Every ``ORACLE_EVERY``-th read again through the naive interpreter
        (the table has not changed, so this can wait until the clock has
        stopped)."""
        wrong = 0
        for i, rows in self.kept.items():
            sql = self.schedule[i][1]
            want = execute_sql(self.system.db, sql, use_planner=False)
            if not _same_rows(rows, want, ordered="ORDER BY" in sql):
                wrong += 1
                self.fail(f"read {i} differs from the naive interpreter: "
                          f"{sql}")
        return {f"{len(self.kept)} sampled reads equal the naive "
                "interpreter": wrong == 0}

    def stats(self, rounds: list[Round]) -> dict[str, float]:
        return self.read_stats(rounds)


class ServeMixed(Serve):
    name = "serve_mixed"
    COMMITS_PER_COMPACT = 5
    # Two whole melt -> refreeze cycles in every round, so the three rounds
    # see the same sequence of table states.
    COMMITS_PER_ROUND = 2 * COMMITS_PER_COMPACT
    PROBE_ENTITY = 0

    def sizes(self) -> dict[str, Any]:
        size = super().sizes()
        # ~100 reads/s with a commit every 70 on the calibration tree
        per_commit = 10 if self.smoke else max(10, round(self.seconds * 3.5))
        commits = ROUNDS * self.COMMITS_PER_ROUND
        size.update(reads=commits * per_commit, reads_per_commit=per_commit,
                    commits=commits,
                    commits_per_compact=self.COMMITS_PER_COMPACT)
        return size

    def setup(self) -> None:
        super().setup()
        self.reads_per_commit = self.sizes()["reads_per_commit"]
        self.probe_sql = self._point_sql(self.PROBE_ENTITY)
        self.next_fact_id = len(self.model)
        self.commits = 0
        self.rng = random.Random(self.seed + 99)

    def _write(self) -> str:
        """The next single-row statement, applied to the model first.

        INSERT adds a row about the probe entity, UPDATE and DELETE hit
        one of its frozen rows (melting the segment they sit in), so the
        probe read that follows must show the change.
        """
        probe = _entity(self.PROBE_ENTITY)
        mine = sorted(fid for fid, row in self.model.items()
                      if row["entity"] == probe)
        kind = ("insert", "update", "delete")[self.commits % 3]
        if kind == "insert" or len(mine) < 4:
            fid = self.next_fact_id
            self.next_fact_id += 1
            value = self.rng.randrange(100_000) / 100.0
            self.model[fid] = {
                "fact_id": fid, "entity": probe,
                "attribute": f"extra_{fid}", "value_text": None,
                "value_num": value, "confidence": 0.5, "doc_id": "writer",
            }
            return (f"INSERT INTO {FACTS_TABLE} (fact_id, entity, attribute, "
                    f"value_num, confidence, doc_id) VALUES ({fid}, "
                    f"'{probe}', 'extra_{fid}', {value}, 0.5, 'writer')")
        if kind == "update":
            fid = mine[len(mine) // 2]
            value = self.rng.randrange(100_000) / 100.0
            self.model[fid]["value_num"] = value
            return (f"UPDATE {FACTS_TABLE} SET value_num = {value} "
                    f"WHERE fact_id = {fid}")
        fid = mine[0]
        del self.model[fid]
        return f"DELETE FROM {FACTS_TABLE} WHERE fact_id = {fid}"

    def _probe_expected(self) -> list[dict[str, Any]]:
        probe = _entity(self.PROBE_ENTITY)
        return [{"fact_id": fid, "attribute": row["attribute"],
                 "value_num": row["value_num"]}
                for fid, row in sorted(self.model.items())
                if row["entity"] == probe]

    def run_round(self, index: int, rec: Any) -> Round:
        out = Round()
        per_round = self.reads // ROUNDS
        first = index * per_round
        # commit k of the run is due once k*R + R/2 reads have completed
        half = self.reads_per_commit // 2
        triggers = [t for t in range(half, self.reads, self.reads_per_commit)
                    if first <= t < first + per_round]
        progress = threading.Condition()
        done = [first]
        returned = [0]
        failed_reads = [0]  # the writer thread owns out.failed meanwhile

        def reader() -> None:
            for i in range(first, first + per_round):
                rows = self._read(out, rec, i)
                if rows is None:
                    failed_reads[0] += 1
                else:
                    returned[0] += len(rows)
                with progress:
                    done[0] = i + 1
                    progress.notify()

        def writer() -> None:
            for trigger in triggers:
                with progress:
                    progress.wait_for(lambda: done[0] >= trigger)
                self._commit(out, rec)

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        threads[0].join()
        # the reader's round; the writer's last step may run on
        out.timed = (started, perf_counter())
        out.wall = out.timed[1] - started
        threads[1].join()
        out.ops = per_round
        out.attempted += per_round
        out.failed += failed_reads[0]
        out.counts["rows_returned"] = returned[0]
        return out

    def _commit(self, out: Round, rec: Any) -> None:
        """One write, the probe read right behind it, maybe a compaction."""
        number = self.commits
        sql = self._write()
        self.commits += 1
        out.attempted += 2
        with rec.root("bench.op", f"write-{number}"):
            called = perf_counter()
            try:
                self.system.query(sql)
            except Exception as exc:
                out.failed += 1
                self.fail(f"write {number}: {type(exc).__name__}: {exc}")
            out.add("write", perf_counter() - called)
        with rec.root("bench.op", f"probe-{number}"):
            called = perf_counter()
            try:
                rows = self.system.query(self.probe_sql)
            except Exception as exc:
                rows = None
                self.fail(f"probe {number}: {type(exc).__name__}: {exc}")
            out.add("probe", perf_counter() - called)
        want = self._probe_expected()
        if rows is None or not _same_rows(rows, want, ordered=False):
            out.failed += 1
            self.fail(f"probe {number} does not show its commit: {sql}")
        if self.commits % self.COMMITS_PER_COMPACT == 0:
            out.attempted += 1
            with rec.root("bench.op", f"compact-{number}"):
                try:
                    self.system.compact()
                except Exception as exc:
                    out.failed += 1
                    self.fail(f"compact {number}: {type(exc).__name__}: {exc}")

    def finish(self) -> dict[str, bool]:
        table = {row["fact_id"]: row for row in
                 self.system.query(f"SELECT * FROM {FACTS_TABLE}")}
        return {
            "final table equals a plain-dict replay of the write script":
                table == self.model,
            "every probe read saw its commit": not any(
                "does not show its commit" in e for e in self.errors),
        }

    def stats(self, rounds: list[Round]) -> dict[str, float]:
        out = self.read_stats(rounds)
        probes, writes = pooled(rounds, "probe"), pooled(rounds, "write")
        if out and probes:
            out["workload.read_after_commit_p50_ms"] = (
                statistics.median(probes) * 1000.0)
            out["workload.write_p50_ms"] = statistics.median(writes) * 1000.0
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (BatchGenerate, StreamChurn, ServeReadonly, ServeMixed)
}
