"""Tests for the command-line interface (full workflow over a workspace)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus


@pytest.fixture
def pages_dir(tmp_path):
    pages = tmp_path / "pages"
    pages.mkdir()
    (pages / "madison.txt").write_text(
        "{{Infobox city | name = Madison | sep_temp = 70 | population = 233209 }}\n"
        "'''Madison''' is the capital of [[Wisconsin]].\n"
    )
    (pages / "austin.txt").write_text(
        "{{Infobox city | name = Austin | sep_temp = 85 | population = 950000 }}\n"
        "'''Austin''' is in [[Texas]].\n"
    )
    return str(pages)


@pytest.fixture
def workspace(tmp_path):
    return str(tmp_path / "ws")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ingest_generate_sql_roundtrip(capsys, pages_dir, workspace, tmp_path):
    code, out = _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    assert code == 0 and "ingested 2 pages" in out

    program = tmp_path / "extract.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    code, out = _run(capsys, "--workspace", workspace, "generate",
                     str(program))
    assert code == 0 and "stored" in out

    code, out = _run(capsys, "--workspace", workspace, "sql",
                     "SELECT entity, value_num FROM facts "
                     "WHERE attribute = 'sep_temp' ORDER BY value_num")
    assert code == 0
    assert "Madison" in out and "Austin" in out
    assert out.index("Madison") < out.index("Austin")  # ordered by temp


def test_search_and_suggest(capsys, pages_dir, workspace, tmp_path):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    _run(capsys, "--workspace", workspace, "generate", str(program))

    code, out = _run(capsys, "--workspace", workspace, "search",
                     "Madison capital")
    assert code == 0 and "madison" in out

    code, out = _run(capsys, "--workspace", workspace, "suggest",
                     "average sep_temp Madison")
    assert code == 0
    assert "AVG(value_num)" in out and "Madison" in out


def test_explain_and_facts(capsys, pages_dir, workspace, tmp_path):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    _run(capsys, "--workspace", workspace, "generate", str(program))

    code, out = _run(capsys, "--workspace", workspace, "explain",
                     "Madison", "sep_temp")
    assert code == 0 and "[span]" in out

    code, out = _run(capsys, "--workspace", workspace, "facts", "--limit", "3")
    assert code == 0 and "entity" in out


def test_generate_explain_mode(capsys, pages_dir, workspace, tmp_path):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    code, out = _run(capsys, "--workspace", workspace, "generate",
                     str(program), "--explain")
    assert code == 0
    assert "-- naive plan" in out and "-- optimized plan" in out


def test_reingest_versions_snapshots(capsys, pages_dir, workspace):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    # edit a page and re-ingest: the diff store should version it
    with open(os.path.join(pages_dir, "madison.txt"), "a",
              encoding="utf-8") as f:
        f.write("A new paragraph appeared today.\n")
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    from repro.storage.snapshots import SnapshotStore
    store = SnapshotStore(os.path.join(workspace, "raw"))
    assert store.latest_version("madison") == 1
    assert "new paragraph" in store.checkout("madison").text
    assert "new paragraph" not in store.checkout("madison", 0).text


def test_read_commands_commit_no_snapshot_versions(
        capsys, pages_dir, workspace, tmp_path):
    from repro.storage.snapshots import SnapshotStore
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    code, first = _run(capsys, "--workspace", workspace, "search", "capital")
    assert code == 0 and "madison" in first
    code, second = _run(capsys, "--workspace", workspace, "search", "capital")
    assert code == 0 and second == first
    code, out = _run(capsys, "--workspace", workspace, "generate",
                     _program_file(tmp_path))
    assert code == 0 and "stored" in out
    store = SnapshotStore(os.path.join(workspace, "raw"))
    assert {d: store.latest_version(d) for d in store.doc_ids()} == {
        "madison": 0, "austin": 0}


# --------------------------------------------------------- fault tolerance


def _program_file(tmp_path):
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    return str(program)


def test_generate_quarantines_and_deadletter_roundtrip(
        capsys, pages_dir, workspace, tmp_path, monkeypatch):
    from repro.extraction.infobox import InfoboxExtractor

    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = _program_file(tmp_path)

    original = InfoboxExtractor.extract

    def poisoned(self, doc):
        if doc.doc_id == "madison":
            raise RuntimeError("synthetic poison")
        return original(self, doc)

    monkeypatch.setattr(InfoboxExtractor, "extract", poisoned)
    code, out = _run(capsys, "--workspace", workspace, "generate", program)
    assert code == 0
    assert "quarantined 1 document(s)" in out

    code, out = _run(capsys, "--workspace", workspace, "deadletter", "list")
    assert code == 0 and "madison" in out and "RuntimeError" in out

    # the document "heals" (extractor fixed); retry re-drives it
    monkeypatch.setattr(InfoboxExtractor, "extract", original)
    code, out = _run(capsys, "--workspace", workspace, "deadletter",
                     "retry", "--program", program)
    assert code == 0
    assert "retried 1 document(s); 1 recovered, 0 still quarantined" in out

    code, out = _run(capsys, "--workspace", workspace, "deadletter", "list")
    assert "dead-letter store is empty" in out


def test_deadletter_retry_requires_program(capsys, workspace):
    code = main(["--workspace", workspace, "deadletter", "retry"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--program" in captured.err


def test_deadletter_clear(capsys, pages_dir, workspace, tmp_path,
                          monkeypatch):
    from repro.extraction.infobox import InfoboxExtractor

    _run(capsys, "--workspace", workspace, "ingest", pages_dir)

    def boom(self, doc):
        raise RuntimeError("always")

    monkeypatch.setattr(InfoboxExtractor, "extract", boom)
    _run(capsys, "--workspace", workspace, "generate",
         _program_file(tmp_path))
    code, out = _run(capsys, "--workspace", workspace, "deadletter", "clear")
    assert code == 0 and "cleared 2 dead-letter entries" in out


def test_fail_fast_exits_with_execution_failure_code(
        capsys, pages_dir, workspace, tmp_path, monkeypatch):
    from repro.cli import EXIT_EXECUTION_FAILURE
    from repro.extraction.infobox import InfoboxExtractor

    _run(capsys, "--workspace", workspace, "ingest", pages_dir)

    def boom(self, doc):
        raise RuntimeError("poison page")

    monkeypatch.setattr(InfoboxExtractor, "extract", boom)
    code = main(["--workspace", workspace, "--backend", "serial",
                 "--fail-fast", "generate", _program_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_EXECUTION_FAILURE == 3
    assert "repro: execution failed:" in captured.err


def test_explain_sql_plan(capsys, pages_dir, workspace, tmp_path):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    _run(capsys, "--workspace", workspace, "generate", str(program))

    # one argument: SQL query-plan form (EXPLAIN prefix added if missing)
    code, out = _run(capsys, "--workspace", workspace, "explain",
                     "SELECT entity FROM facts WHERE attribute = 'sep_temp'")
    assert code == 0
    assert "Project(entity)" in out
    assert "IndexLookup(facts.attribute = 'sep_temp' via hash index)" in out

    code, out = _run(capsys, "--workspace", workspace, "explain",
                     "EXPLAIN SELECT entity FROM facts LIMIT 2")
    assert code == 0 and "FullScan(facts)" in out

    # three arguments is neither form
    code, _ = _run(capsys, "--workspace", workspace, "explain",
                   "a", "b", "c")
    assert code == 2


def _generated(capsys, pages_dir, workspace, tmp_path, *flags):
    _run(capsys, "--workspace", workspace, "ingest", pages_dir)
    program = tmp_path / "p.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    code, out = _run(capsys, "--workspace", workspace, *flags, "generate",
                     str(program))
    assert code == 0
    return out


def test_compact_default_table_and_unknown_table(capsys, pages_dir,
                                                 workspace, tmp_path):
    _generated(capsys, pages_dir, workspace, tmp_path)
    code, out = _run(capsys, "--workspace", workspace, "compact")
    assert code == 0
    assert out.startswith("compacted facts: ")
    assert "new segment(s);" in out and "segment(s) total" in out
    code, out = _run(capsys, "--workspace", workspace, "compact")
    assert code == 0 and ": 0 rows frozen into 0 new segment(s)" in out

    code = main(["--workspace", workspace, "compact", "nosuch"])
    assert code == 2
    assert "unknown table 'nosuch'" in capsys.readouterr().err


def test_cache_stats_and_clear(capsys, pages_dir, workspace, tmp_path):
    cache = str(tmp_path / "cache")
    _generated(capsys, pages_dir, workspace, tmp_path, "--cache", cache)
    code, out = _run(capsys, "--workspace", workspace, "--cache", cache,
                     "cache", "stats")
    assert code == 0
    stats = dict(line.split(None, 1) for line in out.splitlines())
    assert {"kind", "root", "entries", "segments", "disk_bytes"} <= set(stats)
    assert int(stats["entries"]) == 2  # one per page

    code, out = _run(capsys, "--workspace", workspace, "--cache", cache,
                     "cache", "clear")
    assert code == 0 and out.strip() == f"cleared 2 cached entries under {cache}"
    code, out = _run(capsys, "--workspace", workspace, "--cache", cache,
                     "cache", "stats")
    assert code == 0
    assert dict(line.split(None, 1) for line in out.splitlines())[
        "entries"] == "0"


@pytest.mark.parametrize("action", ["stats", "clear"])
def test_cache_commands_on_a_missing_directory_create_nothing(
        capsys, workspace, action):
    code, out = _run(capsys, "--workspace", workspace, "cache", action)
    assert code == 0 and "0 entries" in out
    assert not os.path.exists(workspace)


@pytest.mark.parametrize("lines_read, limit", [(3, 100_000), (0, 2)])
def test_sql_into_a_reader_that_closes_early_exits_quietly(
        capsys, tmp_path, lines_read, limit):
    """``repro sql ... | head -3``: the reader takes three lines and closes
    the pipe while a table larger than the pipe holds is being written —
    or closes it before a short table is written at all."""
    pages = tmp_path / "pages"
    pages.mkdir()
    corpus, _ = generate_city_corpus(CityCorpusConfig(
        num_cities=100, seed=3, styles=("infobox",)))
    for doc in corpus:
        (pages / f"{doc.doc_id}.txt").write_text(doc.text)
    workspace = str(tmp_path / "ws")
    program = tmp_path / "extract.xlog"
    program.write_text('p = docs()\nf = extract(p, "infobox")\noutput f\n')
    assert main(["--workspace", workspace, "ingest", str(pages)]) == 0
    assert main(["--workspace", workspace, "generate", str(program)]) == 0
    capsys.readouterr()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--workspace", workspace, "sql",
         "SELECT * FROM facts", "--limit", str(limit)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        head = [child.stdout.readline() for _ in range(lines_read)]
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stderr.close()
    assert all(line.endswith(b"\n") for line in head)
    assert err == b""


@pytest.mark.parametrize("sql", [
    "SELECT * FROM nosuch", "INSERT INTO nosuch (a) VALUES (1)",
    "UPDATE nosuch SET a = 1", "DELETE FROM nosuch WHERE a = 1"])
def test_sql_on_an_unknown_table_fails_as_a_query(capsys, workspace, sql):
    code = main(["--workspace", workspace, "sql", sql])
    assert code == 3
    assert capsys.readouterr().err == \
        "repro: query failed: unknown table 'nosuch'\n"
