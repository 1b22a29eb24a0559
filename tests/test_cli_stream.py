"""End-to-end tests for the ``repro stream`` CLI command."""

import os

import pytest

from repro import cli
from repro.cli import main
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.corpus import DirectoryCorpus
from repro.docmodel.document import Document
from repro.storage.snapshots import SnapshotStore


@pytest.fixture
def workspace(tmp_path):
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=5, seed=91, styles=("infobox",)))
    pages = tmp_path / "pages"
    pages.mkdir()
    for document in corpus:
        (pages / f"{document.doc_id}.txt").write_text(document.text)
    ws = str(tmp_path / "ws")
    assert main(["--workspace", ws, "ingest", str(pages)]) == 0
    return ws, pages, truth


def test_stream_seeds_and_notifies(workspace, capsys):
    ws, _, truth = workspace
    capsys.readouterr()
    code = main(["--workspace", ws, "stream", "--query",
                 "SELECT entity, value_num FROM fused_facts "
                 "WHERE attribute = 'sep_temp'"])
    out = capsys.readouterr().out
    assert code == 0
    seed_lines = [l for l in out.splitlines() if l.startswith("seed: ")]
    assert len(seed_lines) == 1
    assert f"+{len(truth)} ~0 -0 doc(s)" in seed_lines[0]
    assert "[stream-0]" in out  # the standing query fired on fused rows
    assert "sep_temp" not in out or "value_num" in out


def test_stream_is_repeatable_across_invocations(workspace, capsys):
    ws, _, _ = workspace
    main(["--workspace", ws, "stream"])
    first = capsys.readouterr().out
    # each invocation cold-starts: same corpus -> same seed summary
    main(["--workspace", ws, "stream"])
    second = capsys.readouterr().out
    assert first == second
    assert "seed: " in first


def test_stream_empty_workspace(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    empty = tmp_path / "pages"
    empty.mkdir()
    assert main(["--workspace", ws, "ingest", str(empty)]) == 0
    capsys.readouterr()
    assert main(["--workspace", ws, "stream"]) == 0
    assert "corpus empty; nothing to stream" in capsys.readouterr().out


def test_stream_follow_polls_quietly_when_unchanged(workspace, capsys):
    ws, _, _ = workspace
    capsys.readouterr()
    code = main(["--workspace", ws, "stream", "--follow",
                 "--rounds", "3", "--interval", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    # round 0 seeds; rounds 1-2 see an unchanged corpus and stay silent
    assert sum(l.startswith("seed: ") for l in out.splitlines()) == 1
    assert "delta: " not in out


def test_stream_follow_processes_only_what_the_store_wrote(
        workspace, capsys, monkeypatch):
    """Between polls another handle re-ingests the unchanged pages (0 docs
    to process), then edits one page (exactly 1)."""
    ws, pages, truth = workspace
    capsys.readouterr()
    corpus = sorted(DirectoryCorpus(str(pages)), key=lambda d: d.doc_id)
    edited = Document(corpus[0].doc_id, corpus[0].text + "An edit.\n")
    writes = iter([corpus, [edited]])

    def between_polls(seconds):
        store = SnapshotStore(os.path.join(ws, "raw"))
        for doc in next(writes):
            store.commit(doc)

    monkeypatch.setattr(cli.time, "sleep", between_polls)
    code = main(["--workspace", ws, "stream", "--follow", "--rounds", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rounds = [l.split(" doc(s)")[0] for l in out.splitlines()
              if l.startswith(("seed: ", "delta: "))]
    assert rounds == [f"seed: +{len(truth)} ~0 -0", "delta: +0 ~1 -0"]
