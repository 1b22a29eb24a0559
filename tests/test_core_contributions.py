"""Tests for user contributions and system-level attribute unification."""

import pytest

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import RangeConstraint
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.normalize import MONTHS


@pytest.fixture
def system():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=8, seed=88)
    )
    sys_ = StructureManagementSystem()
    sys_.registry.register_extractor("infobox", InfoboxExtractor())
    sys_.ingest(corpus)
    sys_.generate('p = docs()\nf = extract(p, "infobox")\noutput f')
    return sys_, truth


def test_contribute_requires_registered_user(system):
    sys_, _ = system
    with pytest.raises(ValueError):
        sys_.contribute("ghost", "Madison", "nickname", "Mad City")


def test_contribution_is_stored_and_queryable(system):
    sys_, _ = system
    sys_.users.register("alice", "pw")
    sys_.contribute("alice", "Madison", "nickname", "Mad City")
    rows = sys_.query(
        f"SELECT value_text, confidence, doc_id FROM {FACTS_TABLE} "
        "WHERE entity = 'Madison' AND attribute = 'nickname'"
    )
    assert rows[0]["value_text"] == "Mad City"
    assert rows[0]["doc_id"] == "user:alice"
    assert rows[0]["confidence"] == pytest.approx(0.75)  # fresh reputation


def test_contribution_confidence_tracks_reputation(system):
    sys_, _ = system
    sys_.users.register("veteran", "pw")
    for _ in range(20):
        sys_.users.reputation.record_gold("veteran", True)
    sys_.contribute("veteran", "Madison", "motto", "Forward")
    rows = sys_.query(
        f"SELECT confidence FROM {FACTS_TABLE} WHERE attribute = 'motto'"
    )
    assert rows[0]["confidence"] > 0.9


def test_contribution_screened_by_debugger(system):
    sys_, _ = system
    sys_.debugger.add_constraint(RangeConstraint("sep_temp", -80.0, 130.0))
    sys_.users.register("sloppy", "pw")
    sys_.contribute("sloppy", "Madison", "sep_temp", 500.0)
    rows = sys_.query(
        f"SELECT confidence FROM {FACTS_TABLE} "
        "WHERE doc_id = 'user:sloppy'"
    )
    assert rows[0]["confidence"] < 0.5  # halved by the violation
    assert any("500" in a.message for a in sys_.debugger.alerts)


def test_contribution_has_feedback_provenance(system):
    sys_, _ = system
    sys_.users.register("bob", "pw")
    sys_.contribute("bob", "Madison", "nickname", "Mad City")
    explanation = sys_.explain("Madison", "nickname")
    assert "[feedback]" in explanation
    assert "bob" in explanation


def test_contribution_searchable(system):
    sys_, _ = system
    sys_.users.register("carol", "pw")
    sys_.contribute("carol", "Madison", "nickname", "Mad City")
    facts = sys_.keyword_facts("Mad City nickname")
    assert any(f["attribute"] == "nickname" for f in facts)


def test_unify_attributes_folds_long_names(system):
    sys_, truth = system
    short = [f"{m[:3]}_temp" for m in MONTHS]
    long = [f"{m}_temperature" for m in MONTHS]
    before = sys_.query(
        f"SELECT COUNT(*) AS n FROM {FACTS_TABLE} "
        f"WHERE attribute = 'september_temperature'"
    )[0]["n"]
    assert before > 0  # the corpus contains infobox_long pages
    results = sys_.unify_attributes(long, short)
    assert len(results) == 12
    for left, right, rewritten in results:
        assert left.split("_")[0][:3] == right.split("_")[0]
        assert rewritten > 0
    after = sys_.query(
        f"SELECT COUNT(*) AS n FROM {FACTS_TABLE} "
        f"WHERE attribute = 'september_temperature'"
    )[0]["n"]
    assert after == 0


def test_unify_attributes_no_samples_is_noop(system):
    sys_, _ = system
    assert sys_.unify_attributes(["ghost_attr"], ["sep_temp"]) == []


def test_unify_attributes_handles_quoted_names(system):
    # Regression: attribute names containing a single quote used to break
    # the interpolated UPDATE statement.  The rewrite is now parameterized.
    sys_, _ = system
    sys_.users.register("pat", "pw")
    for value in (6.0, 7.0, 8.0):
        sys_.contribute("pat", "Madison", "o'clock_temp", value)
        sys_.contribute("pat", "Madison", "oclock_temperature", value)
    results = sys_.unify_attributes(["o'clock_temp"], ["oclock_temperature"])
    assert results == [("o'clock_temp", "oclock_temperature", 3)]
    remaining = sys_.query(
        f"SELECT attribute FROM {FACTS_TABLE}"
    )
    names = {r["attribute"] for r in remaining}
    assert "o'clock_temp" not in names
    assert "oclock_temperature" in names


def test_unify_attributes_reindexes_the_facts_it_rewrote(tmp_path):
    # Regression: the keyword index kept describing rows under the
    # attribute name ``facts`` no longer contained.
    workspace = str(tmp_path / "ws")
    sys_ = StructureManagementSystem(workspace=workspace)
    sys_.users.register("pat", "pw")
    for n, city in enumerate(("Ames", "Bend", "Cody")):
        sys_.contribute("pat", city, "july_temperature", 70.0 + n)
        sys_.contribute("pat", city, "jul_temp", 70.5 + n)
    assert len(sys_.keyword_facts("july_temperature", k=10)) == 3
    assert sys_.unify_attributes(["july_temperature"], ["jul_temp"]) == \
        [("july_temperature", "jul_temp", 3)]

    def check(system):
        assert system.keyword_facts("july_temperature", k=10) == []
        hits = system.keyword_facts("jul_temp", k=10)
        assert sorted((h["entity"], h["value"]) for h in hits) == [
            ("Ames", 70.0), ("Ames", 70.5), ("Bend", 71.0), ("Bend", 71.5),
            ("Cody", 72.0), ("Cody", 72.5)]
        assert {h["attribute"] for h in hits} == {"jul_temp"}

    check(sys_)
    sys_.close()
    reopened = StructureManagementSystem(workspace=workspace)
    check(reopened)       # an index built on first use reads ``facts``
    reopened.close()


@pytest.mark.parametrize("with_workspace", [False, True])
def test_explain_follows_a_fact_renamed_by_unify_attributes(
        tmp_path, with_workspace):
    sys_ = StructureManagementSystem(
        workspace=str(tmp_path / "ws") if with_workspace else None)
    sys_.users.register("pat", "pw")
    for n, town in enumerate(("Town1", "Town2", "Town3")):
        sys_.contribute("pat", town, "july_temperature", 70.0 + n)
        sys_.contribute("pat", town, "jul_temp", 70.5 + n)
    before = sys_.explain("Town1", "july_temperature")
    assert before.startswith("[fact] Town1.july_temperature = 70.0")
    sys_.unify_attributes(["july_temperature"], ["jul_temp"])
    # the renamed fact explains under its stored name, next to the fact
    # that was there all along; the old name explains nothing
    after = sys_.explain("Town1", "jul_temp")
    assert after.count("[fact] Town1.jul_temp = ") == 2
    assert before.replace("july_temperature", "jul_temp") in after
    assert sys_.explain("Town1", "july_temperature").startswith(
        "no recorded provenance")
    sys_.close()


def test_keyword_facts_drops_deleted_facts_and_reports_stored_ones(system):
    sys_, _ = system
    sys_.users.register("pat", "pw")
    sys_.contribute("pat", "Town1", "nickname", "Old Town")
    sys_.contribute("pat", "Town2", "nickname", "Old Harbor")
    assert len(sys_.keyword_facts("Old nickname", k=5)) == 2
    sys_.query(f"DELETE FROM {FACTS_TABLE} WHERE entity = 'Town1'")
    sys_.query(f"UPDATE {FACTS_TABLE} SET value_text = 'New Harbor' "
               "WHERE entity = 'Town2'")
    assert sys_.keyword_facts("Old nickname", k=5) == [
        {"entity": "Town2", "attribute": "nickname", "value": "New Harbor"}]
    assert sys_.keyword_facts("Town1", k=5) == []
