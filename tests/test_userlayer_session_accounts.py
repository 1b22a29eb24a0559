"""Tests for exploration sessions and user accounts."""

import pytest

from repro.docmodel.document import Document
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.snapshots import SnapshotStore
from repro.userlayer.accounts import AuthenticationError, UserManager
from repro.userlayer.search import KeywordSearchEngine
from repro.userlayer.session import ExplorationSession
from repro.userlayer.translate import QueryTranslator


@pytest.fixture
def session():
    db = Database()
    execute_sql(db, "CREATE TABLE facts (entity TEXT, attribute TEXT, "
                    "value_num FLOAT)")
    execute_sql(db, "INSERT INTO facts (entity, attribute, value_num) VALUES "
                    "('Madison', 'sep_temp', 70.0), "
                    "('Madison', 'population', 233209.0), "
                    "('Chicago', 'sep_temp', 65.0)")
    pages = SnapshotStore(None)
    for doc in (Document("d1", "Madison temperature page"),
                Document("d2", "Chicago transit page")):
        pages.commit(doc)
    search = KeywordSearchEngine(pages)
    translator = QueryTranslator(
        table="facts", entity_column="entity",
        attributes=["sep_temp", "population"],
        entities=["Madison", "Chicago"],
        attribute_column="attribute", value_column="value_num",
    )
    return ExplorationSession(
        search=search, translator=translator, user="tester",
        query=lambda sql, deadline_seconds=None: execute_sql(db, sql))


def test_keyword_mode(session):
    results = session.keyword("madison temperature")
    assert results[0].doc_id == "d1"
    assert session.history[-1].mode == "keyword"


def test_suggest_then_choose(session):
    candidates = session.suggest("average sep_temp Madison")
    assert candidates
    rows = session.choose(0)
    assert rows[0]["result"] == 70.0
    modes = [s.mode for s in session.history]
    assert modes == ["suggest", "structured"]


def test_choose_without_suggest_raises(session):
    with pytest.raises(RuntimeError):
        session.choose(0)


def test_structured_and_refine(session):
    rows = session.structured("SELECT entity, value_num FROM facts "
                              "WHERE attribute = 'sep_temp'")
    assert len(rows) == 2
    refined = session.refine("value_num >= 68")
    assert len(refined) == 1 and refined[0]["entity"] == "Madison"


def test_refine_without_query_raises(session):
    with pytest.raises(RuntimeError):
        session.refine("x = 1")


def test_refine_preserves_trailing_clauses(session):
    session.structured("SELECT entity, value_num FROM facts "
                       "WHERE attribute = 'sep_temp' ORDER BY value_num LIMIT 5")
    refined = session.refine("value_num < 68")
    assert [r["entity"] for r in refined] == ["Chicago"]


def test_browse_mode(session):
    rows = session.browse("facts", limit=2)
    assert len(rows) == 2
    assert session.history[-1].mode == "browse"


def test_transcript_renders_history(session):
    session.keyword("madison")
    session.structured("SELECT COUNT(*) AS n FROM facts")
    text = session.transcript()
    assert "tester" in text
    assert "[keyword]" in text and "[structured]" in text


# ------------------------------------------------------------------ accounts


def test_register_login_whoami():
    users = UserManager()
    users.register("alice", "s3cret", role="sophisticated")
    token = users.login("alice", "s3cret")
    assert users.whoami(token).username == "alice"
    users.logout(token)
    with pytest.raises(AuthenticationError):
        users.whoami(token)


def test_bad_credentials():
    users = UserManager()
    users.register("bob", "pw")
    with pytest.raises(AuthenticationError):
        users.login("bob", "wrong")
    with pytest.raises(AuthenticationError):
        users.login("ghost", "pw")


def test_duplicate_username_and_bad_role():
    users = UserManager()
    users.register("carol", "pw")
    with pytest.raises(ValueError):
        users.register("carol", "pw2")
    with pytest.raises(ValueError):
        users.register("dave", "pw", role="superuser")


def test_role_gating():
    users = UserManager()
    users.register("ordinary_joe", "pw", role="ordinary")
    token = users.login("ordinary_joe", "pw")
    with pytest.raises(AuthenticationError):
        users.require_role(token, "admin", "sophisticated")
    account = users.require_role(token, "ordinary")
    assert account.username == "ordinary_joe"


def test_password_hashes_are_salted():
    users = UserManager()
    a = users.register("u1", "same-password")
    b = users.register("u2", "same-password")
    assert a.password_hash != b.password_hash


def test_reputation_integration():
    users = UserManager()
    users.register("worker", "pw")
    assert users.user_reputation("worker") == 0.5
    users.reputation.record_gold("worker", True)
    users.reputation.record_gold("worker", True)
    assert users.user_reputation("worker") > 0.5
    assert users.user_points("worker") == 2
