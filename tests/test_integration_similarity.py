"""Tests for similarity measures."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.integration.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    name_similarity,
    token_cosine,
    tokens_of,
)


def test_tokens_of():
    assert tokens_of("David Smith, Jr.") == ["david", "smith", "jr"]


def test_jaccard_extremes():
    assert jaccard("a b c", "a b c") == 1.0
    assert jaccard("a b", "c d") == 0.0
    assert jaccard("", "") == 1.0
    assert jaccard("a", "") == 0.0


def test_jaccard_partial():
    assert jaccard("a b c", "b c d") == pytest.approx(0.5)


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3


def test_levenshtein_symmetry():
    assert levenshtein("sunday", "saturday") == levenshtein("saturday", "sunday")


def test_levenshtein_similarity_bounds():
    assert levenshtein_similarity("abc", "abc") == 1.0
    assert levenshtein_similarity("", "") == 1.0
    assert 0.0 <= levenshtein_similarity("abc", "xyz") <= 1.0


def test_jaro_extremes():
    assert jaro("abc", "abc") == 1.0
    assert jaro("", "abc") == 0.0
    assert jaro("abc", "xyz") == 0.0


def test_jaro_winkler_prefix_boost():
    base = jaro("martha", "marhta")
    boosted = jaro_winkler("martha", "marhta")
    assert boosted > base
    assert boosted <= 1.0


def test_jaro_winkler_known_value():
    assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-3)


def test_token_cosine():
    assert token_cosine("a b", "a b") == pytest.approx(1.0)
    assert token_cosine("a a b", "a b b") < 1.0
    assert token_cosine("a", "b") == 0.0
    assert token_cosine("", "") == 1.0


def test_name_similarity_initial_matches_full():
    assert name_similarity("David Smith", "D. Smith") > 0.85
    assert name_similarity("David Smith", "David Smith") == pytest.approx(1.0)


def test_name_similarity_last_first_order():
    # token alignment is order-independent
    assert name_similarity("Smith David", "David Smith") == pytest.approx(1.0)


def test_name_similarity_different_people_low():
    assert name_similarity("David Smith", "Jane Doe") < 0.3
    # same last name, different first initial: clearly below match range
    assert name_similarity("David Smith", "Robert Smith") < 0.82


def test_name_similarity_confusable_same_initial():
    # Daniel vs David Smith: looks alike, should be mid-range (hard case)
    score = name_similarity("Daniel Smith", "D. Smith")
    assert score > 0.8  # an initial honestly matches either


def test_name_similarity_empty():
    assert name_similarity("", "") == 1.0
    assert name_similarity("x", "") == 0.0


def test_name_similarity_does_not_depend_on_argument_order():
    # Equal token counts used to align greedily from the first argument:
    # 0.867 one way round and 0.433 the other.
    a, b = "adcb acdb", "adab adca"
    assert name_similarity(a, b) == name_similarity(b, a)


# Few letters, few tokens: near-miss tokens (Jaro-Winkler >= 0.8 against
# more than one candidate) are what the greedy alignment is sensitive to.
name_st = st.lists(st.text(alphabet="abcd", min_size=1, max_size=4),
                   max_size=3).map(" ".join)


@given(a=name_st, b=name_st)
@example(a="adcb acdb", b="adab adca")
@settings(max_examples=300, deadline=None)
def test_name_similarity_is_symmetric(a, b):
    assert name_similarity(a, b) == name_similarity(b, a)
