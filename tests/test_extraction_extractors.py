"""Tests for the extractor family: regex, dictionary, rules, infobox, composite."""

import pytest

from repro.docmodel.document import Document
from repro.extraction.base import (
    CompositeExtractor,
    Extraction,
    extraction_to_tuple,
    tuple_to_extraction,
)
from repro.extraction.dictionary import DictionaryExtractor
from repro.extraction.infobox import InfoboxExtractor, WikiTableExtractor
from repro.extraction.normalize import normalize_number, normalize_temperature
from repro.extraction.regex_extractor import RegexExtractor
from repro.extraction.rules import ContextRule, RuleCascadeExtractor

DOC = Document(
    "madison",
    "{{Infobox city | name = Madison | sep_temp = 70 | population = 233,209 }}\n"
    "Madison is in Wisconsin. The September temperature in Madison is "
    "70 degrees. Chicago is colder in winter.",
)


def test_extraction_validates_confidence_and_attribute():
    span = DOC.span(0, 2)
    with pytest.raises(ValueError):
        Extraction("e", "a", 1, span, confidence=1.5)
    with pytest.raises(ValueError):
        Extraction("e", "", 1, span)


def test_extraction_payload_roundtrip():
    span = DOC.span(0, 2)
    extraction = Extraction("Madison", "temp", 70.0, span, 0.9, "test")
    again = tuple_to_extraction(extraction_to_tuple(extraction))
    assert again == extraction
    assert again.span.text == extraction.span.text  # not part of ==


def test_regex_extractor_named_groups():
    extractor = RegexExtractor(
        pattern=r"population\s*=\s*(?P<population>[\d,]+)",
        normalizers={"population": normalize_number},
    )
    results = extractor.extract(DOC)
    assert len(results) == 1
    assert results[0].attribute == "population"
    assert results[0].value == 233209.0
    assert DOC.text[results[0].span.start:results[0].span.end] == "233,209"


def test_regex_extractor_entity_group():
    extractor = RegexExtractor(
        pattern=r"(?P<city>[A-Z][a-z]+) is in (?P<state>[A-Z][a-z]+)",
        entity_group="city",
    )
    results = extractor.extract(DOC)
    assert results[0].entity == "Madison"
    assert results[0].attribute == "state"
    assert results[0].value == "Wisconsin"


def test_regex_extractor_normalizer_none_suppresses():
    extractor = RegexExtractor(
        pattern=r"temperature in Madison is (?P<t>\w+)",
        normalizers={"t": lambda s: None},
    )
    assert extractor.extract(DOC) == []


def test_regex_requires_named_group():
    with pytest.raises(ValueError):
        RegexExtractor(pattern=r"\d+")


def test_regex_attribute_prefix():
    extractor = RegexExtractor(pattern=r"sep_temp = (?P<value>\d+)",
                               attribute_prefix="infobox_")
    assert extractor.extract(DOC)[0].attribute == "infobox_value"


def test_dictionary_extractor_finds_all_mentions():
    extractor = DictionaryExtractor(
        attribute="city", phrases=["Madison", "Chicago", "New York City"]
    )
    results = extractor.extract(DOC)
    values = [r.value for r in results]
    assert values.count("Madison") == 3
    assert values.count("Chicago") == 1


def test_dictionary_canonical_mapping():
    extractor = DictionaryExtractor(
        attribute="city", phrases={"Madison": "Madison, WI"}
    )
    assert extractor.extract(DOC)[0].value == "Madison, WI"


def test_dictionary_multi_token_longest_match():
    doc = Document("d", "He lives in New York City today")
    extractor = DictionaryExtractor(
        attribute="place", phrases=["New York", "New York City"]
    )
    results = extractor.extract(doc)
    assert len(results) == 1
    assert results[0].value == "New York City"


def test_dictionary_case_insensitive_by_default():
    doc = Document("d", "MADISON rocks")
    extractor = DictionaryExtractor(attribute="city", phrases=["Madison"])
    assert len(extractor.extract(doc)) == 1
    strict = DictionaryExtractor(attribute="city", phrases=["Madison"],
                                 case_sensitive=True)
    assert strict.extract(doc) == []


def test_rule_cascade_binds_nearest_entity():
    doc = Document(
        "d",
        "The September temperature in Madison is 70 degrees. "
        "The September temperature in Chicago is 65 degrees.",
    )
    cities = DictionaryExtractor(attribute="city", phrases=["Madison", "Chicago"])
    extractor = RuleCascadeExtractor(
        rules=[ContextRule("sep_temp", ("September", "temperature"),
                           r"(\d+(?:\.\d+)?)\s*degrees",
                           normalizer=normalize_temperature)],
        entity_dictionary=cities,
    )
    results = extractor.extract(doc)
    assert {(r.entity, r.value) for r in results} == {("Madison", 70.0),
                                                      ("Chicago", 65.0)}


def test_rule_cascade_triggers_must_all_match():
    doc = Document("d", "The temperature is 70 degrees but no month is named.")
    extractor = RuleCascadeExtractor(
        rules=[ContextRule("sep_temp", ("September", "temperature"),
                           r"(\d+)\s*degrees")]
    )
    assert extractor.extract(doc) == []


def test_rule_cascade_priority_suppresses_overlap():
    doc = Document("d", "The high was 70 degrees in September temperature logs.")
    high_priority = ContextRule("a", ("high",), r"(\d+)\s*degrees", priority=0)
    low_priority = ContextRule("b", ("degrees",), r"(\d+)\s*degrees", priority=5)
    extractor = RuleCascadeExtractor(rules=[low_priority, high_priority])
    results = extractor.extract(doc)
    assert [r.attribute for r in results] == ["a"]


def test_rule_cascade_prefilter_terms():
    extractor = RuleCascadeExtractor(
        rules=[ContextRule("t", ("September", "temperature"), r"\d+")]
    )
    assert extractor.prefilter_terms() == [["September", "temperature"]]


def test_infobox_extractor_types_and_entity():
    extractor = InfoboxExtractor(box_types=("city",))
    results = {r.attribute: r for r in extractor.extract(DOC)}
    assert results["sep_temp"].value == 70.0
    assert results["sep_temp"].entity == "Madison"
    assert results["population"].value == 233209.0


def test_infobox_extractor_include_exclude():
    include = InfoboxExtractor(include_fields=("sep_temp",))
    assert [r.attribute for r in include.extract(DOC)] == ["sep_temp"]
    exclude = InfoboxExtractor(exclude_fields=("sep_temp",))
    assert "sep_temp" not in [r.attribute for r in exclude.extract(DOC)]


def test_infobox_extractor_wrong_type_skipped():
    extractor = InfoboxExtractor(box_types=("person",))
    assert extractor.extract(DOC) == []


def test_wikitable_extractor():
    doc = Document(
        "d",
        "{|\n! month !! temperature\n|-\n| January || 26\n|-\n| September || 70\n|}",
    )
    extractor = WikiTableExtractor(
        key_column="month", value_normalizers={"temperature": normalize_number}
    )
    results = extractor.extract(doc)
    assert {(r.entity, r.value) for r in results} == {("January", 26.0),
                                                      ("September", 70.0)}


def test_wikitable_requires_key_column():
    with pytest.raises(ValueError):
        WikiTableExtractor().extract(DOC)


def test_composite_deduplicates_keeping_best_confidence():
    low = RegexExtractor(pattern=r"sep_temp = (?P<sep_temp>\d+)",
                         normalizers={"sep_temp": normalize_number},
                         confidence=0.5, name="low")
    high = RegexExtractor(pattern=r"sep_temp = (?P<sep_temp>\d+)",
                          normalizers={"sep_temp": normalize_number},
                          confidence=0.9, name="high")
    composite = CompositeExtractor(extractors=[low, high])
    results = composite.extract(DOC)
    assert len(results) == 1
    assert results[0].confidence == 0.9
    assert results[0].extractor == "high"


def test_extract_corpus_helper():
    extractor = DictionaryExtractor(attribute="city", phrases=["Madison"])
    docs = [DOC, Document("d2", "Madison again")]
    assert len(extractor.extract_corpus(docs)) == 4
