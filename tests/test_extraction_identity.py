"""The generation path's scans against the loops they replaced.

``DictionaryExtractor.extract``, ``RuleCascadeExtractor.extract`` and
``SemanticDebugger.check`` used to build a ``Token`` and a ``Span`` per
token, try every trigger regex of every rule on every sentence, and walk
every registered constraint for every fact.  Those bodies live on here as
reference functions; the differentials below require the scans in ``src/``
to give exactly what they give — field for field, ``span.text`` and alert
order included — on generated pages, gazetteers, cascades and constraint
sets.  One golden pins the whole path: the ``facts`` rows and the lineage
records of the e2e benchmark's 200-page city program, digests recorded at
the parent commit of the rewrite.
"""

import hashlib
import json
import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import (DomainConstraint,
                                        FunctionalDependency,
                                        RangeConstraint, TypeConstraint)
from repro.debugger.semantic import Alert, SemanticDebugger
from repro.docmodel.document import Document, Span
from repro.docmodel.tokenize import SentenceSplitter, Tokenizer
from repro.extraction.base import Extraction
from repro.extraction.dictionary import DictionaryExtractor
from repro.extraction.infobox import InfoboxExtractor, WikiTableExtractor
from repro.extraction.normalize import (MONTHS, normalize_number,
                                        normalize_temperature)
from repro.extraction.rules import ContextRule, RuleCascadeExtractor
from repro.integration.entity_resolution import EntityResolver
from repro.lang.parser import parse_program
from repro.lang.plan import LogicalPlan

# ------------------------------------------------------------- references


def reference_dictionary_extract(extractor, doc):
    """The token-object walk ``DictionaryExtractor.extract`` used to be,
    over a phrase table of its own (phrases tokenised as pages are)."""
    tokenizer = Tokenizer()

    def fold(text):
        return text if extractor.case_sensitive else text.lower()

    table = {}
    for phrase, canonical in extractor.phrases.items():
        key = tuple(fold(t.text)
                    for t in tokenizer.tokenize(Document("phrase", phrase)))
        if key:
            table[key] = canonical
    prefixes = {key[:n] for key in table for n in range(1, len(key) + 1)}

    tokens = tokenizer.tokenize(doc)
    out = []
    i = 0
    while i < len(tokens):
        best = None
        j = i
        while j < len(tokens):
            key = tuple(fold(t.text) for t in tokens[i:j + 1])
            if key not in prefixes:
                break
            if table.get(key) is not None:
                best = (j, table[key])
                if not extractor.longest_match:
                    break
            j += 1
        if best is None:
            i += 1
            continue
        end_index, canonical = best
        span = Span(
            doc.doc_id,
            tokens[i].span.start,
            tokens[end_index].span.end,
            doc.text[tokens[i].span.start:tokens[end_index].span.end],
        )
        out.append(Extraction(entity=canonical, attribute=extractor.attribute,
                              value=canonical, span=span,
                              confidence=extractor.confidence,
                              extractor=extractor.name))
        i = end_index + 1 if extractor.longest_match else i + 1
    return out


def reference_cascade_extract(extractor, doc):
    """``RuleCascadeExtractor.extract`` as it was: rules re-sorted per
    sentence, every trigger regex tried, overlap checked against every
    span claimed on the page, the sentence's mentions filtered per value."""
    entity_mentions = (
        reference_dictionary_extract(extractor.entity_dictionary, doc)
        if extractor.entity_dictionary else []
    )
    out = []
    claimed = []
    for sentence_span in SentenceSplitter().split(doc):
        sentence = sentence_span.text
        for rule in sorted(extractor.rules, key=lambda r: r.priority):
            if not all(t.search(sentence) for t in rule._trigger_res):
                continue
            for rel_start, rel_end, raw in rule.find_values(sentence):
                span = Span(doc.doc_id, sentence_span.start + rel_start,
                            sentence_span.start + rel_end, raw)
                if extractor.suppress_overlaps and any(
                        span.overlaps(c) for c in claimed):
                    continue
                value = raw
                if rule.normalizer is not None:
                    value = rule.normalizer(raw)
                    if value is None:
                        continue
                in_sentence = [m for m in entity_mentions
                               if sentence_span.contains(m.span)]
                entity = min(
                    in_sentence,
                    key=lambda m: abs(m.span.start - span.start),
                ).entity if in_sentence else ""
                out.append(Extraction(
                    entity=entity, attribute=rule.attribute, value=value,
                    span=span, confidence=rule.confidence,
                    extractor=f"{extractor.name}:{rule.attribute}"))
                claimed.append(span)
    return out


def reference_check(constraints, fact, context=""):
    """``SemanticDebugger.check`` as it was: every constraint, every fact.
    Returns (violations, the alerts they become)."""
    violations = []
    for constraint in constraints:
        violations.extend(constraint.check(fact))
    alerts = [
        Alert(severity="warning", source="semantic",
              message=v.message + (f" [{context}]" if context else ""),
              detail={"attribute": v.attribute, "value": v.value,
                      "constraint": v.constraint})
        for v in violations
    ]
    return violations, alerts


def fields(extractions):
    """Every field of every extraction, ``span.text`` included (``Span``
    equality leaves the text out)."""
    return [(e.entity, e.attribute, e.value, e.span.doc_id, e.span.start,
             e.span.end, e.span.text, e.confidence, e.extractor)
            for e in extractions]


# ------------------------------------------------------------- generators

# Words that nest ("york" in "new york"), that meet re.IGNORECASE's
# one-way folds (U+0130 I-dot, U+017F long s, U+212A Kelvin sign match "i",
# "s", "k"; str.lower() agrees for none of the three the same way), that
# carry punctuation inside and at their edges, numbers, and sentence ends.
WORDS = ["new", "New", "york", "York", "NEW", "YORK", "city", "St.", "Louis",
         "temperature", "Temperature", "January", "january", "degrees",
         "C++", "c++", "abC++", "i", "I", "\u0130", "\u0131", "s", "S",
         "\u017f", "k", "K", "\u212a", "and", "the", "new-york", "O'Hare",
         "\u00e9t\u00e9", ",", ";"]
SEPARATORS = [" ", " ", " ", "  ", ". ", "! ", "? ", ".\n", "\n", ", ", "."]

PHRASES = ["york", "new york", "New York City", "new", "St. Louis", "St.",
           "city", "C++", "\u0130", "i", "\u017f", "s", "K", "\u212a",
           "\u00e9t\u00e9", "O'Hare", "new-york", "york city and", "   ", ""]

TRIGGERS = ["york", "new york", "New", "temperature", "january", "C++",
            "++", "c", "i", "\u0130", "s", "\u017f", "k", "\u212a",
            "st.", "degrees", "\u00e9t\u00e9", "york city"]

# a page is words, whole phrases and triggers (so multi-token ones do occur)
# between separators
NUMBERS = ["12", "3.5", "-7", "1,234", "14 degrees", "8", "York 9"]
pages = st.lists(
    st.tuples(st.sampled_from(WORDS + PHRASES + TRIGGERS + NUMBERS * 3),
              st.sampled_from(SEPARATORS)),
    min_size=12, max_size=40,
).map(lambda parts: Document("page", "".join(w + s for w, s in parts)))

gazetteers = st.builds(
    lambda phrases, canonical, case_sensitive, longest_match:
        DictionaryExtractor(
            attribute="place",
            phrases={p: (p.upper() if canonical else p) for p in phrases},
            case_sensitive=case_sensitive, longest_match=longest_match),
    st.lists(st.sampled_from(PHRASES), min_size=4, max_size=10, unique=True),
    st.booleans(), st.booleans(), st.booleans())

VALUE_PATTERNS = [r"(\d+)", r"\d+(?:\.\d+)?", r"(\d+(?:\.\d+)?)\s*degrees",
                  r"([A-Z]\w+)", r"york|new york"]


def _even_or_none(raw):
    digits = re.sub(r"\D", "", raw)
    return int(digits) if digits and int(digits) % 2 == 0 else None


NORMALIZERS = [None, str.upper, _even_or_none]

context_rules = st.builds(
    ContextRule,
    attribute=st.sampled_from(["a", "b", "c"]),
    triggers=st.lists(st.sampled_from(TRIGGERS), max_size=2).map(tuple),
    value_pattern=st.sampled_from(VALUE_PATTERNS),
    normalizer=st.sampled_from(NORMALIZERS),
    confidence=st.sampled_from([0.5, 0.8]),
    priority=st.integers(0, 2))

cascades = st.builds(
    RuleCascadeExtractor,
    rules=st.lists(context_rules, min_size=2, max_size=6),
    entity_dictionary=st.one_of(st.none(), gazetteers),
    suppress_overlaps=st.booleans())


# ---------------------------------------------------------- differentials

@settings(max_examples=300, deadline=None)
@given(gazetteers, pages)
def test_dictionary_scan_equals_token_walk(extractor, doc):
    assert fields(extractor.extract(doc)) == \
        fields(reference_dictionary_extract(extractor, doc))


@settings(max_examples=400, deadline=None)
@given(cascades, pages)
def test_cascade_scan_equals_per_rule_search(extractor, doc):
    assert fields(extractor.extract(doc)) == \
        fields(reference_cascade_extract(extractor, doc))


def test_blank_pages_yield_nothing_either_way():
    gazetteer = DictionaryExtractor(phrases=["york", "   ", ""])
    cascade = RuleCascadeExtractor(
        rules=[ContextRule("a", (), r"\d*")], entity_dictionary=gazetteer)
    for text in ["", " ", "\n \t\n", ".", " . "]:
        doc = Document("blank", text)
        assert gazetteer.extract(doc) == [] \
            == reference_dictionary_extract(gazetteer, doc)
        assert fields(cascade.extract(doc)) \
            == fields(reference_cascade_extract(cascade, doc))


def test_one_scan_decides_what_the_trigger_regexes_decide():
    """Nested, overlapping, punctuated and case-folded triggers, pinned
    (the property above meets them only by luck)."""
    rules = [ContextRule(f"r{i}", triggers, r"(\d+)")
             for i, triggers in enumerate([
                 ("york",), ("new york",), ("york", "new york"), ("C++",),
                 ("s",), ("\u017f",), ("k",), ("\u212a",), ("i",),
                 ("\u0130",), (), ("st.", "louis")])]
    cascade = RuleCascadeExtractor(rules=rules, suppress_overlaps=False)
    one_sentence = [
        "new york 1", "newyork 3", "york-new 4", "uses C++ 14",
        "uses abC++ 14", "c++14", "a \u017f 5", "a S 5", "a \u212a 6",
        "a K 6", "a \u0130 7", "a I 7", "a \u0131 7", "St. Louis 8",
        "st.louis 9", "10"]
    for text in one_sentence + ["New York 1. york 2! New 3? C++ 4"]:
        doc = Document("d", text)
        got = fields(cascade.extract(doc))
        assert got == fields(reference_cascade_extract(cascade, doc)), text
        if text in one_sentence:  # every rule that fires finds the number
            assert {attribute for _, attribute, *_ in got} == {
                rule.attribute for rule in rules
                if rule.matches_context(text)}, text
    assert [e.attribute for e in cascade.extract(Document("d", "a S 5"))] \
        == ["r4", "r5", "r10"]  # "s" and, by re.IGNORECASE's fold, "\u017f"


debugger_constraints = st.lists(st.one_of(
    st.builds(RangeConstraint, st.sampled_from("abc"),
              st.sampled_from([-5.0, 0.0]), st.sampled_from([1.0, 10.0])),
    st.builds(TypeConstraint, st.sampled_from("abc"),
              st.sampled_from(["number", "text", "bool"])),
    st.builds(DomainConstraint, st.sampled_from("abc"),
              st.sampled_from([frozenset({"x"}), frozenset({"x", 1})])),
    st.builds(FunctionalDependency, st.sampled_from("abc"),
              st.sampled_from("abc"),
              st.just((("x", 1), (1, "x"), (2.5, True)))),
), max_size=10)
debugger_facts = st.lists(st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from([None, "x", "y", 1, 2.5, -9, 99.0, True]),
    max_size=3), max_size=12)
trusted_samples = st.lists(st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y", 1, 2, 7.5]),
    min_size=1, max_size=2), max_size=12)


@settings(max_examples=300, deadline=None)
@given(debugger_constraints, trusted_samples, debugger_constraints,
       debugger_facts)
def test_debugger_walks_only_what_can_speak(before, trusted, after, facts):
    """Hand-written constraints, ``learn()`` after them, more after that:
    violations and alerts as from walking every constraint, same order."""
    debugger = SemanticDebugger()
    for constraint in before:
        debugger.add_constraint(constraint)
    learned = debugger.learn(trusted, fd_min_support=2, domain_min_support=2)
    for constraint in after:
        debugger.add_constraint(constraint)
    everything = debugger.constraints
    assert len(everything) == len(before) + learned + len(after)
    assert everything[:len(before)] == before
    assert everything[len(before) + learned:] == after

    alerts, flagged = [], 0
    for n, fact in enumerate(facts):
        context = f"doc {n}" if n % 2 else ""
        want, want_alerts = reference_check(everything, fact, context)
        assert debugger.check(fact, context=context) == want
        alerts.extend(want_alerts)
        flagged += bool(want)
    assert debugger.alerts == alerts
    assert (debugger.facts_checked, debugger.facts_flagged) == \
        (len(facts), flagged)


# ----------------------------------------------------- the bugs that rode along

def test_gazetteer_phrases_are_tokenised_like_pages():
    """Fails at the parent: phrases were split on whitespace ("st." one
    trie key) while pages yield "St" then "."."""
    extractor = DictionaryExtractor(phrases=["St. Louis", "Washington, D.C."])
    doc = Document("d", "He moved from St. Louis to Washington, D.C.")
    assert [(e.value, e.span.text) for e in extractor.extract(doc)] == [
        ("St. Louis", "St. Louis"), ("Washington, D.C.", "Washington, D.C.")]
    # spacing inside a phrase is not part of it
    spaced = DictionaryExtractor(phrases={"St .  Louis": "STL"})
    assert [e.value for e in spaced.extract(doc)] == ["STL"]


def test_trigger_with_a_non_word_edge_fires():
    """Fails at the parent: ``\\bC\\+\\+\\b`` needs a word character after
    the last "+"."""
    rule = ContextRule("x", ("C++",), r"(\d+)")
    assert rule.matches_context("uses C++ 14")
    assert rule.matches_context("uses c++, since 14")
    assert not rule.matches_context("uses abC++ 14")  # still word-bounded left
    assert ContextRule("x", ("#1",), r"(\d+)").matches_context("ranked #1 of 9")
    assert not ContextRule("x", ("#1",), r"(\d+)").matches_context("ranked #10")
    cascade = RuleCascadeExtractor(rules=[rule])
    assert [e.value for e in cascade.extract(Document("d", "uses C++ 14"))] \
        == ["14"]


# ------------------------------------------------------ the whole path, pinned

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
# recorded at e4034d4 (the parent of the rewrite) by this very function
GOLDEN_CITY_RUN = {
    "facts": 3200,
    "flagged": 25,
    "chars_scanned": 752511,
    "facts_sha256":
        "49b37d85114a7b9fa6bbebe8d631a7b6ab988eaccfdf3d839fb43d72010ca40d",
    "lineage_sha256":
        "aecd2d32d8294af61241ac1d1da40838fd1a4f96429a3a1affbc2c480508ef45",
}


def _month_attr(key_cell):
    month = key_cell.strip().lower()
    return f"{month[:3]}_temp" if month in MONTHS else None


def city_system(pages, seed):
    """benchmarks/e2e's ``batch_generate`` program, ingested, not yet run."""
    corpus, truth = generate_city_corpus(CityCorpusConfig(
        num_cities=pages, seed=seed, corruption_rate=0.1))
    system = StructureManagementSystem()
    rules = [
        ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                    r"(\d+(?:\.\d+)?)\s*degrees",
                    normalizer=normalize_temperature, confidence=0.75)
        for m in MONTHS
    ]
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.registry.register_extractor("prose", RuleCascadeExtractor(
        rules=rules, entity_dictionary=DictionaryExtractor(
            attribute="city", phrases=[t.name for t in truth])))
    system.registry.register_extractor("tables", WikiTableExtractor(
        key_column="month",
        value_normalizers={"temperature": normalize_number},
        attribute_namer=_month_attr))
    system.registry.register_resolver("er", EntityResolver(threshold=0.95))
    for month in MONTHS:
        for attr in (f"{month[:3]}_temp", f"{month}_temperature"):
            system.debugger.add_constraint(RangeConstraint(attr, -80.0, 130.0))
    system.ingest(list(corpus))
    return system


def _sha256(rows):
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def test_city_program_lands_the_same_rows_and_lineage():
    system = city_system(pages=200, seed=1)
    report = system.generate(CITY_PROGRAM)
    facts = system.query("SELECT * FROM facts")
    assert {
        "facts": len(facts),
        "flagged": report.facts_flagged,
        "chars_scanned": report.chars_scanned,
        "facts_sha256": _sha256(facts),
        "lineage_sha256": _sha256(list(system._lineage_records())),
    } == GOLDEN_CITY_RUN
    # which program landed each fact is kept beside ``facts``, under the
    # hash of its unoptimized plan
    plan = LogicalPlan.from_ops(*parse_program(CITY_PROGRAM)).render()
    assert system.query("SELECT * FROM program_facts") == [{
        "program": hashlib.blake2b(plan.encode(), digest_size=8).hexdigest(),
        "fact_ids": json.dumps(sorted(r["fact_id"] for r in facts))}]
    system.close()


# ------------------------------------------- counts that explain the gain
# (taken by patching here; nothing in src/ counts them)

def test_a_gazetteer_builds_a_span_per_mention_not_per_token(monkeypatch):
    """The token walk built a ``Token`` and a ``Span`` for each of a page's
    ~245 tokens; the scan builds a ``Span`` for a match and nothing else."""
    import repro.extraction.dictionary as dictionary
    corpus, truth = generate_city_corpus(CityCorpusConfig(
        num_cities=20, seed=5, corruption_rate=0.1))
    gazetteer = DictionaryExtractor(attribute="city",
                                    phrases=[t.name for t in truth])
    built = []

    class CountedSpan(Span):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(dictionary, "Span", CountedSpan)
    mentions = tokens = 0
    for doc in corpus:
        mentions += len(gazetteer.extract(doc))
        tokens += len(Tokenizer().tokenize(doc))
    assert mentions == len(built) > 0
    assert tokens > 20 * mentions  # what the walk would have built, twice


class _CountedPattern:
    """A compiled pattern that logs (lowercased) every text it scans."""

    def __init__(self, pattern, log):
        self._pattern, self._log = pattern, log

    def search(self, text):
        self._log.append(text.lower())
        return self._pattern.search(text)

    def findall(self, text):
        self._log.append(text.lower())
        return self._pattern.findall(text)


def test_a_sentence_costs_one_trigger_scan(monkeypatch):
    """Twelve two-trigger rules used to cost a sentence up to 24 regex
    searches; one word scan now says which rules can fire, and a trigger
    regex runs only for a rule that scan cannot settle."""
    import repro.extraction.rules as rules_module
    corpus, _ = generate_city_corpus(CityCorpusConfig(
        num_cities=20, seed=5, corruption_rate=0.1))
    rules = [ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                         r"(\d+(?:\.\d+)?)\s*degrees")
             for m in MONTHS]
    rules.append(
        ContextRule("council", ("city council", "meets"), r"(\w+day)"))
    sentences = Counter()  # lowercased text -> times it occurs
    can_fire = {}  # ... -> rules whose triggers all occur in it
    for doc in corpus:
        for sentence in SentenceSplitter().split(doc):
            assert sentence.text.isascii()
            sentences[sentence.text.lower()] += 1
            can_fire[sentence.text.lower()] = sum(
                rule.matches_context(sentence.text) for rule in rules)
    assert len(sentences) > 100

    scans = []
    monkeypatch.setattr(rules_module, "_WORD_RE",
                        _CountedPattern(rules_module._WORD_RE, scans))
    for rule in rules:
        rule._trigger_res = [_CountedPattern(regex, scans)
                             for regex in rule._trigger_res]
    cascade = RuleCascadeExtractor(rules=rules)
    scans.clear()  # building the cascade scanned the triggers themselves
    assert sum(len(cascade.extract(doc)) for doc in corpus) > 20
    scanned = Counter(scans)
    assert scanned.keys() == sentences.keys()
    for text, times in sentences.items():
        assert times <= scanned[text] <= times * (1 + can_fire[text]), text
    # "city council" is two words: the scan finds both, its regex confirms
    assert sum(scanned.values()) == sum(sentences.values()) + sum(
        times for text, times in sentences.items()
        if {"city", "council", "meets"} <= set(re.findall(r"\w+", text)))
    assert sum(scanned.values()) < 0.1 * sum(
        len(rule.triggers) for rule in rules) * sum(sentences.values())


def test_a_fact_meets_only_the_constraints_on_its_attribute(monkeypatch):
    """The benchmark's 24 range constraints (plus, here, learned ones and a
    dependency) used to be walked for every fact; a fact now meets those
    naming its attribute and the multi-attribute ones."""
    system = city_system(pages=20, seed=5)
    assert system.debugger.learn(
        [{"population": 1000}, {"population": 5_000_000}, {"jan_temp": 30.0},
         {"state": "Ohio"}, {"state": "Ohio"}, {"state": "Maine"},
         {"state": "Maine"}]) == 6
    multi = FunctionalDependency("jan_temp", "population", ((1.0, 2),))
    system.debugger.add_constraint(multi)
    calls = []
    for cls in (RangeConstraint, TypeConstraint, DomainConstraint,
                FunctionalDependency):
        def counted(self, fact, _check=cls.check):
            calls.append((self, fact))
            return _check(self, fact)
        monkeypatch.setattr(cls, "check", counted)
    report = system.generate(CITY_PROGRAM)
    constraints = system.debugger.constraints
    assert len(constraints) == 24 + 6 + 1 and report.facts_stored > 0
    naming = {}
    for constraint in constraints:
        if constraint is not multi:
            naming[constraint.attribute] = naming.get(constraint.attribute, 0) + 1
    facts = system.query("SELECT attribute FROM facts")
    assert len(facts) == report.facts_stored
    assert len(calls) == sum(naming.get(f["attribute"], 0) + 1 for f in facts)
    assert len(calls) < 0.2 * len(constraints) * len(facts)
    system.close()
