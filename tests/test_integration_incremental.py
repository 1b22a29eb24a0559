"""Direct tests of :class:`IncrementalEntityResolver`: after any sequence
of mention deltas and HI answers its partition is the batch resolver's,
its kept scores are the ones a fresh scoring would give, an edit under the
same name compares no names, and a departed mention takes its constraints
along."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integration.entity_resolution import (
    EntityResolver,
    IncrementalEntityResolver,
    Mention,
)
from repro.telemetry.metrics import MetricsRegistry, use_registry

# Near-duplicates inside one block (default blocking: first letter of the
# last token), names in other blocks for renames to move to, and the pair
# whose greedy token alignment used to depend on which side came first.
NAMES = ("Smith John", "Smith Jon", "Smyth John", "Smith Jane",
         "Jones Robert", "Jones Rob", "Baker Ann",
         "adcb acdb", "adab adca")

attrs_st = st.dictionaries(st.sampled_from(("age", "city")),
                           st.integers(1, 3), max_size=2)


def mention(mention_id, name, attrs=()):
    return Mention(mention_id, name, tuple(sorted(dict(attrs).items())))


def cluster_key(clusters):
    return [(c.mention_ids, c.canonical_name) for c in clusters]


def assert_matches_batch(inc):
    """The partition is the batch one; every kept score and link is current."""
    batch = inc.resolver.resolve(inc.mentions(), inc.constraints)
    assert cluster_key(inc.clusters()) == cluster_key(batch)
    live = {m.mention_id: m for m in inc.mentions()}
    blocks = {}
    for m in live.values():
        blocks.setdefault(inc.resolver.blocking_key(m), []).append(m.mention_id)
    assert set(inc._scores) == {
        (a, b) for ids in blocks.values() for a in ids for b in ids if a < b}
    for (a, b), (_, score) in inc._scores.items():
        assert score == inc.resolver.score_pair(live[a], live[b])
    linked = {pair for pair, (_, score) in inc._scores.items()
              if score >= inc.resolver.threshold}
    linked |= {(a, b) for a, b in inc.constraints.must_link
               if a in live and b in live}
    assert {(a, b) for a, peers in inc._adj.items() for b in peers
            if a < b} == linked


# ----------------------------------------------------------- order of sides


def test_either_insertion_order_equals_batch():
    pair = [Mention(0, "adcb acdb"), Mention(1, "adab adca")]
    batch = cluster_key(EntityResolver().resolve(pair))
    for order in (pair, pair[::-1]):
        inc = IncrementalEntityResolver()
        for m in order:
            inc.apply(added=[m])
        assert cluster_key(inc.clusters()) == batch


# ------------------------------------------------------------ same-name edit


def test_same_name_edit_compares_no_names_and_visits_its_block():
    inc = IncrementalEntityResolver()
    inc.apply(added=[mention(0, "Smith John", {"age": 1, "city": 1}),
                     mention(1, "Smith Jon", {"age": 1, "city": 1}),
                     mention(2, "Smyth John", {"age": 2, "city": 2}),
                     mention(3, "Baker Ann")])
    assert [c.mention_ids for c in inc.clusters()] == [(0, 1), (2,), (3,)]
    registry = MetricsRegistry()
    with use_registry(registry):
        stats = inc.apply(
            changed=[mention(1, "Smith Jon", {"age": 3, "city": 3})])
    assert registry.get("er.name_comparisons") == 0
    assert stats.pairs_scored == 2          # (0, 1) and (1, 2)
    assert_matches_batch(inc)
    assert stats.clusters_split == 1        # two disagreeing values split them
    assert [c.mention_ids for c in inc.clusters()] == [(0,), (1,), (2,), (3,)]


def test_two_edits_of_one_block_visit_their_shared_pair_once():
    inc = IncrementalEntityResolver()
    inc.apply(added=[mention(i, name, {"age": 1}) for i, name in
                     enumerate(("Smith John", "Smith Jon", "Smyth John"))])
    stats = inc.apply(changed=[mention(0, "Smith John", {"age": 2}),
                               mention(2, "Smyth John", {"age": 2})])
    # what dropping and re-adding both would visit: (0,1) then (2,0), (2,1)
    assert stats.pairs_scored == 3
    assert_matches_batch(inc)


def test_rename_moves_block_and_counts_its_comparisons():
    inc = IncrementalEntityResolver()
    inc.apply(added=[mention(0, "Smith John"), mention(1, "Smith Jon"),
                     mention(2, "Jones Robert"), mention(3, "Jones Rob")])
    registry = MetricsRegistry()
    with use_registry(registry):
        stats = inc.apply(changed=[mention(1, "Jonas Rob")])
    assert registry.get("er.name_comparisons") == stats.pairs_scored == 2
    assert_matches_batch(inc)


def test_batch_resolution_counts_its_name_comparisons():
    registry = MetricsRegistry()
    with use_registry(registry):
        EntityResolver().resolve([mention(i, n) for i, n in
                                  enumerate(NAMES[:4])])
    assert registry.get("er.name_comparisons") == 6     # one block of four


# ---------------------------------------------------------------- HI answers


def test_must_link_survives_edits_of_either_side():
    # across blocks, and inside one block under the threshold (0.5)
    for other in ("Baker Ann", "Smith Jane"):
        inc = IncrementalEntityResolver()
        inc.apply(added=[mention(0, "Smith John", {"age": 1}),
                         mention(1, other, {"age": 2})])
        inc.add_must(0, 1)
        for age in (3, 4):          # the second edit starts from the first's
            inc.apply(changed=[mention(0, "Smith John", {"age": age})])
            assert [c.mention_ids for c in inc.clusters()] == [(0, 1)]
            assert_matches_batch(inc)
        inc.apply(changed=[mention(1, other + "e", {"age": 2})])   # a rename
        assert [c.mention_ids for c in inc.clusters()] == [(0, 1)]
        assert_matches_batch(inc)


def test_a_departed_mention_takes_its_constraints_along():
    inc = IncrementalEntityResolver()
    inc.apply(added=[mention(0, "Smith John"), mention(1, "Smith Jon"),
                     mention(2, "Baker Ann")])
    inc.add_cannot(0, 1)
    inc.add_must(1, 2)
    inc.add_must(0, 2)
    assert len(inc.constraints) == 3
    inc.apply(removed=[2])
    assert inc.constraints.must_link == set()
    assert inc.constraints.cannot_link == {(0, 1)}
    assert_matches_batch(inc)
    inc.apply(removed=[0, 1])
    assert len(inc.constraints) == 0
    assert not inc._must_of and not inc._cannot_of


def test_add_constrain_remove_rounds_leave_nothing_behind():
    inc = IncrementalEntityResolver()
    for round_ in range(1000):
        a, b = 2 * round_, 2 * round_ + 1
        inc.apply(added=[mention(a, "Smith John"), mention(b, "Baker Ann")])
        (inc.add_must if round_ % 2 else inc.add_cannot)(a, b)
        inc.apply(removed=[a, b])
    assert len(inc.constraints) == 0
    assert not inc._must_of and not inc._cannot_of
    assert not inc._scores and not inc._adj and len(inc) == 0


# ------------------------------------------------------------- differential


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_delta_sequence_equals_batch_resolution(data):
    inc = IncrementalEntityResolver()
    next_id = 0
    for _ in range(data.draw(st.integers(2, 8), label="steps")):
        live = inc.mentions()
        added = []
        for _ in range(data.draw(st.integers(0, 3), label="n_add")):
            added.append(mention(next_id,
                                 data.draw(st.sampled_from(NAMES)),
                                 data.draw(attrs_st)))
            next_id += 1
        touched = data.draw(st.lists(st.sampled_from(live), max_size=3,
                                     unique=True), label="touched") \
            if live else []
        changed, removed, only_edits = [], [], not added
        for old in touched:
            kind = data.draw(st.sampled_from(("edit", "rename", "remove")))
            if kind == "remove":
                removed.append(old.mention_id)
            else:
                name = old.name if kind == "edit" \
                    else data.draw(st.sampled_from(NAMES))
                changed.append(mention(old.mention_id, name,
                                       data.draw(attrs_st)))
                only_edits = only_edits and name == old.name
        registry = MetricsRegistry()
        with use_registry(registry):
            inc.apply(added=added, changed=changed, removed=removed)
        if only_edits:
            assert registry.get("er.name_comparisons") == 0
        assert_matches_batch(inc)
        ids = [m.mention_id for m in inc.mentions()]
        if len(ids) >= 2 and data.draw(st.booleans(), label="constrain"):
            pair = data.draw(st.lists(st.sampled_from(ids), min_size=2,
                                      max_size=2, unique=True), label="pair")
            if data.draw(st.booleans(), label="is_must"):
                inc.add_must(*pair)
            else:
                inc.add_cannot(*pair)
            assert_matches_batch(inc)
        assert {i for pair in inc.constraints.must_link
                | inc.constraints.cannot_link for i in pair} <= set(ids)
