"""Entity resolution: deciding which mentions denote the same real entity.

Pipeline: *blocking* (group mentions by a cheap key so only within-block
pairs are scored), *pairwise scoring* (name similarity plus optional
attribute agreement), and *clustering* (union-find transitive closure over
pairs above threshold).  Human feedback enters as must-link / cannot-link
constraints (:class:`MatchConstraints`) which override scores — the II+HI
combination the DGE model calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.integration.similarity import name_similarity
from repro.telemetry import metrics


@dataclass(frozen=True)
class Mention:
    """One entity mention: a surface name plus optional attributes."""

    mention_id: int
    name: str
    attributes: tuple[tuple[str, Any], ...] = ()

    def attr_dict(self) -> dict[str, Any]:
        return dict(self.attributes)


@dataclass(frozen=True)
class MentionPair:
    """A scored candidate pair."""

    left: int
    right: int
    score: float


@dataclass
class MatchConstraints:
    """HI feedback: pairs that must or must not co-refer.

    Constraint pairs are stored order-normalized.
    """

    must_link: set[tuple[int, int]] = field(default_factory=set)
    cannot_link: set[tuple[int, int]] = field(default_factory=set)

    def add_must(self, a: int, b: int) -> None:
        self.must_link.add(_norm(a, b))
        self.cannot_link.discard(_norm(a, b))

    def add_cannot(self, a: int, b: int) -> None:
        self.cannot_link.add(_norm(a, b))
        self.must_link.discard(_norm(a, b))

    def __len__(self) -> int:
        return len(self.must_link) + len(self.cannot_link)


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class EntityCluster:
    """One resolved entity: member mention IDs and a canonical name."""

    cluster_id: int
    mention_ids: tuple[int, ...]
    canonical_name: str


class _UnionFind:
    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1


def constrained_merge(ids: Sequence[int],
                      must: Iterable[tuple[int, int]],
                      cannot: Iterable[tuple[int, int]],
                      pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Partition mention ``ids`` under HI constraints: the merge step of
    both resolvers (batch and incremental).

    Must-link pairs are merged first; then each of ``pairs`` (the linked
    candidates in canonical order: descending score, then the normalized
    id pair) is merged unless the union would bring a cannot-link pair
    into one group — so human "not the same" answers sever transitive
    bridges.  Constraint pairs naming an id outside ``ids`` are ignored.

    Returns:
        The groups, members in ``ids`` order, by first member.
    """
    index_of = {mid: i for i, mid in enumerate(ids)}
    uf = _UnionFind(len(ids))
    for a, b in must:
        if a in index_of and b in index_of:
            uf.union(index_of[a], index_of[b])
    vetoes = [(index_of[a], index_of[b]) for a, b in cannot
              if a in index_of and b in index_of]
    find = uf.find
    for a, b in pairs:
        ri, rj = find(index_of[a]), find(index_of[b])
        if ri == rj or vetoes and any({find(x), find(y)} == {ri, rj}
                                      for x, y in vetoes):
            continue
        uf.union(ri, rj)
    groups: dict[int, list[int]] = {}
    for i, mid in enumerate(ids):
        groups.setdefault(find(i), []).append(mid)
    return list(groups.values())


def default_blocking_key(mention: Mention) -> Hashable:
    """Default blocking: first letter of the surname.

    Handles both "First Last" and "Last, First" orders (the surname is the
    token before the comma when one is present).  Catches
    "David Smith" / "D. Smith" / "Smith, David" — all block on ``s`` —
    while keeping blocks small.
    """
    name = mention.name
    if "," in name:
        surname = name.split(",", 1)[0].strip()
    else:
        tokens = [t for t in name.split() if t]
        surname = tokens[-1] if tokens else ""
    return surname[:1].lower()


@dataclass
class EntityResolver:
    """Blocking + scoring + transitive clustering entity resolver.

    Args:
        threshold: pair score at/above which two mentions are linked.
        blocking_key: mention → block key; ``None`` disables blocking
            (all-pairs scoring — the ablation in experiment E2's harness).
        attribute_weight: how much agreeing/conflicting shared attributes
            shift the name score (agreement adds, conflict subtracts).
        scorer: override the pairwise scoring function entirely.
    """

    threshold: float = 0.82
    blocking_key: Callable[[Mention], Hashable] | None = default_blocking_key
    attribute_weight: float = 0.1
    scorer: Callable[[Mention, Mention], float] | None = None

    def score_pair(self, a: Mention, b: Mention) -> float:
        """Pairwise co-reference score in [0, 1]."""
        self._count_name_comparisons(1)
        return self._score_with_attrs(a, b, a.attr_dict(), b.attr_dict())

    def _score_with_attrs(
        self, a: Mention, b: Mention,
        attrs_a: dict[str, Any], attrs_b: dict[str, Any],
    ) -> float:
        """Score with pre-materialized attribute dicts.

        The O(pairs) scoring loops (batch and incremental) materialize each
        mention's attribute dict once and pass it here, instead of paying
        two ``attr_dict()`` constructions per scored pair.
        """
        if self.scorer is not None:
            return self.scorer(a, b)
        return self._adjust(name_similarity(a.name, b.name), attrs_a, attrs_b)

    def _count_name_comparisons(self, pairs: int) -> None:
        """``er.name_comparisons``: every ``name_similarity`` call a
        resolver makes, batch or incremental — one registry update per
        scoring loop of ``pairs`` pairs (none under a custom scorer)."""
        if pairs and self.scorer is None:
            metrics.get_registry().inc("er.name_comparisons", pairs)

    def _adjust(self, score: float, attrs_a: dict[str, Any],
                attrs_b: dict[str, Any]) -> float:
        """A name score shifted by the two mentions' shared attributes.

        Shared keys are visited in sorted order — with score clamping the
        fold is not commutative, so set iteration order would make scores
        hash-seed-dependent.
        """
        for key in sorted(attrs_a.keys() & attrs_b.keys()):
            if attrs_a[key] == attrs_b[key]:
                score = min(1.0, score + self.attribute_weight)
            else:
                score = max(0.0, score - self.attribute_weight)
        return score

    def candidate_pairs(self, mentions: Sequence[Mention]) -> list[MentionPair]:
        """Scored within-block pairs (all pairs when blocking is off).

        Sorted by descending score with the order-normalized id pair as a
        tie break, so equal-score merges happen in one canonical order —
        required for the incremental resolver's localized re-clustering to
        reproduce batch output exactly under cannot-link constraints.
        """
        pairs: list[MentionPair] = []
        if self.blocking_key is None:
            blocks: dict[Hashable, list[Mention]] = {"": list(mentions)}
        else:
            blocks = {}
            for mention in mentions:
                blocks.setdefault(self.blocking_key(mention), []).append(mention)
        for members in blocks.values():
            attrs = [m.attr_dict() for m in members]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    score = self._score_with_attrs(
                        members[i], members[j], attrs[i], attrs[j])
                    pairs.append(
                        MentionPair(members[i].mention_id,
                                    members[j].mention_id, score)
                    )
        self._count_name_comparisons(len(pairs))
        pairs.sort(key=lambda p: (-p.score, _norm(p.left, p.right)))
        return pairs

    def resolve(
        self,
        mentions: Sequence[Mention],
        constraints: MatchConstraints | None = None,
    ) -> list[EntityCluster]:
        """Cluster mentions into entities.

        Constraints override scores (constrained clustering): must-link
        pairs are merged first; a score-driven merge is *skipped entirely*
        when the union would bring any cannot-link pair into one cluster —
        so human "not the same" answers sever transitive bridges, which is
        precisely how HI feedback repairs over-merging.
        """
        constraints = constraints or MatchConstraints()
        by_id = {m.mention_id: m for m in mentions}
        groups = constrained_merge(
            list(by_id), constraints.must_link, constraints.cannot_link,
            (_norm(p.left, p.right) for p in self.candidate_pairs(mentions)
             if p.score >= self.threshold))
        return [EntityCluster(
            cluster_id=cluster_id, mention_ids=tuple(sorted(members)),
            canonical_name=max((by_id[m] for m in members),
                               key=lambda m: (len(m.name), m.name)).name)
            for cluster_id, members in enumerate(sorted(groups, key=min))]

    def uncertain_pairs(self, mentions: Sequence[Mention],
                        band: float = 0.15, limit: int | None = None) -> list[MentionPair]:
        """Pairs near the threshold — the most informative HI questions.

        Returns pairs with ``|score - threshold| <= band``, most uncertain
        first; these are what the system routes to the human task queue.
        """
        pairs = [
            p for p in self.candidate_pairs(mentions)
            if abs(p.score - self.threshold) <= band
        ]
        pairs.sort(key=lambda p: (abs(p.score - self.threshold),
                                  _norm(p.left, p.right)))
        return pairs[:limit] if limit is not None else pairs


@dataclass(frozen=True)
class DeltaResolveStats:
    """What one incremental delta application cost and changed."""

    pairs_scored: int = 0
    dirty_mentions: int = 0
    clusters_rebuilt: int = 0
    clusters_split: int = 0


class IncrementalEntityResolver:
    """Persistent-state entity resolution with O(delta) updates.

    Maintains the blocking index, the scored-pair set, and the cluster
    partition across calls.  :meth:`apply` takes a mention delta (added /
    changed / removed) and

    1. re-scores only the pairs inside the touched blocks: a new or
       renamed mention scores against its block co-members; a mention
       edited under the same name keeps its pairs' *name* scores (held in
       ``_scores`` beside the pair score, for exactly as long as the pair
       lives — no memo to size or evict) and re-applies only the attribute
       adjustment, so a same-name edit costs zero name comparisons;
       nothing else is rescored,
    2. re-clusters only the affected connected components — the transitive
       closure, over score-above-threshold and must-link edges, of every
       mention whose pairs or constraints changed, in both the old and the
       new link graph (the old-graph closure is what makes *splits* exact:
       when a removed mention or edge disconnects a component, every
       stranded member is re-closed locally).

    Mention ids are the caller's: a mention that comes back under its old
    id (``changed``) is the same mention, and the must / cannot links
    naming it keep applying; one that leaves (``removed``) takes the
    constraints naming it along.

    Exactness argument: batch :meth:`EntityResolver.resolve` processes all
    candidate pairs in one canonical order (descending score, then the
    normalized id pair), and a merge of mentions *i, j* can only be vetoed
    by a cannot-link pair whose two endpoints already share a cluster with
    *i* or *j* — i.e. lie inside the same link-graph components.  Merges
    therefore never interact across component boundaries, so replaying the
    canonical order restricted to a union of whole components yields
    exactly the batch partition of those components.  Pair scores do not
    depend on which side scored (``name_similarity`` and the attribute
    fold are symmetric), so ``clusters()`` is byte-identical to
    ``EntityResolver.resolve`` over the same live mentions and
    constraints.
    """

    def __init__(self, resolver: EntityResolver | None = None,
                 constraints: MatchConstraints | None = None) -> None:
        self.resolver = resolver if resolver is not None else EntityResolver()
        self.constraints = constraints if constraints is not None else MatchConstraints()
        self._mentions: dict[int, Mention] = {}
        self._attrs: dict[int, dict[str, Any]] = {}
        self._blocks: dict[Hashable, set[int]] = {}
        self._block_of: dict[int, Hashable] = {}
        #: Every within-block pair, keyed order-normalized -> (its name
        #: score, its pair score: the name score shifted by the two
        #: mentions' attributes).  Under a custom ``scorer`` there is no
        #: name score to keep (None).
        self._scores: dict[tuple[int, int], tuple[float | None, float]] = {}
        #: Link graph: score >= threshold edges plus must-link edges.
        self._adj: dict[int, set[int]] = {}
        #: Constraint indexes (mention id -> peers), mirrors ``constraints``.
        self._must_of: dict[int, set[int]] = {}
        self._cannot_of: dict[int, set[int]] = {}
        for a, b in self.constraints.must_link:
            self._must_of.setdefault(a, set()).add(b)
            self._must_of.setdefault(b, set()).add(a)
        for a, b in self.constraints.cannot_link:
            self._cannot_of.setdefault(a, set()).add(b)
            self._cannot_of.setdefault(b, set()).add(a)
        #: Cluster partition: mention -> representative (min member id),
        #: representative -> members / cached canonical name.
        self._cluster_of: dict[int, int] = {}
        self._members: dict[int, set[int]] = {}
        self._canonical: dict[int, str] = {}
        #: Cumulative block pairs visited (the E24 O(delta) gate reads this).
        self.total_pairs_scored = 0
        #: Mentions whose clusters the last apply/constraint call rebuilt —
        #: the set downstream fusion must re-tag canonical entities for.
        self.last_dirty: frozenset[int] = frozenset()

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._mentions)

    def mentions(self) -> list[Mention]:
        """Live mentions, ordered by mention id (the oracle's input)."""
        return [self._mentions[mid] for mid in sorted(self._mentions)]

    def mention(self, mention_id: int) -> Mention | None:
        """The live mention under ``mention_id``, or None."""
        return self._mentions.get(mention_id)

    def canonical_of(self, mention_id: int) -> str:
        """Canonical entity name of the cluster holding ``mention_id``."""
        return self._canonical[self._cluster_of[mention_id]]

    def clusters(self) -> list[EntityCluster]:
        """Current partition, identical to a from-scratch ``resolve``."""
        out: list[EntityCluster] = []
        for cluster_id, rep in enumerate(sorted(self._members)):
            out.append(EntityCluster(
                cluster_id=cluster_id,
                mention_ids=tuple(sorted(self._members[rep])),
                canonical_name=self._canonical[rep],
            ))
        return out

    # ------------------------------------------------------------- deltas

    def apply(self, added: Sequence[Mention] = (),
              changed: Sequence[Mention] = (),
              removed: Sequence[int] = ()) -> DeltaResolveStats:
        """Apply one mention delta; returns per-call work stats.

        ``changed`` mentions replace the live mention with the same id.
        One whose name (and so block) stayed is *edited* in place: its
        pairs are visited, their stored name scores re-adjusted for the
        new attributes, no name compared.  A renamed one leaves its block
        and is scored against its new one like an added mention.
        ``removed`` ids must be live; they leave for good, and the
        constraints naming them are released.  Pairs are visited in the
        order "drop removed and renamed, re-adjust edited, add by id", so
        ``pairs_scored`` is what dropping and re-adding every changed
        mention would visit.
        """
        live = self._mentions
        gone = set(removed) & live.keys()
        keeps_names = self.resolver.scorer is None
        edited: dict[int, Mention] = {}
        renamed: list[Mention] = []
        for mention in changed:
            mid = mention.mention_id
            old = live.get(mid)
            if (keeps_names and old is not None and old.name == mention.name
                    and self._block_of[mid] == self._block_key(mention)):
                edited[mid] = mention
            else:
                renamed.append(mention)
        replaced = {m.mention_id for m in renamed} & live.keys()
        touched = gone | replaced | edited.keys()
        # Old-graph closure first: a removal can split a component, and
        # the stranded remainder is only reachable through the old edges.
        old_dirty = self._closure(touched)
        for mid in sorted(gone | replaced):
            self._remove_mention(mid)
        for mid in gone:
            self._release(mid)
        for mid, mention in edited.items():
            live[mid] = mention
            self._attrs[mid] = mention.attr_dict()
        readjusted = sum(self._readjust(mid, edited) for mid in sorted(edited))
        incoming = sorted((*added, *renamed), key=lambda m: m.mention_id)
        compared = sum(self._add_mention(mention) for mention in incoming)
        self.resolver._count_name_comparisons(compared)
        affected = {m.mention_id for m in incoming} | edited.keys() | old_dirty
        affected &= live.keys()
        dirty = self._closure(affected)
        splits = self._recluster(dirty, gone=touched)
        pairs_scored = readjusted + compared
        self.total_pairs_scored += pairs_scored
        return DeltaResolveStats(
            pairs_scored=pairs_scored,
            dirty_mentions=len(dirty),
            clusters_rebuilt=len({self._cluster_of[m] for m in dirty}),
            clusters_split=splits,
        )

    def add_must(self, a: int, b: int) -> DeltaResolveStats:
        """Record a must-link answer and re-close the affected components."""
        return self._constrain(a, b, must=True)

    def add_cannot(self, a: int, b: int) -> DeltaResolveStats:
        """Record a cannot-link answer and re-close the affected components."""
        return self._constrain(a, b, must=False)

    def _constrain(self, a: int, b: int, must: bool) -> DeltaResolveStats:
        """Make ``a`` and ``b`` a must-link (``must``) or a cannot-link —
        either replaces the other — and re-cluster the closure of the two
        in the old link graph and in the new."""
        live = {a, b} & self._mentions.keys()
        seed = self._closure(live)
        if must:
            self.constraints.add_must(a, b)
            links, unlinks = self._must_of, self._cannot_of
        else:
            self.constraints.add_cannot(a, b)
            links, unlinks = self._cannot_of, self._must_of
        for x, y in ((a, b), (b, a)):
            unlinks.get(x, set()).discard(y)
            links.setdefault(x, set()).add(y)
        if len(live) == 2:  # the edge stands on a must-link or its score
            linked = must or self._scores.get(
                _norm(a, b), (None, -1.0))[1] >= self.resolver.threshold
            for x, y in ((a, b), (b, a)):
                if linked:
                    self._adj[x].add(y)
                else:
                    self._adj[x].discard(y)
        dirty = self._closure(seed | live)
        splits = self._recluster(dirty, gone=set())
        return DeltaResolveStats(dirty_mentions=len(dirty),
                                 clusters_split=splits)

    # ------------------------------------------------------------ plumbing

    def _block_key(self, mention: Mention) -> Hashable:
        key_fn = self.resolver.blocking_key
        return key_fn(mention) if key_fn is not None else ""

    def _remove_mention(self, mid: int) -> None:
        block = self._block_of.pop(mid)
        members = self._blocks[block]
        members.discard(mid)
        if not members:
            del self._blocks[block]
        for other in members:
            self._scores.pop(_norm(mid, other), None)
        for neighbor in self._adj.pop(mid, ()):  # must edges too
            self._adj[neighbor].discard(mid)
        del self._mentions[mid]
        del self._attrs[mid]

    def _release(self, mid: int) -> None:
        """Forget the constraints naming a mention that left for good."""
        for peers_of, links in (
                (self._must_of, self.constraints.must_link),
                (self._cannot_of, self.constraints.cannot_link)):
            for peer in peers_of.pop(mid, ()):
                links.discard(_norm(mid, peer))
                peers = peers_of.get(peer)
                if peers is not None:
                    peers.discard(mid)
                    if not peers:
                        del peers_of[peer]

    def _add_mention(self, mention: Mention) -> int:
        mid = mention.mention_id
        if mid in self._mentions:
            raise ValueError(f"mention {mid} already present")
        attrs = mention.attr_dict()
        block = self._block_key(mention)
        members = self._blocks.setdefault(block, set())
        threshold = self.resolver.threshold
        scorer, adjust = self.resolver.scorer, self.resolver._adjust
        adj = self._adj.setdefault(mid, set())
        for other in members:
            if scorer is not None:
                name_score = None
                score = scorer(mention, self._mentions[other])
            else:
                name_score = name_similarity(mention.name,
                                             self._mentions[other].name)
                score = adjust(name_score, attrs, self._attrs[other])
            self._scores[_norm(mid, other)] = (name_score, score)
            if score >= threshold:
                adj.add(other)
                self._adj[other].add(mid)
        scored = len(members)
        members.add(mid)
        self._block_of[mid] = block
        self._mentions[mid] = mention
        self._attrs[mid] = attrs
        for peer in self._must_of.get(mid, ()):
            if peer in self._mentions:
                adj.add(peer)
                self._adj[peer].add(mid)
        return scored

    def _readjust(self, mid: int, edited: dict[int, Mention]) -> int:
        """Re-link an edited mention to its block co-members under its new
        attributes; returns the pairs visited.  A pair of two edited
        mentions is visited once, by the later id."""
        attrs = self._attrs[mid]
        adj = self._adj[mid]
        must = self._must_of.get(mid, ())
        threshold, adjust = self.resolver.threshold, self.resolver._adjust
        visited = 0
        for other in self._blocks[self._block_of[mid]]:
            if other == mid or (other > mid and other in edited):
                continue
            visited += 1
            key = _norm(mid, other)
            name_score = self._scores[key][0]
            score = adjust(name_score, attrs, self._attrs[other])
            self._scores[key] = (name_score, score)
            if score >= threshold or other in must:
                adj.add(other)
                self._adj[other].add(mid)
            else:
                adj.discard(other)
                self._adj[other].discard(mid)
        return visited

    def _closure(self, seed: set[int]) -> set[int]:
        """Transitive closure of ``seed`` over the current link graph."""
        out = set(seed)
        frontier = list(seed)
        while frontier:
            node = frontier.pop()
            for neighbor in self._adj.get(node, ()):
                if neighbor not in out:
                    out.add(neighbor)
                    frontier.append(neighbor)
        return out

    def _recluster(self, dirty: set[int], gone: set[int]) -> int:
        """Replay the canonical merge order restricted to ``dirty``.

        Drops every cluster that intersects ``dirty`` or a departed
        mention, re-runs the batch merge procedure over the dirty set
        only (its own must / cannot links, not everyone's), and installs
        the resulting clusters.  Returns how many old clusters split into
        multiple new ones.
        """
        old_groups: list[set[int]] = []
        stale = {self._cluster_of[m] for m in dirty if m in self._cluster_of}
        stale |= {self._cluster_of[m] for m in gone if m in self._cluster_of}
        for rep in stale:
            group = self._members.pop(rep)
            old_groups.append(group)
            self._canonical.pop(rep, None)
            for member in group:
                self._cluster_of.pop(member, None)
        self.last_dirty = frozenset(dirty)
        if not dirty:
            return 0

        ids = sorted(dirty)
        threshold = self.resolver.threshold
        candidates = []
        for mid in ids:
            for neighbor in self._adj.get(mid, ()):
                if neighbor <= mid:
                    continue
                key = (mid, neighbor)
                scored = self._scores.get(key)
                if scored is not None and scored[1] >= threshold:
                    candidates.append((-scored[1], key))
        candidates.sort()
        groups = constrained_merge(
            ids,
            [(a, b) for a in ids for b in self._must_of.get(a, ()) if a < b],
            [(a, b) for a in ids for b in self._cannot_of.get(a, ()) if a < b],
            (key for _, key in candidates))
        new_reps: dict[int, int] = {}
        for group in map(set, groups):
            rep = min(group)
            self._members[rep] = group
            best = max((self._mentions[m] for m in group),
                       key=lambda m: (len(m.name), m.name))
            self._canonical[rep] = best.name
            for member in group:
                self._cluster_of[member] = rep
                new_reps[member] = rep
        splits = 0
        for group in old_groups:
            survivors = {new_reps[m] for m in group if m in new_reps}
            if len(survivors) > 1:
                splits += 1
        return splits
