"""String and set similarity measures used across integration."""

from __future__ import annotations

import math
import re
from collections import Counter

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def tokens_of(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of a string."""
    return [t.lower() for t in _WORD_RE.findall(text)]


def jaccard(a: str, b: str) -> float:
    """Jaccard similarity of the token sets of two strings, in [0, 1]."""
    set_a, set_b = set(tokens_of(a)), set(tokens_of(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute, unit costs)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - normalized edit distance, in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaro(a: str, b: str) -> float:
    """Jaro similarity, in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len(a)):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = matches
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler similarity (boosts shared prefixes), in [0, 1]."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca == cb:
            prefix += 1
        else:
            break
    return base + prefix * prefix_scale * (1.0 - base)


def token_cosine(a: str, b: str) -> float:
    """Cosine similarity of token-count vectors, in [0, 1]."""
    vec_a, vec_b = Counter(tokens_of(a)), Counter(tokens_of(b))
    if not vec_a or not vec_b:
        return 1.0 if not vec_a and not vec_b else 0.0
    dot = sum(vec_a[t] * vec_b[t] for t in vec_a.keys() & vec_b.keys())
    norm_a = math.sqrt(sum(c * c for c in vec_a.values()))
    norm_b = math.sqrt(sum(c * c for c in vec_b.values()))
    return dot / (norm_a * norm_b)


def _is_initial(token: str) -> bool:
    return len(token) == 1


def name_similarity(a: str, b: str) -> float:
    """Similarity specialized for person names, in [0, 1].

    Handles the paper's "David Smith" vs "D. Smith" example: an initial
    matches any full token with the same first letter.  Tokens are compared
    greedily; the score is the fraction of aligned tokens weighted by their
    per-token similarity (Jaro–Winkler for full tokens, 0.9 for
    initial-to-full matches).

    The greedy alignment runs from one canonical side — the shorter token
    list, ties broken by the token lists themselves — so the score does
    not depend on argument order: batch resolution scores (earlier, later)
    and incremental resolution (new, existing), and both must agree.
    """
    tokens_a, tokens_b = tokens_of(a), tokens_of(b)
    if not tokens_a or not tokens_b:
        return 1.0 if tokens_a == tokens_b else 0.0
    if (len(tokens_a), tokens_a) > (len(tokens_b), tokens_b):
        tokens_a, tokens_b = tokens_b, tokens_a
    used = [False] * len(tokens_b)
    total = 0.0
    for ta in tokens_a:
        best_score, best_j = 0.0, -1
        for j, tb in enumerate(tokens_b):
            if used[j]:
                continue
            if ta == tb:
                score = 1.0
            elif _is_initial(ta) and tb.startswith(ta):
                score = 0.9
            elif _is_initial(tb) and ta.startswith(tb):
                score = 0.9
            else:
                score = jaro_winkler(ta, tb)
                if score < 0.8:
                    score = 0.0
            if score > best_score:
                best_score, best_j = score, j
        if best_j >= 0:
            used[best_j] = True
            total += best_score
    return total / max(len(tokens_a), len(tokens_b))
