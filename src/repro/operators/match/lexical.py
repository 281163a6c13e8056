"""Lexical matching: name-based similarity.

Combines three classic signals on tokenized identifiers:

* exact / prefix-abbreviation token matches ("Dept" vs "Department");
* trigram Dice coefficient on the raw names;
* normalized Levenshtein distance.

Tokenization splits camelCase, snake_case, digits and common
separators, so ``billingAddr`` and ``billing_address`` share tokens.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.metamodel.schema import Schema
from repro.operators.match.base import Matcher, SimilarityMatrix

_SPLITTER = re.compile(
    r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+"
)


@lru_cache(maxsize=65536)
def tokenize(identifier: str) -> tuple[str, ...]:
    """Split an identifier into lowercase tokens.

    >>> tokenize("billingAddr")
    ('billing', 'addr')
    >>> tokenize("CUSTOMER_ID2")
    ('customer', 'id', '2')
    """
    return tuple(t.lower() for t in _SPLITTER.findall(identifier))


@lru_cache(maxsize=65536)
def _trigrams(text: str) -> frozenset[str]:
    padded = f"  {text.lower()} "
    return frozenset(padded[i : i + 3] for i in range(len(padded) - 2))


def _dice(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return 2 * len(a & b) / (len(a) + len(b))


@lru_cache(maxsize=65536)
def _levenshtein(a: str, b: str) -> int:
    """Edit distance by Hyyrö's bit-parallel form of Myers' algorithm:
    one column of the DP matrix per character of ``b``, held as the
    vertical deltas (+1 in ``plus``, -1 in ``minus``) of its
    ``len(a)`` cells, bit i for row i + 1."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    matches: dict[str, int] = {}
    for i, ch in enumerate(a):
        matches[ch] = matches.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    plus, minus, distance = full, 0, len(a)
    for ch in b:
        eq = matches.get(ch, 0) | minus
        diagonal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(diagonal | plus)
        h_minus = plus & diagonal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = (h_plus << 1) | 1
        h_minus <<= 1
        plus = (h_minus | ~(diagonal | h_plus)) & full
        minus = h_plus & diagonal & full
    return distance


@lru_cache(maxsize=65536)
def _token_pair_score(token_a: str, token_b: str) -> float:
    """Similarity of two tokens: equal, prefix, abbreviation, or
    scaled edit distance."""
    if token_a == token_b:
        return 1.0
    if token_a.startswith(token_b) or token_b.startswith(token_a):
        return 0.85
    if _is_abbreviation(token_a, token_b) or _is_abbreviation(token_b, token_a):
        return 0.75
    distance = _levenshtein(token_a, token_b)
    longest = max(len(token_a), len(token_b))
    return max(0.0, 1.0 - distance / longest) * 0.7


def _token_similarity(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    """Greedy best-pair token alignment with abbreviation awareness."""
    if not a or not b:
        return 0.0
    total = 0.0
    used: set[int] = set()
    for token_a in a:
        best, best_index = 0.0, -1
        for index, token_b in enumerate(b):
            if index in used:
                continue
            score = _token_pair_score(token_a, token_b)
            if score > best:
                best, best_index = score, index
        if best_index >= 0 and best > 0.3:
            used.add(best_index)
            total += best
    return total / max(len(a), len(b))


def _is_abbreviation(short: str, long: str) -> bool:
    """True when ``short`` plausibly abbreviates ``long``: either
    ``long`` with (some) vowels removed ("addr"/"address") or an
    in-order character selection sharing a 2-char prefix
    ("dept"/"department")."""
    if len(short) >= len(long) or len(short) < 2:
        return False
    if short[0] != long[0]:
        return False
    position = 0
    for ch in long:
        if position < len(short) and ch == short[position]:
            position += 1
        elif ch in "aeiou":
            continue
        else:
            break
    if position == len(short):
        return True
    if len(short) >= 3 and short[:2] == long[:2]:
        position = 0
        for ch in long:
            if position < len(short) and ch == short[position]:
                position += 1
        return position == len(short)
    return False


def name_similarity(a: str, b: str) -> float:
    """Overall lexical similarity of two element names in [0, 1]."""
    if a == b:
        return 1.0
    if a.lower() == b.lower():
        return 0.98
    tokens = _token_similarity(tokenize(a), tokenize(b))
    trigram = _dice(_trigrams(a), _trigrams(b))
    distance = _levenshtein(a.lower(), b.lower())
    edit = max(0.0, 1.0 - distance / max(len(a), len(b)))
    return max(tokens, 0.5 * trigram + 0.5 * edit)


class LexicalMatcher(Matcher):
    """Name similarity on the final path segment (attribute or entity
    name), with a small bonus when the owning entities also match."""

    name = "lexical"

    def __init__(self, floor: float = 0.05):
        self.floor = floor

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source, target)
        entity_scores: dict[tuple[str, str], float] = {}
        for s_entity in source.entities:
            for t_entity in target.entities:
                score = name_similarity(s_entity, t_entity)
                entity_scores[(s_entity, t_entity)] = score
                if score > self.floor:
                    matrix.set(s_entity, t_entity, score)
        target_attrs = [
            (t_path, *t_path.split(".", 1))
            for t_path in self.attribute_paths(target)
        ]
        # Attribute names repeat across entities: score each distinct
        # name pair once per call.
        names: dict[tuple[str, str], float] = {}
        for s_path in self.attribute_paths(source):
            s_entity, s_attr = s_path.split(".", 1)
            for t_path, t_entity, t_attr in target_attrs:
                score = names.get((s_attr, t_attr))
                if score is None:
                    score = names[(s_attr, t_attr)] = name_similarity(
                        s_attr, t_attr
                    )
                owner = entity_scores.get((s_entity, t_entity), 0.0)
                blended = 0.85 * score + 0.15 * owner
                if blended > self.floor:
                    matrix.set(s_path, t_path, blended)
        return matrix
