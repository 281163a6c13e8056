"""Similarity flooding (Melnik, Garcia-Molina & Rahm, ICDE 2002).

The structural matcher the paper's second author invented: build a
*pairwise connectivity graph* whose nodes are pairs of elements, one
from each schema, and whose edges connect pairs that are linked by the
same edge label in both schemas; then iteratively propagate similarity
along those edges until a fixpoint.

Schema graph edge labels used here:

* ``attr`` — entity → its attribute;
* ``isa`` — entity → its parent entity;
* ``fk`` — FK source entity → target entity;
* ``type`` — attribute → its (base) primitive type node;
* ``assoc`` / ``contains`` — association and containment ends.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, sub
from typing import Optional

from repro.metamodel.schema import Schema
from repro.metamodel.types import base_primitive
from repro.operators.match.base import Matcher, SimilarityMatrix
from repro.operators.match.lexical import LexicalMatcher

#: A link column is summed in one pass while at least this many pairs
#: have a link in it; longer link lists finish pair by pair.
_MIN_COLUMN = 32


def _schema_graph(schema: Schema) -> list[tuple[str, str, str]]:
    """(from_node, label, to_node) edges; type nodes are shared across
    schemas by name (``type:int``)."""
    edges: list[tuple[str, str, str]] = []
    for entity in schema.entities.values():
        for attribute in entity.attributes:
            path = f"{entity.name}.{attribute.name}"
            edges.append((entity.name, "attr", path))
            edges.append(
                (path, "type", f"type:{base_primitive(attribute.data_type).name}")
            )
        if entity.parent is not None:
            edges.append((entity.name, "isa", entity.parent.name))
    for dep in schema.inclusion_dependencies():
        edges.append((dep.source, "fk", dep.target))
    for association in schema.associations.values():
        edges.append(
            (association.source.entity.name, "assoc",
             association.target.entity.name)
        )
    for containment in schema.containments.values():
        edges.append((containment.parent.name, "contains",
                      containment.child.name))
    return edges


class SimilarityFlooding(Matcher):
    """Fixpoint similarity propagation over the pairwise connectivity
    graph, seeded by a lexical matcher."""

    name = "similarity-flooding"

    def __init__(
        self,
        iterations: int = 20,
        epsilon: float = 1e-4,
        seed_matcher: Matcher | None = None,
    ):
        self.iterations = iterations
        self.epsilon = epsilon
        self.seed_matcher = seed_matcher or LexicalMatcher()

    def similarity(
        self,
        source: Schema,
        target: Schema,
        seed: Optional[SimilarityMatrix] = None,
    ) -> SimilarityMatrix:
        """Flood from ``seed``, or from the seed matcher's matrix when
        no seed is given."""
        if seed is None:
            seed = self.seed_matcher.similarity(source, target)

        # Pairwise connectivity graph: for same-labelled edges
        # (a --L--> b) and (a' --L--> b'), pair (a, a') feeds (b, b')
        # and vice versa.
        propagation: dict[tuple[str, str], list[tuple[str, str]]] = {}
        by_label_target: dict[str, list[tuple[str, str]]] = {}
        for from_node, label, to_node in _schema_graph(target):
            by_label_target.setdefault(label, []).append((from_node, to_node))
        for s_from, label, s_to in _schema_graph(source):
            for t_from, t_to in by_label_target.get(label, []):
                from_pair, to_pair = (s_from, t_from), (s_to, t_to)
                propagation.setdefault(from_pair, []).append(to_pair)
                propagation.setdefault(to_pair, []).append(from_pair)

        # Edges are symmetric, so the pairs feeding i are the pairs i
        # feeds, and i's incoming sum adds them left to right in that
        # order (the order fixes the float result).  Pairs are numbered
        # by falling degree, so the pairs that have a p-th link are a
        # prefix of the numbering and column p adds every such pair's
        # p-th term in one pass.  The few pairs with more links than the
        # wide columns cover (type pairs link to thousands) finish their
        # sums one by one.
        pairs = sorted(propagation, key=lambda pair: -len(propagation[pair]))
        index = {pair: position for position, pair in enumerate(pairs)}
        fed_by = [[index[other] for other in propagation[pair]] for pair in pairs]
        # Column p is wide while the _MIN_COLUMN-th pair has a p-th link.
        wide = len(fed_by[_MIN_COLUMN - 1]) if len(fed_by) >= _MIN_COLUMN else 0
        columns: list[list[int]] = [[] for _ in range(wide)]
        for fed in fed_by:
            for column, j in zip(columns, fed):
                column.append(j)
        tails = [
            (position, fed[wide:])
            for position, fed in enumerate(fed_by) if len(fed) > wide
        ]

        # Fanout-weighted coefficients (the 1/outdegree of the PCG):
        # pair j passes σ(j)/|fed_by[j]| to each pair it feeds.
        coefficients = [1.0 / len(fed) for fed in fed_by]

        # Initial σ⁰: seed scores for element pairs, 1.0 for shared type
        # nodes (they are identical constants).
        sigma: list[float] = []
        for s_node, t_node in pairs:
            if s_node.startswith("type:") or t_node.startswith("type:"):
                sigma.append(1.0 if s_node == t_node else 0.0)
            else:
                sigma.append(seed.get(s_node, t_node))

        for _ in range(self.iterations):
            passed = list(map(mul, sigma, coefficients))
            incoming = [0.0] * len(pairs)
            for column in columns:
                width = len(column)
                incoming[:width] = map(
                    add, incoming[:width], map(passed.__getitem__, column)
                )
            for position, tail in tails:
                incoming[position] = reduce(
                    add, map(passed.__getitem__, tail), incoming[position]
                )
            updated = list(map(add, sigma, incoming))
            best = max(updated, default=1.0)
            if best > 0:
                updated = [score / best for score in updated]
            delta = max(map(abs, map(sub, updated, sigma)), default=0.0)
            sigma = updated
            if delta < self.epsilon:
                break

        matrix = SimilarityMatrix(source, target)
        for (s_node, t_node), score in zip(pairs, sigma):
            if s_node.startswith("type:") or t_node.startswith("type:"):
                continue
            if score > 0.01:
                matrix.set(s_node, t_node, score)
        # Elements disconnected in the PCG keep their seed score.
        for s_path, t_path, score in seed.items():
            if matrix.get(s_path, t_path) == 0.0:
                matrix.set(s_path, t_path, score * 0.5)
        return matrix
