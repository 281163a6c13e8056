"""Matcher interface and the similarity matrix they produce."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Optional

from repro.metamodel.schema import Schema


class SimilarityMatrix:
    """Sparse similarity scores between element paths of two schemas.

    Scores live in [0, 1]; absent pairs are 0.  Scores are kept per
    source row, so one source element's candidates cost O(row) to
    rank.  Matrices combine by weighted sum (:meth:`blend`).  Equal
    scores rank by the target's position in
    ``target.all_element_paths()``.
    """

    def __init__(self, source: Schema, target: Schema):
        self.source = source
        self.target = target
        self._rows: dict[str, dict[str, float]] = {}
        self._target_rank: Optional[dict[str, int]] = None

    def set(self, source_path: str, target_path: str, score: float) -> None:
        if score <= 0.0:
            row = self._rows.get(source_path)
            if row is not None:
                row.pop(target_path, None)
                if not row:
                    del self._rows[source_path]
        else:
            row = self._rows.get(source_path)
            if row is None:
                row = self._rows[source_path] = {}
            row[target_path] = min(1.0, score)

    def get(self, source_path: str, target_path: str) -> float:
        row = self._rows.get(source_path)
        return 0.0 if row is None else row.get(target_path, 0.0)

    def row(self, source_path: str) -> dict[str, float]:
        """A copy of one source element's nonzero scores."""
        return dict(self._rows.get(source_path, ()))

    def sources(self) -> list[str]:
        """Source elements with at least one nonzero score."""
        return list(self._rows)

    def items(self) -> Iterator[tuple[str, str, float]]:
        for source_path, row in self._rows.items():
            for target_path, score in row.items():
                yield source_path, target_path, score

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def blend(self, others: Iterable[tuple["SimilarityMatrix", float]]) -> "SimilarityMatrix":
        """Weighted combination of this matrix (weight folded in by the
        caller) with others; pairs missing from a matrix contribute 0."""
        result = SimilarityMatrix(self.source, self.target)
        weighted = list(others)
        weights = [weight for _, weight in weighted]
        sources = dict.fromkeys(self._rows)
        for matrix, _ in weighted:
            sources.update(dict.fromkeys(matrix._rows))
        empty: dict[str, float] = {}
        for source_path in sources:
            own = self._rows.get(source_path, empty)
            rows = [matrix._rows.get(source_path, empty)
                    for matrix, _ in weighted]
            targets = dict.fromkeys(own)
            for row in rows:
                targets.update(dict.fromkeys(row))
            blended: dict[str, float] = {}
            for target_path in targets:
                total = own.get(target_path, 0.0)
                for row, weight in zip(rows, weights):
                    total += weight * row.get(target_path, 0.0)
                if total > 0:
                    blended[target_path] = min(1.0, total)
            if blended:
                result._rows[source_path] = blended
        return result

    def scale(self, factor: float) -> "SimilarityMatrix":
        result = SimilarityMatrix(self.source, self.target)
        for source_path, row in self._rows.items():
            result._rows[source_path] = {
                target_path: score * factor for target_path, score in row.items()
            }
        return result

    def best_for_source(self, source_path: str, k: int = 1) -> list[tuple[str, float]]:
        """The ``k`` highest-scoring targets of one source element."""
        row = self._rows.get(source_path)
        if not row:
            return []
        if self._target_rank is None:
            self._target_rank = {
                str(p.path): position
                for position, p in enumerate(self.target.all_element_paths())
            }
        rank = self._target_rank
        last = len(rank)
        return heapq.nsmallest(
            k, row.items(), key=lambda item: (-item[1], rank.get(item[0], last))
        )


class Matcher:
    """Base class: produce a similarity matrix for a schema pair."""

    name: str = "matcher"

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        raise NotImplementedError

    @staticmethod
    def attribute_paths(schema: Schema) -> list[str]:
        return [
            str(p.path)
            for p in schema.all_element_paths()
            if not p.is_entity
        ]

    @staticmethod
    def entity_paths(schema: Schema) -> list[str]:
        return list(schema.entities)
