"""Per-relation statistics: the substrate for cardinality estimation.

The ROADMAP's cost-based-optimization item needs per-relation
cardinalities, per-column distinct counts and value distributions, and
*feedback* (estimate vs. actual divergence).  This module holds the
data model; the instances layer maintains it (see
:meth:`repro.instances.database.Instance.relation_stats`, which caches
a :class:`RelationStats` per relation under the same validation
contract as the persistent attribute indexes and cached column
batches: appends absorbed in place (:meth:`RelationStats.absorb`),
removals retracted in place (:meth:`RelationStats.retract`), list
replacement and epoch bumps rebuilding), and
:mod:`repro.algebra.estimate` consumes it.

A :class:`ColumnStats` keeps an exact value→count map (the engine's
relations are small enough that a full frequency table is cheaper than
maintaining an approximate sketch would be to get right), which yields
distinct counts, null/labeled-null fractions, min/max over ordered
values, and a most-common-values view — everything the classical
selectivity rules need.

The :data:`ESTIMATION` config also lives here: the divergence factor
beyond which an EXPLAIN ANALYZE node is flagged (the hook the
PlanCache evict/refingerprint feedback loop will key on) and the
most-common-values sketch size.
"""

from __future__ import annotations

from operator import ne
from typing import Iterable, Mapping, Optional, Sequence

from repro.instances.labeled_null import LabeledNull

#: Number kinds that participate in min/max tracking together
#: (``bool`` is an ``int`` in Python and orders with numbers).
_NUMERIC = (int, float)


class EstimationConfig:
    """Tunables for the estimator and its divergence flagging."""

    __slots__ = ("divergence_factor", "mcv_size")

    DEFAULT_DIVERGENCE_FACTOR = 4.0
    DEFAULT_MCV_SIZE = 8

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.divergence_factor = self.DEFAULT_DIVERGENCE_FACTOR
        self.mcv_size = self.DEFAULT_MCV_SIZE


#: Process-wide estimator configuration (reset by
#: :func:`repro.observability.reset`).
ESTIMATION = EstimationConfig()


def _stat_key(value: object) -> object:
    """A hashable frequency-table key for an arbitrary cell value —
    the same images :func:`repro.instances.database.hashable_key`
    produces, computed here without importing the instances layer
    (which imports us lazily)."""
    try:
        hash(value)
    except TypeError:
        return ("<unhashable>", repr(value))
    return value


def _value_kind(value_type: type) -> str:
    """The ordering kind :meth:`ColumnStats.observe` gives values of
    ``value_type``."""
    if issubclass(value_type, _NUMERIC):
        return "num"
    if issubclass(value_type, str):
        return "str"
    return "off"


def _leads_with_nan(rows: Sequence[Mapping[str, object]], name: str) -> bool:
    """Is the first value of column ``name`` that :meth:`ColumnStats.observe`
    would order a NaN?  (Then a from-scratch build's min and max are
    that NaN.)  Usually decided by the first row."""
    for row in rows:
        value = row.get(name)
        if value is not None and not isinstance(value, LabeledNull):
            return value != value
    return False


def display_key(key: object) -> object:
    """The human-facing form of a frequency-table key."""
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "<unhashable>":
        return key[1]
    return key


class ColumnStats:
    """Frequency statistics for one column of one relation.

    ``counts`` maps value keys (see :func:`_stat_key`) of non-null,
    non-labeled-null cells to their multiplicity; ``present`` counts
    rows carrying the column at all (relations are ragged);
    ``nulls``/``labeled`` count SQL nulls and labeled nulls.  ``lo`` /
    ``hi`` track min/max while every observed value stays within one
    ordered kind (all numbers, or all strings) — a mixed column turns
    ordering off rather than guessing a cross-type order.
    """

    __slots__ = ("present", "nulls", "labeled", "counts", "kind", "lo", "hi")

    def __init__(self) -> None:
        self.present = 0
        self.nulls = 0
        self.labeled = 0
        self.counts: dict[object, int] = {}
        self.kind: Optional[str] = None  # None | "num" | "str" | "off"
        self.lo: object = None
        self.hi: object = None

    # ------------------------------------------------------------------
    def observe(self, value: object) -> None:
        self.present += 1
        if value is None:
            self.nulls += 1
            return
        if isinstance(value, LabeledNull):
            self.labeled += 1
            return
        key = _stat_key(value)
        self.counts[key] = self.counts.get(key, 0) + 1
        kind = self.kind
        if kind == "off":
            return
        if isinstance(value, _NUMERIC):
            value_kind = "num"
        elif isinstance(value, str):
            value_kind = "str"
        else:
            value_kind = "off"
        if kind is None:
            self.kind = value_kind
            if value_kind != "off":
                self.lo = self.hi = value
            return
        if value_kind != kind:
            self.kind = "off"
            self.lo = self.hi = None
            return
        if value < self.lo:
            self.lo = value
        elif value > self.hi:
            self.hi = value

    def retract(self, value: object) -> bool:
        """Undo one earlier :meth:`observe` of ``value``.

        Counts are decremented exactly; ``kind``/``lo``/``hi`` are left
        alone.  Returns True when the retraction removed the last copy
        of a value that may have set them (an extreme, or any value of
        an ``"off"`` column): :meth:`refresh_order` is then due, which
        the caller runs once per column per removal batch."""
        self.present -= 1
        if value is None:
            self.nulls -= 1
            return False
        if isinstance(value, LabeledNull):
            self.labeled -= 1
            return False
        key = _stat_key(value)
        counts = self.counts
        count = counts[key] - 1
        if count:
            counts[key] = count
            return False
        del counts[key]
        return self.kind == "off" or key == self.lo or key == self.hi

    def refresh_order(self) -> bool:
        """Recompute ``kind``/``lo``/``hi`` from the surviving values.

        :meth:`observe` makes ``lo``/``hi`` the ``min``/``max`` of the
        values in row order, which is order-free unless a NaN is among
        them; then this returns False, and the statistics cannot be
        kept exact without the row order."""
        keys = self.counts.keys()
        if not keys:
            self.kind = None
            self.lo = self.hi = None
            return True
        kind = self.kind
        if kind == "off":
            # Retractions cannot mix a column, but they can unmix one.
            kinds = {_value_kind(t) for t in set(map(type, keys))}
            kind = kinds.pop() if len(kinds) == 1 else "off"
            self.kind = kind
            if kind == "off":
                self.lo = self.hi = None
                return True
        if kind == "num" and any(map(ne, keys, keys)):
            return False
        self.lo = min(keys)
        self.hi = max(keys)
        return True

    # ------------------------------------------------------------------
    @property
    def distinct(self) -> int:
        """Distinct non-null values (labeled nulls counted separately)."""
        return len(self.counts)

    @property
    def non_null(self) -> int:
        return self.present - self.nulls - self.labeled

    def frequency(self, value: object) -> Optional[int]:
        """Exact occurrence count of ``value``, or None when the column
        was never observed (callers fall back to default selectivity)."""
        if not self.present:
            return None
        return self.counts.get(_stat_key(value), 0)

    def most_common(self, k: Optional[int] = None) -> list[tuple[object, int]]:
        """The top-``k`` (value, count) pairs, most frequent first —
        the MCV sketch (ties broken by value repr for determinism)."""
        if k is None:
            k = ESTIMATION.mcv_size
        ranked = sorted(
            self.counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        return [(display_key(key), count) for key, count in ranked[:k]]

    @property
    def ordered(self) -> bool:
        return self.kind in ("num", "str") and self.lo is not None

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnStats):
            return NotImplemented
        return (
            self.present == other.present
            and self.nulls == other.nulls
            and self.labeled == other.labeled
            and self.counts == other.counts
            and self.kind == other.kind
            and self.lo == other.lo
            and self.hi == other.hi
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnStats present={self.present} distinct={self.distinct} "
            f"nulls={self.nulls} labeled={self.labeled} kind={self.kind}>"
        )

    def to_dict(self, mcv: Optional[int] = None) -> dict:
        return {
            "present": self.present,
            "distinct": self.distinct,
            "nulls": self.nulls,
            "labeled_nulls": self.labeled,
            "min": self.lo,
            "max": self.hi,
            "most_common": [
                [repr(value), count] for value, count in self.most_common(mcv)
            ],
        }


class RelationStats:
    """Row count plus per-column :class:`ColumnStats` for one relation.

    Built once from the backing rows, then *absorbed* forward on
    appends (:meth:`absorb`) and *retracted* on removals
    (:meth:`retract`), so keeping statistics fresh costs work
    proportional to the rows changed since the last read, not to the
    relation.
    """

    __slots__ = ("relation", "rows", "columns")

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.rows = 0
        self.columns: dict[str, ColumnStats] = {}

    @classmethod
    def from_rows(
        cls, relation: str, rows: Iterable[Mapping[str, object]]
    ) -> "RelationStats":
        stats = cls(relation)
        stats.absorb(rows)
        return stats

    def absorb(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Fold freshly appended rows into the statistics in place."""
        columns = self.columns
        added = 0
        for row in rows:
            added += 1
            for name, value in row.items():
                column = columns.get(name)
                if column is None:
                    column = columns[name] = ColumnStats()
                column.observe(value)
        self.rows += added

    def retract(
        self,
        rows: Iterable[Mapping[str, object]],
        survivors: Sequence[Mapping[str, object]],
    ) -> bool:
        """Fold removed rows out of the statistics in place.

        ``rows`` must have been absorbed before; ``survivors`` are the
        relation's remaining rows in order, starting with those the
        statistics still cover (later rows may follow).  Counts are exact; a
        column no survivor carries is dropped; ``kind``/``lo``/``hi``
        are recomputed once per column, and only when a retraction left
        them stale.  Returns False when the result cannot be made equal
        to a from-scratch build without a full pass (a numeric column
        whose min/max a NaN decides, since that depends on row order):
        the caller must then rebuild."""
        columns = self.columns
        stale: dict[str, bool] = {}
        removed = 0
        for row in rows:
            removed += 1
            for name, value in row.items():
                if columns[name].retract(value):
                    stale[name] = True
                else:
                    stale.setdefault(name, False)
        self.rows -= removed
        for name, refresh in stale.items():
            column = columns[name]
            if not column.present:
                del columns[name]
            elif refresh:
                if not column.refresh_order():
                    return False
            elif column.kind == "num" and (
                column.lo != column.lo or _leads_with_nan(survivors, name)
            ):
                return False
        return True

    # ------------------------------------------------------------------
    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def null_fraction(self, name: str) -> float:
        """Fraction of rows where ``name`` is SQL null, a labeled null,
        or absent altogether (``IS NULL`` treats all three as null)."""
        if not self.rows:
            return 0.0
        column = self.columns.get(name)
        if column is None:
            return 1.0
        missing = self.rows - column.present
        return (column.nulls + column.labeled + missing) / self.rows

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationStats):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.rows == other.rows
            and self.columns == other.columns
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelationStats {self.relation} rows={self.rows} "
            f"columns={sorted(self.columns)}>"
        )

    def to_dict(self, mcv: Optional[int] = None) -> dict:
        return {
            "relation": self.relation,
            "rows": self.rows,
            "columns": {
                name: self.columns[name].to_dict(mcv)
                for name in sorted(self.columns)
            },
        }

    def render(self) -> str:
        """A compact human-readable table, one line per column."""
        lines = [f"{self.relation}: {self.rows} rows"]
        for name in sorted(self.columns):
            column = self.columns[name]
            parts = [
                f"distinct={column.distinct}",
                f"nulls={column.nulls + column.labeled}"
                f"/{self.rows}",
            ]
            if column.ordered:
                parts.append(f"min={column.lo!r} max={column.hi!r}")
            mcv = column.most_common(3)
            if mcv:
                shown = ", ".join(f"{v!r}×{c}" for v, c in mcv)
                parts.append(f"mcv=[{shown}]")
            lines.append(f"  {name}: " + "  ".join(parts))
        return "\n".join(lines)
