"""Statistics service: maintenance invariants and estimator rules.

The central invariant: however a relation got to its current rows —
appends absorbed in place, removals retracted in place, clears, epoch
bumps — the cached :class:`RelationStats` and column batch the instance
serves must equal the statistics and batch built from scratch over the
current rows.  The randomized test drives arbitrary mutation sequences
(including labeled nulls, SQL nulls, ragged rows, and unhashable cells)
and checks that equality after every step.
"""

import math
import random

import pytest

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.estimate import (
    divergence_ratio,
    estimate_expr,
    worst_divergent,
)
from repro.algebra.plan_cache import PlanCache
from repro.instances.columnar import ColumnBatch
from repro.instances.database import Instance
from repro.instances.labeled_null import LabeledNull
from repro.observability.stats import (
    ColumnStats,
    ESTIMATION,
    RelationStats,
)


# ----------------------------------------------------------------------
# ColumnStats unit behavior
# ----------------------------------------------------------------------
def test_column_stats_basic_counts():
    stats = ColumnStats()
    for value in [1, 2, 2, None, LabeledNull("x"), 3]:
        stats.observe(value)
    assert stats.present == 6
    assert stats.nulls == 1
    assert stats.labeled == 1
    assert stats.non_null == 4
    assert stats.distinct == 3
    assert stats.frequency(2) == 2
    assert stats.frequency(99) == 0
    assert stats.lo == 1 and stats.hi == 3


def test_column_stats_never_observed_frequency_is_none():
    assert ColumnStats().frequency(1) is None


def test_column_stats_mixed_kinds_turn_ordering_off():
    stats = ColumnStats()
    stats.observe(1)
    stats.observe("a")
    assert stats.kind == "off"
    assert not stats.ordered
    assert stats.lo is None and stats.hi is None
    # Ordering stays off even if later values are homogeneous.
    stats.observe(5)
    assert not stats.ordered


def test_column_stats_string_minmax():
    stats = ColumnStats()
    for value in ["pear", "apple", "plum"]:
        stats.observe(value)
    assert stats.ordered
    assert stats.lo == "apple" and stats.hi == "plum"


def test_column_stats_unhashable_values_counted():
    stats = ColumnStats()
    stats.observe([1, 2])
    stats.observe([1, 2])
    stats.observe([3])
    assert stats.distinct == 2
    assert stats.frequency([1, 2]) == 2


def test_most_common_is_deterministic_and_bounded():
    stats = ColumnStats()
    for value in ["b", "a", "b", "c", "a", "b"]:
        stats.observe(value)
    assert stats.most_common(2) == [("b", 3), ("a", 2)]
    # Default size comes from the estimator config.
    ESTIMATION.mcv_size = 1
    assert stats.most_common() == [("b", 3)]


def test_relation_stats_null_fraction_counts_missing_columns():
    rs = RelationStats.from_rows(
        "r",
        [{"a": 1, "b": None}, {"a": 2}, {"a": LabeledNull("n"), "b": 3}],
    )
    assert rs.rows == 3
    assert rs.null_fraction("a") == pytest.approx(1 / 3)
    # b: one null + one missing row.
    assert rs.null_fraction("b") == pytest.approx(2 / 3)
    # Column never observed at all.
    assert rs.null_fraction("zzz") == 1.0


# ----------------------------------------------------------------------
# incremental maintenance == from scratch
# ----------------------------------------------------------------------
def _random_value(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return LabeledNull(f"n{rng.randrange(5)}")
    if roll < 0.6:
        return rng.randrange(8)
    if roll < 0.85:
        return rng.choice(["x", "y", "z"])
    return [rng.randrange(3)]  # unhashable


def _random_row(rng: random.Random) -> dict:
    row = {}
    for name in ("a", "b", "c"):
        if rng.random() < 0.3:
            continue  # ragged: column absent from this row
        row[name] = _random_value(rng)
    return row


def _homogeneous_row(rng: random.Random) -> dict:
    """Every row carries every column (so the cached batch stays full
    and removals take the copy-on-write path); mostly numbers, so
    min/max move as rows go.  Key order varies now and then, which
    changes the batch's column order when the first row goes."""
    names = ["k", "v", "w"]
    if rng.random() < 0.1:
        rng.shuffle(names)
    row = {}
    for name in names:
        roll = rng.random()
        if roll < 0.7:
            row[name] = rng.randrange(20)
        elif roll < 0.8:
            row[name] = rng.choice(["x", "y"])
        else:
            row[name] = _random_value(rng)
    return row


def _assert_fresh(instance: Instance) -> None:
    """Cached statistics and column batches equal from-scratch builds."""
    for relation in instance.relation_names():
        rows = list(instance.rows(relation))
        expected = RelationStats.from_rows(relation, rows)
        assert instance.relation_stats(relation) == expected, relation
        batch = instance.column_batch(relation)
        scratch = ColumnBatch.from_rows(rows)
        assert batch.names == scratch.names, relation
        assert batch.nrows == scratch.nrows == len(rows), relation
        for name in scratch.names:
            assert batch.cols[name].present == scratch.cols[name].present
        assert batch.to_rows() == scratch.to_rows() == rows, relation


_MAKERS = {"r": _random_row, "s": _random_row, "h": _homogeneous_row}


def _mutate(instance: Instance, rng: random.Random) -> None:
    relation = rng.choice(sorted(_MAKERS))
    action = rng.random()
    if action < 0.5:
        instance.insert_all(
            relation,
            [_MAKERS[relation](rng) for _ in range(rng.randrange(1, 5))],
        )
    elif action < 0.75:
        rows = list(instance.rows(relation))
        if rows:
            victims = rng.sample(rows, rng.randrange(1, min(len(rows), 4) + 1))
            instance.remove_rows(relation, victims)
    elif action < 0.85:
        column = rng.choice(["a", "b", "k", "v"])
        value = rng.randrange(8)
        instance.delete(relation, lambda row: row.get(column) == value)
    elif action < 0.9:
        instance.clear(relation)
    elif action < 0.95:
        instance.mark_dirty()
    # else: no mutation — exercise the cache-hit path


@pytest.mark.parametrize("seed", range(12))
def test_randomized_maintenance_matches_from_scratch(seed):
    rng = random.Random(seed)
    instance = Instance()
    for _ in range(80):
        # Several mutations per step, so removals also meet rows
        # appended after the last read (a partly absorbed watermark).
        for _ in range(rng.randrange(1, 4)):
            _mutate(instance, rng)
        _assert_fresh(instance)


def _primed(rows: list[dict]) -> Instance:
    instance = Instance()
    instance.insert_all("r", rows)
    instance.relation_stats("r")
    instance.column_batch("r")
    return instance


def _remove_where(instance: Instance, predicate) -> None:
    victims = [row for row in instance.rows("r") if predicate(row)]
    assert victims
    instance.remove_rows("r", victims)


def _retracted(instance: Instance) -> tuple[int, int]:
    counters = instance.index_stats
    return counters["stats_retracts"], counters["stats_rebuilds"]


def test_removing_the_min_or_max_recomputes_them():
    instance = _primed([{"a": v} for v in (5, 1, 9, 1, 7)])
    _remove_where(instance, lambda row: row["a"] == 9)
    assert instance.relation_stats("r").column("a").hi == 7
    _assert_fresh(instance)
    _remove_where(instance, lambda row: row["a"] == 1)
    assert instance.relation_stats("r").column("a").lo == 5
    _assert_fresh(instance)
    assert _retracted(instance) == (2, 1)  # the one rebuild is the first read


def test_removing_one_copy_of_an_extreme_keeps_it():
    instance = _primed([{"a": v} for v in (3, 1, 1, 4)])
    _remove_where(instance, lambda row: row is instance.rows("r")[1])
    assert instance.relation_stats("r").column("a").lo == 1
    _assert_fresh(instance)


def test_mixed_column_becomes_ordered_again():
    instance = _primed([{"a": 3}, {"a": "odd"}, {"a": 1}, {"a": (2,)}])
    assert instance.relation_stats("r").column("a").kind == "off"
    _remove_where(instance, lambda row: row["a"] == "odd")
    assert instance.relation_stats("r").column("a").kind == "off"
    _assert_fresh(instance)
    _remove_where(instance, lambda row: row["a"] == (2,))
    column = instance.relation_stats("r").column("a")
    assert (column.kind, column.lo, column.hi) == ("num", 1, 3)
    _assert_fresh(instance)


def test_removing_labeled_nulls_and_unhashable_values():
    rows = [
        {"a": LabeledNull("n1")}, {"a": [1]}, {"a": None}, {"a": [1]},
        {"a": LabeledNull("n1")}, {"a": 2},
    ]
    instance = _primed(rows)
    _remove_where(instance, lambda row: isinstance(row["a"], LabeledNull))
    assert instance.relation_stats("r").column("a").labeled == 0
    _assert_fresh(instance)
    _remove_where(instance, lambda row: row["a"] == [1])
    column = instance.relation_stats("r").column("a")
    assert column.frequency([1]) == 0
    assert (column.kind, column.lo) == ("num", 2)
    _assert_fresh(instance)
    assert _retracted(instance) == (2, 1)


def test_removing_rows_appended_after_the_last_read():
    instance = _primed([{"a": 1}, {"a": 2}])
    instance.insert_all("r", [{"a": 3}, {"a": 4}])  # past the watermark
    _remove_where(instance, lambda row: row["a"] in (2, 4))
    before = dict(instance.index_stats)
    _assert_fresh(instance)
    after = instance.index_stats
    assert after["stats_extends"] == before["stats_extends"] + 1
    assert after["stats_rebuilds"] == before["stats_rebuilds"]
    assert [row["a"] for row in instance.rows("r")] == [1, 3]


def test_removing_every_row_that_carries_a_column_drops_it():
    instance = _primed([{"a": 1, "b": 2}, {"a": 3}, {"a": 4, "b": None}])
    _remove_where(instance, lambda row: "b" in row)
    stats = instance.relation_stats("r")
    assert stats.column("b") is None
    assert stats.null_fraction("b") == 1.0
    _assert_fresh(instance)
    _remove_where(instance, lambda row: True)
    assert instance.relation_stats("r").columns == {}
    _assert_fresh(instance)


def test_ragged_rows_whose_column_order_would_change():
    instance = _primed([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}])
    _remove_where(instance, lambda row: row is instance.rows("r")[0])
    assert instance.column_batch("r").names == ("b", "a")
    _assert_fresh(instance)


def test_a_nan_deciding_min_max_falls_back_to_a_rebuild():
    nan = float("nan")
    # The first ordered value decides: NaN first makes min/max NaN, a
    # NaN later is ignored.  Removing the row before it changes that.
    instance = _primed([{"a": 2}, {"a": nan}, {"a": 1}, {"a": 5}])
    assert instance.relation_stats("r").column("a").lo == 1
    _remove_where(instance, lambda row: row is instance.rows("r")[0])
    retracts, rebuilds = _retracted(instance)
    column = instance.relation_stats("r").column("a")
    assert _retracted(instance) == (retracts, rebuilds + 1)
    assert math.isnan(column.lo) and math.isnan(column.hi)
    # A NaN extreme cannot be retracted exactly either.
    _remove_where(instance, lambda row: row["a"] == 5)
    column = instance.relation_stats("r").column("a")
    assert _retracted(instance) == (retracts, rebuilds + 2)
    assert math.isnan(column.lo)
    _remove_where(instance, lambda row: row["a"] != row["a"])
    assert instance.relation_stats("r") == RelationStats.from_rows(
        "r", instance.rows("r")
    )


def test_a_nan_that_comes_to_lead_one_of_several_columns():
    nan = float("nan")
    # Removing 5 empties no extreme, so only the walk to each column's
    # first surviving value can see that b now leads with NaN.
    rows = [{"a": 5, "b": 5}, {"b": nan}, {"a": 1, "b": 1}, {"a": 9, "b": 9}]
    instance = _primed(rows)
    assert instance.relation_stats("r").column("b").lo == 1
    _remove_where(instance, lambda row: row is instance.rows("r")[0])
    retracts, rebuilds = _retracted(instance)
    stats = instance.relation_stats("r")
    assert _retracted(instance) == (retracts, rebuilds + 1)
    assert (stats.column("a").lo, stats.column("a").hi) == (1, 9)
    assert math.isnan(stats.column("b").lo)


def test_stats_counters_follow_the_validation_contract():
    instance = Instance()
    instance.insert_all("r", [{"a": 1}, {"a": 2}])
    keys = (
        "stats_hits", "stats_extends", "stats_rebuilds", "stats_retracts",
        "rebuilds", "retracts",
    )

    def deltas():
        before = dict(instance.index_stats)
        def diff():
            return {
                key: instance.index_stats[key] - before[key] for key in keys
            }
        return diff

    def counted(**changes):
        return {key: changes.get(key, 0) for key in keys}

    diff = deltas()
    instance.relation_stats("r")  # cold: build
    assert diff() == counted(stats_rebuilds=1)

    diff = deltas()
    instance.relation_stats("r")  # warm: hit
    assert diff() == counted(stats_hits=1)

    instance.insert("r", {"a": 3})
    diff = deltas()
    stats = instance.relation_stats("r")  # append: extend in place
    assert stats.rows == 3
    assert diff() == counted(stats_extends=1)

    handed_out = instance.column_batch("r")
    diff = deltas()
    instance.remove_rows("r", [instance.rows("r")[0]])
    assert diff() == counted(stats_retracts=1, retracts=1)
    diff = deltas()
    stats = instance.relation_stats("r")  # removal: retracted, no rebuild
    batch = instance.column_batch("r")
    assert stats.rows == 2
    assert diff() == counted(stats_hits=1)
    assert stats == RelationStats.from_rows("r", instance.rows("r"))
    assert batch.to_rows() == [{"a": 2}, {"a": 3}]
    assert handed_out.to_rows() == [{"a": 1}, {"a": 2}, {"a": 3}]

    # A removal neither cache can absorb exactly (a NaN leads the
    # column; the batch is ragged) still shows as rebuilds on the
    # next read.
    instance.insert_all("r", [{"a": float("nan"), "b": 0}, {"a": 4}])
    instance.relation_stats("r")
    instance.column_batch("r")
    diff = deltas()
    instance.remove_rows("r", list(instance.rows("r")[:2]))
    assert diff() == counted()
    instance.relation_stats("r")
    instance.column_batch("r")
    assert diff() == counted(stats_rebuilds=1, rebuilds=1)

    instance.mark_dirty()
    diff = deltas()
    instance.relation_stats("r")  # epoch bump: rebuild
    assert diff() == counted(stats_rebuilds=1)


def test_relation_stats_for_missing_relation_is_empty():
    stats = Instance().relation_stats("nope")
    assert stats.rows == 0
    assert stats.columns == {}


# ----------------------------------------------------------------------
# estimator rules
# ----------------------------------------------------------------------
@pytest.fixture
def people() -> Instance:
    instance = Instance()
    for i in range(100):
        instance.insert(
            "emp",
            {"id": i, "dept": i % 10, "name": f"n{i}", "salary": 1000 + i},
        )
    for d in range(10):
        instance.insert("dept", {"dept": d, "dname": f"d{d}"})
    return instance


def test_scan_estimate_is_row_count(people):
    assert estimate_expr(E.Scan("emp"), people) == 100.0
    assert estimate_expr(E.Scan("missing"), people) == 0.0


def test_equality_select_uses_exact_frequency(people):
    expr = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(3))
    )
    assert estimate_expr(expr, people) == pytest.approx(10.0)
    absent = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(99))
    )
    assert estimate_expr(absent, people) == 0.0


def test_range_select_interpolates_min_max(people):
    expr = E.Select(
        E.Scan("emp"), S.Comparison("<", S.Col("salary"), S.Lit(1050))
    )
    est = estimate_expr(expr, people)
    assert 40.0 <= est <= 60.0


def test_equijoin_divides_by_larger_distinct(people):
    join = E.Join(E.Scan("emp"), E.Scan("dept"), E._JoinEq("dept", "dept"))
    assert estimate_expr(join, people) == pytest.approx(100.0)


def test_left_join_estimates_at_least_left_rows(people):
    join = E.Join(
        E.Scan("emp"),
        E.Select(E.Scan("dept"), S.Comparison("=", S.Col("dname"),
                                               S.Lit("d3"))),
        E._JoinEq("dept", "dept"),
        kind="left",
    )
    assert estimate_expr(join, people) >= 100.0


def test_union_sums_and_distinct_caps(people):
    union = E.UnionAll(E.Scan("emp"), E.Scan("emp"))
    assert estimate_expr(union, people) == 200.0
    distinct = E.Distinct(
        E.Project(E.Scan("emp"), [("dept", S.Col("dept"))])
    )
    assert estimate_expr(distinct, people) == pytest.approx(10.0)


def test_aggregate_group_count(people):
    grouped = E.Aggregate(
        E.Scan("emp"), ["dept"], [("n", "count", None)]
    )
    assert estimate_expr(grouped, people) == pytest.approx(10.0)
    ungrouped = E.Aggregate(E.Scan("emp"), [], [("n", "count", None)])
    assert estimate_expr(ungrouped, people) == 1.0


def test_isnull_uses_null_fraction():
    instance = Instance()
    instance.insert_all(
        "r", [{"a": 1}, {"a": None}, {"a": None}, {"a": 2}]
    )
    expr = E.Select(E.Scan("r"), S.IsNull(S.Col("a")))
    assert estimate_expr(expr, instance) == pytest.approx(2.0)
    negated = E.Select(E.Scan("r"), S.IsNull(S.Col("a"), negated=True))
    assert estimate_expr(negated, instance) == pytest.approx(2.0)


def test_in_sums_frequencies(people):
    expr = E.Select(E.Scan("emp"), S.In(S.Col("dept"), [1, 2, 99]))
    assert estimate_expr(expr, people) == pytest.approx(20.0)


def test_divergence_ratio_symmetric():
    assert divergence_ratio(10.0, 10) == pytest.approx(1.0)
    assert divergence_ratio(99.0, 9) == pytest.approx(10.0)
    assert divergence_ratio(9.0, 99) == pytest.approx(10.0)
    assert divergence_ratio(0.0, 0) == 1.0


def test_annotate_plan_and_worst_divergent(people):
    cache = PlanCache()
    # A predicate the estimator scores badly on purpose: equality on a
    # computed column it has no statistics for.
    expr = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(3))
    )
    plan, hit = cache.lookup(expr)
    assert not hit
    from repro.algebra.estimate import annotate_plan

    estimates = annotate_plan(plan, people)
    assert estimates == [node.est_rows for node in plan.nodes]
    assert all(est is not None for est in estimates)
    _, profile = plan.execute_profiled(people)
    worst = worst_divergent(plan.nodes, profile)
    assert worst is not None
    assert worst["ratio"] == pytest.approx(1.0)
    assert not worst["flagged"]

    # Shrink the divergence factor to force flagging on any mismatch.
    people.insert_all("emp", [{"dept": 3}] * 100)
    annotate_plan(plan, people)
    _, profile = plan.execute_profiled(people)
    ESTIMATION.divergence_factor = 1.0
    worst = worst_divergent(plan.nodes, profile)
    assert worst["flagged"]
