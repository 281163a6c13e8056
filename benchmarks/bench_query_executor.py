"""Query-executor shootout: the vectorized columnar executor and the
compiled row-closure executor vs the reference tree-walking
interpreter (ISSUE: "Columnar batch storage and a vectorized compiled
executor").

The workload is the paper's central runtime pattern — *view
unfolding*: target queries over the Figure 2 object views rewritten to
the SQL tables and executed directly.  Each plan runs on all three
engines at 250 → 4000 persons, with the two compiled engines measured
both *cold* (first call, plan compilation included) and *warm*
(plan-cache hit).  The report asserts the engines agree row-for-row,
that the warm paths never recompile, and that on the 4k-row unfolding
the vectorized executor clears both acceptance bars: ≥10× over the
interpreter and ≥2× over the compiled row engine.  EXPLAIN ANALYZE
acceptance additionally pins that the vectorized per-node profile
reports exactly the same rows at every node as the row engine's.
"""

import gc
import time

import pytest

from repro.algebra import (
    Col,
    Scan,
    Select,
    clear_plan_cache,
    eq,
    evaluate,
    optimize,
    plan_cache_stats,
    project_names,
    vector_plan_cache_stats,
)
from repro.instances import Instance
from repro.operators.compose import unfold_scans
from repro.operators.transgen import transgen
from repro.workloads import paper

from conftest import print_table

SIZES = (250, 1000, 4000)
# compiled row engine vs interpreter (the historical bar)
ACCEPTANCE_SPEEDUP = 3.0
# vectorized engine vs interpreter / vs compiled row engine, at 4k
VEC_VS_INTERPRETED = 10.0
VEC_VS_COMPILED = 2.0

ENGINES = ("interpreted", "compiled", "vectorized")


def _scaled_sql(people: int) -> Instance:
    """Figure 2 SQL-side data scaled to ``people`` persons."""
    sql = Instance(paper.figure2_sql_schema())
    for i in range(people):
        kind = i % 3
        if kind == 0:
            sql.add("HR", Id=i, Name=f"P{i}")
        elif kind == 1:
            sql.add("HR", Id=i, Name=f"E{i}")
            sql.add("Empl", Id=i, Dept=f"D{i % 5}")
        else:
            sql.add("Client", Id=i, Name=f"C{i}", Score=600 + i % 200,
                    Addr=f"{i} Main St")
    return sql


def _unfolded_queries():
    """Target queries rewritten against the source tables."""
    views = transgen(paper.figure2_mapping())
    definitions = dict(views.query_view.rules)
    extent = unfold_scans(project_names(Scan("Person"), ["Id", "Name"]),
                          definitions)
    selective = optimize(unfold_scans(
        Select(project_names(Scan("Person"), ["Id", "Name"]),
               eq(Col("Id"), 7)),
        definitions,
    ))
    return [("unfold-extent", extent), ("unfold-selective", selective)]


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock milliseconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", list(ENGINES))
def test_unfolded_extent(benchmark, engine):
    _, extent = _unfolded_queries()[0]
    sql = _scaled_sql(1000)
    evaluate(extent, sql, engine=engine)  # warm the plan cache
    rows = benchmark(evaluate, extent, sql, engine=engine)
    assert len(rows) == 1000


@pytest.mark.parametrize("engine", list(ENGINES))
def test_unfolded_selective(benchmark, engine):
    _, selective = _unfolded_queries()[1]
    sql = _scaled_sql(1000)
    evaluate(selective, sql, engine=engine)
    rows = benchmark(evaluate, selective, sql, engine=engine)
    assert len(rows) == 1


# ----------------------------------------------------------------------
# harness report -> BENCH_query.json
# ----------------------------------------------------------------------
def test_query_executor_report(benchmark):
    from repro.observability import is_enabled, registry

    queries = _unfolded_queries()
    rows = []
    acceptance = {}
    for people in SIZES:
        sql = _scaled_sql(people)
        for label, plan in queries:
            interpreted_ms = _best_of(
                lambda: evaluate(plan, sql, engine="interpreted")
            )
            clear_plan_cache()
            # The cold lanes are single-shot: collect first so ambient
            # allocation debt from earlier lanes doesn't land a GC
            # pause inside the one timed call.
            gc.collect()
            compiles_before = (
                registry.counter("span.query.compile.calls").value
                if is_enabled() else None
            )
            cold_ms = _best_of(
                lambda: evaluate(plan, sql, engine="compiled"), repeats=1
            )
            warm_ms = _best_of(
                lambda: evaluate(plan, sql, engine="compiled")
            )
            gc.collect()
            vec_cold_ms = _best_of(
                lambda: evaluate(plan, sql, engine="vectorized"), repeats=1
            )
            vec_warm_ms = _best_of(
                lambda: evaluate(plan, sql, engine="vectorized")
            )
            if is_enabled():
                compiled_count = (
                    registry.counter("span.query.compile.calls").value
                    - compiles_before
                )
                # one row compilation + one vectorized lowering; the
                # warm runs hit their plan caches
                assert compiled_count == 2, (
                    f"warm caches recompiled: {compiled_count} compilations"
                )
            stats = plan_cache_stats()
            assert stats["hits"] >= 3, stats
            vec_stats = vector_plan_cache_stats()
            assert vec_stats["hits"] >= 3, vec_stats
            baseline = _canon(evaluate(plan, sql, engine="interpreted"))
            assert _canon(
                evaluate(plan, sql, engine="compiled")
            ) == baseline, f"compiled disagrees on {label} at {people}"
            assert _canon(
                evaluate(plan, sql, engine="vectorized")
            ) == baseline, f"vectorized disagrees on {label} at {people}"
            speedup = interpreted_ms / warm_ms if warm_ms else float("inf")
            vec_vs_interp = (
                interpreted_ms / vec_warm_ms if vec_warm_ms else float("inf")
            )
            vec_vs_compiled = (
                warm_ms / vec_warm_ms if vec_warm_ms else float("inf")
            )
            if label == "unfold-extent" and people == max(SIZES):
                acceptance = {
                    "compiled_vs_interpreted": speedup,
                    "vec_vs_interpreted": vec_vs_interp,
                    "vec_vs_compiled": vec_vs_compiled,
                }
            rows.append([
                people, label, f"{interpreted_ms:.2f} ms",
                f"{warm_ms:.2f} ms", f"{vec_cold_ms:.2f} ms",
                f"{vec_warm_ms:.2f} ms",
                f"{vec_vs_interp:.1f}x", f"{vec_vs_compiled:.1f}x",
            ])
    _, extent = queries[0]
    sql = _scaled_sql(SIZES[0])
    benchmark(evaluate, extent, sql, engine="vectorized")
    print_table(
        "Query executor: view unfolding, vectorized vs compiled vs "
        f"interpreted ({SIZES[0]}-{SIZES[-1]} persons)",
        ["persons", "query", "interpreted", "compiled warm",
         "vectorized cold", "vectorized warm", "vec/interp", "vec/compiled"],
        rows,
    )
    if acceptance and max(SIZES) >= 4000:
        assert acceptance["compiled_vs_interpreted"] >= ACCEPTANCE_SPEEDUP, (
            f"compiled/interpreted speedup "
            f"{acceptance['compiled_vs_interpreted']:.1f}x below the "
            f"{ACCEPTANCE_SPEEDUP}x acceptance bar"
        )
        assert acceptance["vec_vs_interpreted"] >= VEC_VS_INTERPRETED, (
            f"vectorized/interpreted speedup "
            f"{acceptance['vec_vs_interpreted']:.1f}x below the "
            f"{VEC_VS_INTERPRETED}x acceptance bar"
        )
        assert acceptance["vec_vs_compiled"] >= VEC_VS_COMPILED, (
            f"vectorized/compiled speedup "
            f"{acceptance['vec_vs_compiled']:.1f}x below the "
            f"{VEC_VS_COMPILED}x acceptance bar"
        )
    _check_explain_analyze()


def _check_explain_analyze() -> None:
    """EXPLAIN ANALYZE acceptance: on the view-unfolding extent query
    at the largest size the per-node profile reports the result rows
    at the root, a total that agrees (within tolerance) with the
    measured ``query.execute`` span, and — for the vectorized engine —
    exactly the same per-node row counts as the row engine's profile."""
    from repro.algebra import explain_analyze
    from repro.observability import is_enabled

    _, extent = _unfolded_queries()[0]
    people = max(SIZES)
    sql = _scaled_sql(people)
    result = explain_analyze(extent, sql, engine="compiled")
    profile = result.profile
    assert profile.result_rows == len(result.rows) == people
    assert profile.rows_out(profile.root_id) == people
    # charge-once self times telescope exactly to the root inclusive
    assert abs(sum(profile.self_time_ms())
               - profile.time_ms(profile.root_id)) < 1e-6
    # The vectorized profile is judged against the query.execute span
    # its own call emitted, not whichever span the tracer holds last.
    earlier = _execute_spans() if is_enabled() else []
    vec = explain_analyze(extent, sql, engine="vectorized")
    if is_enabled():
        seen = {s.span_id for s in earlier}
        vec_spans = [s for s in _execute_spans() if s.span_id not in seen]
        assert len(vec_spans) == 1, (
            f"the vectorized explain_analyze emitted {len(vec_spans)} "
            f"query.execute spans, expected 1"
        )
        wall = vec_spans[0].wall_ms
        assert vec.profile.total_ms <= wall + 0.1, (
            f"profile total {vec.profile.total_ms:.3f}ms exceeds the "
            f"query.execute span {wall:.3f}ms"
        )
    assert _canon(vec.rows) == _canon(result.rows)
    assert vec.profile.result_rows == profile.result_rows
    assert len(vec.plan.nodes) == len(result.plan.nodes)
    for row_node, vec_node in zip(result.plan.nodes, vec.plan.nodes):
        assert row_node.node_id == vec_node.node_id
        assert vec.profile.rows_out(vec_node.node_id) == profile.rows_out(
            row_node.node_id
        ), (
            f"node #{row_node.node_id} ({row_node.label}): vectorized "
            f"rows {vec.profile.rows_out(vec_node.node_id)} != row-engine "
            f"rows {profile.rows_out(row_node.node_id)}"
        )
        assert vec.profile.calls(vec_node.node_id) == profile.calls(
            row_node.node_id
        )
    # estimate↔actual telemetry: every node carries a cardinality
    # estimate, all three engine views of the tree agree
    # estimate-for-estimate, and the render pairs est= with div=×.
    interp = explain_analyze(extent, sql, engine="interpreted")
    for view in (result, vec, interp):
        assert view.estimates is not None
        assert all(est is not None for est in view.estimates)
        assert view.worst is not None
        text = view.render()
        assert "est=" in text and "div=×" in text
        assert "worst divergence:" in text
    assert vec.estimates == result.estimates == interp.estimates


def _execute_spans() -> list:
    """The finished ``query.execute`` spans the tracer holds."""
    from repro.observability import tracer

    return [
        s for s in tracer.iter_spans()
        if s.name == "query.execute" and s.wall_ms is not None
    ]


# ----------------------------------------------------------------------
# standalone run -> BENCH_query.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import sys

    from harness import run_standalone

    if argv is None:
        argv = sys.argv[1:]
    if "--smoke" in argv:
        # CI sanity: smallest size only, parity asserts still run.
        global SIZES
        SIZES = (250,)
    return run_standalone("query", [test_query_executor_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
