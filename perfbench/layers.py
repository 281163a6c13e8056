"""Per-layer numbers from the traced run.

Spans come from two places: the engine's own (``logic.chase``,
``query.compile`` / ``query.execute``, ``runtime.incremental.*``,
``script.*``, ``engine.*``, ``op.*``) and the benchmark's, which wrap
every call a workload makes in a span named after the layer it enters.
Each span name maps to one layer.  A span's self time is its duration
minus the time its children cover; a layer's time is the self time of
its spans, so no interval is counted twice.  The one exception is the
benchmark's ``algebra.query`` span: its self time before execution is
planning (algebra), and after it tracing-only work (observability).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro import observability
from repro.observability import registry, span_self_ms, tracer

#: Span-name prefixes per layer, most specific first.
LAYERS = (
    ("runtime", ("engine.exchange", "runtime.")),
    ("instances", ("instances.",)),
    ("algebra", ("algebra.", "query.")),
    ("logic", ("logic.", "chase.")),
    ("operators", ("operators.", "op.", "engine.", "script.")),
    ("workload", ("workload.",)),
)

#: Per-layer metric names, in BENCHMARK.json order.
PER_LAYER = (
    "instances.load_s", "instances.stats_s", "instances.stats_builds",
    "instances.batch_s", "instances.batch_builds",
    "algebra.compile_s", "algebra.execute_s", "algebra.plan_hit_ratio",
    "algebra.plan_evictions", "algebra.reopts",
    "logic.chase_s", "logic.firings_per_s", "logic.examined_per_firing",
    "logic.rounds",
    "runtime.materialize_s", "runtime.apply_s",
    "runtime.reused_per_update_row", "runtime.overdeleted",
    "runtime.rederived", "runtime.full_reexchanges",
    "operators.match_s", "operators.match_top3_hit_rate",
    "operators.compose_s", "operators.compose_tgds_out",
    "operators.other_s",
    "observability.trace_overhead", "observability.unattributed_share",
)

UNITS = {
    "instances.stats_builds": "count", "instances.batch_builds": "count",
    "algebra.plan_hit_ratio": "ratio", "algebra.plan_evictions": "count",
    "algebra.reopts": "count", "logic.firings_per_s": "1/s",
    "logic.examined_per_firing": "ratio", "logic.rounds": "count",
    "runtime.reused_per_update_row": "ratio",
    "runtime.overdeleted": "count", "runtime.rederived": "count",
    "runtime.full_reexchanges": "count",
    "operators.match_top3_hit_rate": "ratio",
    "operators.compose_tgds_out": "count",
    "observability.trace_overhead": "ratio",
    "observability.unattributed_share": "ratio",
}


class Clock:
    seconds = 0.0


@contextmanager
def traced():
    """Run the block with the engine's tracer on; the yielded clock
    holds the block's wall time afterwards."""
    clock = Clock()
    observability.enable()
    start = time.perf_counter()
    try:
        yield clock
    finally:
        clock.seconds = time.perf_counter() - start
        observability.disable()


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")


def layer_of(span_name: str) -> str:
    for layer, prefixes in LAYERS:
        if span_name.startswith(prefixes):
            return layer
    return "other"


class Counts:
    """Counters the traced run reads through public accessors, summed
    over the traced units: plan-cache deltas from
    ``vector_plan_cache_stats()``, storage builds from
    ``Instance.index_stats``, maintenance deltas from
    ``MaterializedExchange.stats`` and design-session outputs."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def add_delta(self, prefix: str, before: dict, after: dict) -> None:
        for key, value in after.items():
            if isinstance(value, (int, float)):
                self.values[f"{prefix}{key}"] += value - before.get(key, 0)


def _split_query(recorded) -> tuple[float, float]:
    """(planning, post-execution) self seconds of one ``algebra.query``
    span.  Its self time before the engine's ``query.execute`` child
    starts is plan-cache lookup and cost-based planning, which the
    untraced path runs too.  The rest is what ``evaluate`` does only
    while tracing is on: estimate annotation, divergence feedback and
    the query-log record."""
    own = span_self_ms(recorded) / 1000.0
    execute = next((child for child in recorded.children
                    if child.name == "query.execute"), None)
    if execute is None:
        return own, 0.0
    before = execute.started_at - recorded.started_at - sum(
        (child.wall_ms or 0.0) / 1000.0 for child in recorded.children
        if child.started_at < execute.started_at)
    planning = min(own, max(0.0, before))
    return planning, own - planning


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rollup(counts: Counts, traced_wall_s: float, untraced_unit_s: float,
           traced_unit_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, layer → self seconds) for the spans recorded
    so far.  ``traced_wall_s`` is the wall time spent with tracing on;
    the two unit sums compare the same amount of work run untraced and
    traced."""
    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    planning_s = 0.0
    for recorded in tracer.iter_spans():
        own = span_self_ms(recorded) / 1000.0
        self_s[recorded.name] += own
        inclusive_s[recorded.name] += (recorded.wall_ms or 0.0) / 1000.0
        if recorded.name == "algebra.query":
            planning, tracing_only = _split_query(recorded)
            planning_s += planning
            layer_s["algebra"] += planning
            layer_s["observability"] += tracing_only
        else:
            layer_s[layer_of(recorded.name)] += own
    covered = sum((root.wall_ms or 0.0) for root in tracer.roots) / 1000.0
    layer_s["unattributed"] = max(0.0, traced_wall_s - covered)

    def selfs(*names: str) -> float:
        return sum(self_s[name] for name in names)

    def counter(name: str) -> float:
        return registry.counter(name).value

    chase_s = sum(v for k, v in self_s.items() if k.startswith("logic."))
    steps = counter("chase.steps")
    c = counts.values
    lookups = c["plan.hits"] + c["plan.misses"]
    metrics = {
        "instances.load_s": selfs("instances.load"),
        "instances.stats_s": selfs("instances.stats"),
        "instances.stats_builds": c["stats_builds"],
        "instances.batch_s": selfs("instances.batch"),
        "instances.batch_builds": c["batch_builds"],
        "algebra.compile_s": selfs("query.compile") + planning_s,
        "algebra.execute_s": selfs("query.execute"),
        "algebra.plan_hit_ratio": _ratio(c["plan.hits"], lookups),
        "algebra.plan_evictions": c["plan.evictions"],
        "algebra.reopts": c["plan.reopts"],
        "logic.chase_s": chase_s,
        "logic.firings_per_s": _ratio(steps, chase_s),
        "logic.examined_per_firing": _ratio(
            counter("chase.triggers_examined"), steps),
        "logic.rounds": counter("chase.rounds"),
        "runtime.materialize_s": selfs("runtime.materialize",
                                       "runtime.incremental.materialize"),
        "runtime.apply_s": selfs("runtime.write",
                                 "runtime.incremental.apply",
                                 "runtime.incremental.full_reexchange"),
        "runtime.reused_per_update_row": _ratio(
            c["maintenance.reused_rows"], c["rows_written"]),
        "runtime.overdeleted": c["maintenance.overdeleted"],
        "runtime.rederived": c["maintenance.rederived"],
        "runtime.full_reexchanges": c["maintenance.full_reexchange"],
        "operators.match_s": inclusive_s["operators.match"],
        "operators.match_top3_hit_rate": _ratio(c["top3_hit_rate"],
                                                c["sessions"]),
        "operators.compose_s": inclusive_s["operators.compose"],
        "operators.compose_tgds_out": c["tgds_out"],
        "operators.other_s": inclusive_s["operators.other"],
        "observability.trace_overhead": _ratio(traced_unit_s,
                                               untraced_unit_s),
        "observability.unattributed_share": _ratio(
            layer_s["unattributed"], traced_wall_s),
    }
    return metrics, dict(layer_s)


def render(workload: str, metrics: dict, layer_s: dict,
           traced_wall_s: float) -> str:
    """The per-layer table of one workload's traced run."""
    lines = [f"per-layer table: {workload} "
             f"(traced wall {traced_wall_s:.3f} s)",
             f"  {'layer':<14}{'self s':>10}{'share':>8}"]
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14}{seconds:>10.3f}"
                     f"{_ratio(seconds, traced_wall_s):>8.1%}")
    lines.append(f"  {'metric':<36}{'value':>14}  unit")
    for name in PER_LAYER:
        lines.append(f"  {name:<36}{metrics[name]:>14.6g}  {unit_of(name)}")
    return "\n".join(lines)
