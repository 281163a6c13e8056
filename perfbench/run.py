"""The repository benchmark: workloads ``serve`` and ``design``.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

The Figure 5 evolution pipeline has three phases: migrate, serve and
design.  A workload (serve or design) runs its phase at full size in a
single-threaded closed loop and the other two at a small companion size
in slices across the run, so that every end-to-end metric is measured
on every workload; the run lasts ``--seconds`` in all.  The own phase's
inputs come from ``--seed``.  Every output is checked outside the
timed regions; a wrong output fails the run.  ``--trace 0`` measures the end-to-end metrics with observability
off; ``--trace 1`` runs a fixed amount of the same work with the
engine's tracer on, prints the per-layer table and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Each swaps the query engine, the chase engine or the trace sampling
#: under measurement without any trace in the results.
GUARDED_ENV = ("REPRO_QUERY_ENGINE", "REPRO_CHASE_SHARDS",
               "REPRO_CHASE_PROCESSES", "REPRO_TRACE_SAMPLE")

#: Every run executes all three phases of the pipeline.  A workload
#: names the phase that runs at full size in the timed closed loop.
PHASES = ("migrate", "serve", "design")
#: A migrate iteration at 10⁵ students takes 10–21 s on a 2-CPU host,
#: so a run of the time budget holds one or two of them and their
#: median spread by over 30% between runs: migrate is not a workload of
#: its own, it runs at companion size beside the other two.
WORKLOADS = ("serve", "design")
FULL = {
    "serve": {"orders": 30_000, "customers": 7_500},
    "design": {"branching": 4, "width": 10, "chain": 32},
}
COMPANION = {
    "migrate": {"students": 2_000, "rollback_students": 100_000},
    "serve": {"orders": 2_000, "customers": 500},
    "design": {"branching": 2, "width": 4, "chain": 4},
}
#: Units each companion phase runs (serve: operations), in SLICES
#: equal slices spread over the run.
COMPANION_UNITS = {"migrate": 20, "serve": 600, "design": 20}
SLICES = 20
#: Companions draw their inputs from this seed, not from ``--seed``.  At
#: companion size one draw of inputs moves a metric by up to 1.7×
#: (Match on a small perturbed schema, plan choice for the first query),
#: which would bury any change between commits; a fixed draw leaves
#: only the run-to-run noise.  The own phase's inputs follow ``--seed``.
COMPANION_SEED = 0
#: The own loop runs at least this many units, however long they take.
#: ``error_rate`` is taken over exactly these units, the companions'
#: fixed units and the once-per-run probes, so its denominator does not
#: depend on speed.  A design session is seconds of work.
MIN_UNITS = {"serve": 200, "design": 2}
#: How often set-up is repeated for the median ``setup_s``: once before
#: the loop, and the rest spread evenly over the slices, so that the
#: median samples the host over the whole run.  Serve's set-up
#: materializes the chain, seconds of work; its second sample is the
#: chain that ``Serve.finish`` builds afresh from the final A as the
#: check's oracle.
SETUP_REPEATS = {"serve": 1, "design": 1 + 2 * SLICES}
#: Traced run: untraced/traced unit pairs, and serve operations per unit.
TRACE_PAIRS = {"serve": 2, "design": 2}
SERVE_BLOCK = 50

#: The sample list each percentile or rate is computed from.
SAMPLES = {"ops_s": "op_s", "read_p50_ms": "read_ms", "read_p90_ms": "read_ms",
           "write_p50_ms": "write_ms", "write_p90_ms": "write_ms"}

END_TO_END = (
    ("setup_s", "s"), ("error_rate", "ratio"), ("peak_rss_mb", "MB"),
    ("pipeline_s", "s"), ("first_query_ms", "ms"), ("ops_s", "1/s"),
    ("read_p50_ms", "ms"), ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_p90_ms", "ms"),
    ("session_s", "s"), ("match_s", "s"), ("compose_ms", "ms"),
)


def environment() -> dict:
    """CPU count, Python version and the code under measurement: the
    git commit when the checkout has one, and always a digest of the
    engine's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_head(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
            # A checkout without .git must not report an enclosing repo.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def make(workload: str, sizes: dict, seed: int):
    from workloads import Design, Migrate, Serve

    kinds = {"migrate": Migrate, "serve": Serve, "design": Design}
    return kinds[workload](seed=seed, **sizes[workload])


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def settle() -> None:
    """After set-up and before each companion slice, untimed: collect
    garbage and move the live state into the permanent generation, so
    that the collector's full passes inside timed regions do not walk
    a set-up's objects, nor the own phase's state in a companion."""
    gc.collect()
    gc.freeze()


def run_unit(phase, rec, problems: list) -> None:
    phase.prepare()
    outputs = phase.unit(rec)
    problems.extend(phase.check(outputs))
    if phase.probe_every_unit:
        phase.probe(rec)


def _require_untraced() -> None:
    from repro.observability import is_enabled

    if is_enabled():
        raise RuntimeError("end-to-end metrics are measured with "
                           "observability disabled")


def measure(workload: str, seed: int, seconds: float, full=FULL,
            companion=COMPANION, companion_units=COMPANION_UNITS,
            setup_repeats=SETUP_REPEATS, min_units=MIN_UNITS) -> dict:
    """The end-to-end run.  Returns the result object."""
    from hostspeed import (COMPANION_KERNEL, OWN_KERNEL, REFERENCE_MS,
                           HostSpeed)
    from workloads import Recorder

    _require_untraced()
    sides = [(make(other, companion, COMPANION_SEED),
              companion_units[other] // SLICES)
             for other in PHASES if other != workload]
    speed = HostSpeed()
    speed.calibrate()
    rec = Recorder()
    problems: list[str] = []
    for side, _ in sides:
        side.setup()
    setups = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        fresh = make(workload, full, seed)
        fresh.setup()
        end = time.perf_counter()
        setups.append((end - start, end))
        return fresh

    phase = set_up()
    settle()
    speed.calibrate()
    rec.kernel = OWN_KERNEL

    def companion_slice() -> None:
        settle()   # the own phase's live state, as seen by companions
        speed.calibrate()
        for _ in range((setup_repeats[workload] - 1) // SLICES):
            set_up()
        rec.primary = False
        rec.kernel = COMPANION_KERNEL
        for side, units in sides:
            for _ in range(units):
                run_unit(side, rec, problems)
        rec.primary, rec.kernel = True, OWN_KERNEL
        speed.calibrate()   # so that the slice's samples are bracketed

    # The run ends once it has spent --seconds, companion slices
    # included, and run ``min_units`` own units.  Companion slices run
    # before the loop and then each time the run passes a further
    # SLICES-th of both, so that every metric samples the host over the
    # whole run.  The once-per-run probes run after the first own unit,
    # off the clock.
    start, aside, units, slices = time.perf_counter(), 0.0, 0, 0
    while True:
        elapsed = time.perf_counter() - start - aside
        progress = min(elapsed / seconds if seconds > 0 else 1.0,
                       units / min_units[workload])
        if slices < SLICES and progress >= slices / SLICES:
            companion_slice()
            slices += 1
        if progress >= 1.0:
            break
        run_unit(phase, rec, problems)
        units += 1
        if units == 1:
            probe_start = time.perf_counter()
            for probed in [phase] + [side for side, _ in sides]:
                if probed.probes and not probed.probe_every_unit:
                    rec.primary = probed is phase
                    probed.probe(rec)
            rec.primary = True
            aside += time.perf_counter() - probe_start
        if units == min_units[workload]:
            errors = rec.primary_failed, rec.primary_attempted
    while slices < SLICES:
        companion_slice()
        slices += 1
    speed.calibrate()
    problems.extend(phase.finish())
    speed.calibrate()
    for side, _ in sides:
        problems.extend(side.finish())
    setups += phase.setup_samples
    errors = (errors[0] + rec.companion_failed,
              errors[1] + rec.companion_attempted)
    _require_untraced()
    wall = dict(rec.samples, setup=[taken for taken, _ in setups])
    samples = {name: speed.scale(values, rec.marks[name])
               for name, values in rec.samples.items()}
    samples["setup"] = speed.scale(
        wall["setup"], [(at, OWN_KERNEL) for _, at in setups])
    values = metrics_of(samples, errors)
    walls = metrics_of(wall, errors)
    counts = {"setup_s": len(setups), "error_rate": errors[1],
              "peak_rss_mb": 1}
    for name, measured in speed.kernel_ms.items():
        print(f"host {name} kernel {statistics.median(measured):.3f} ms "
              f"(reference {REFERENCE_MS[name]} ms), {len(measured)} "
              f"calibrations")
    print("times are scaled to the reference speed; wall times in "
          "brackets")
    for name, unit in END_TO_END:
        n = counts.get(name) or len(samples.get(SAMPLES.get(name, name), []))
        print(f"{name:<16}{values[name]:>14.6g} {unit:<6} n={n:<5} "
              f"[{walls[name]:.6g}]")
    if problems or rec.unexpected:
        for problem in problems + rec.unexpected:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems and not rec.unexpected,
        "attempted": rec.attempted,
        "failed": len(rec.unexpected),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def metrics_of(samples: dict, errors: tuple) -> dict:
    """The end-to-end metrics from one run's samples."""
    op_s = samples["op_s"]
    return {
        "setup_s": _median(samples["setup"]),
        "error_rate": errors[0] / errors[1],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pipeline_s": _median(samples.get("pipeline_s", [])),
        "first_query_ms": _median(samples.get("first_query_ms", [])),
        "ops_s": len(op_s) / sum(op_s),
        "read_p50_ms": _median(samples.get("read_ms", [])),
        "read_p90_ms": _p90(samples.get("read_ms", [])),
        "write_p50_ms": _median(samples.get("write_ms", [])),
        "write_p90_ms": _p90(samples.get("write_ms", [])),
        "session_s": _median(samples.get("session_s", [])),
        "match_s": _median(samples.get("match_s", [])),
        "compose_ms": _median(samples.get("compose_ms", [])),
    }


def trace(workload: str, seed: int, full=FULL,
          trace_pairs=TRACE_PAIRS, out_dir: Path = ROOT / ".perfbench_out"
          ) -> dict:
    """The traced run: a fixed amount of the workload's own work, each
    unit once untraced and once traced; the per-layer metrics come from
    the traced units (and, for the chain's build, the traced set-up)."""
    from layers import PER_LAYER, Counts, render, rollup, traced, unit_of
    from repro import observability
    from repro.algebra.plan_cache import vector_plan_cache_stats
    from workloads import Recorder

    observability.reset()
    counts = Counts()
    plain, spanned = Recorder(), Recorder()
    problems: list[str] = []
    with traced() as clock:
        phase = make(workload, full, seed)
        phase.setup()
    traced_wall = clock.seconds
    settle()
    block = SERVE_BLOCK if workload == "serve" else 1
    untraced_s = traced_s = 0.0
    for _ in range(trace_pairs[workload]):
        for _ in range(block):
            phase.prepare()
            start = time.perf_counter()
            outputs = phase.unit(plain)
            untraced_s += time.perf_counter() - start
            problems.extend(phase.check(outputs))
        for _ in range(block):
            phase.prepare()
            cache = vector_plan_cache_stats()
            storage = dict(phase.storage_builds)
            upkeep = phase.maintenance_stats()
            written = phase.rows_written
            with traced() as clock:
                outputs = phase.unit(spanned)
            traced_s += clock.seconds
            counts.add_delta("plan.", cache, vector_plan_cache_stats())
            counts.add_delta("", storage, phase.storage_builds)
            counts.add_delta("maintenance.", upkeep,
                             phase.maintenance_stats())
            counts.add("rows_written", phase.rows_written - written)
            problems.extend(phase.check(outputs))
    traced_wall += traced_s
    for name in ("top3_hit_rate", "tgds_out"):
        counts.add(name, sum(spanned.samples.get(name, [])))
    counts.add("sessions", len(spanned.samples.get("top3_hit_rate", [])))
    metrics, layer_s = rollup(counts, traced_wall, untraced_s, traced_s)
    out_dir.mkdir(exist_ok=True)
    observability.tracer.export_jsonl(
        out_dir / f"trace-{workload}-seed{seed}.jsonl")
    observability.reset()
    phase.probe(plain)
    problems.extend(phase.finish())
    print(render(workload, metrics, layer_s, traced_wall))
    rec_unexpected = plain.unexpected + spanned.unexpected
    for problem in problems + rec_unexpected:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems and not rec_unexpected,
        "attempted": plain.attempted + spanned.attempted,
        "failed": len(rec_unexpected),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        print(f"refusing to run with {', '.join(guarded)} set: each "
              f"swaps the engine or sampling under measurement",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro  # noqa: F401  (fails here, before any output, without src/)

    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
