"""The benchmark's own tests: every workload at a tiny size through every
output check, a corrupted result for each check to reject, and a run on
a seed the benchmark was not tuned on.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.instances import Instance  # noqa: E402

TINY = {
    "migrate": {"students": 300, "rollback_students": 300},
    "serve": {"orders": 300, "customers": 60},
    "design": {"branching": 2, "width": 3, "chain": 3},
}
#: One companion unit per slice (serve: five operations).
TINY_UNITS = {"migrate": run.SLICES, "serve": 5 * run.SLICES,
              "design": run.SLICES}
SETUPS = {"serve": 1, "design": 2}
#: Never used while the benchmark was built or tuned.
FRESH_SEED = 90_211


def _measure(workload: str, seed: int) -> dict:
    return run.measure(workload, seed, 0.2, full=TINY, companion=TINY,
                       companion_units=TINY_UNITS, setup_repeats=SETUPS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_every_check(workload, capsys):
    result = _measure(workload, 3)
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, metric in result["metrics"].items():
        if name != "error_rate":   # no known defect fires at tiny size
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fresh_seed(workload, capsys):
    assert _measure(workload, FRESH_SEED)["correct"], capsys.readouterr().err


def test_error_rate_does_not_depend_on_speed(monkeypatch):
    # The rollback probe's defect needs 10⁵ students; a probe that always
    # fails stands in for it.  More seconds mean more operations, but
    # error_rate counts only the first ten, the companions' fixed units
    # and the probes.
    def failing_probe(self, rec):
        rec.count()
        rec.expected_failure()

    monkeypatch.setattr(workloads.Migrate, "probe", failing_probe)
    short, long = (run.measure("serve", 3, seconds, full=TINY,
                               companion=TINY, companion_units=TINY_UNITS,
                               setup_repeats=SETUPS,
                               min_units=dict(run.MIN_UNITS, serve=10))
                   for seconds in (0.0, 8.0))
    assert short["attempted"] < long["attempted"]
    for result in (short, long):
        assert result["correct"]
    assert (short["metrics"]["error_rate"]["value"]
            == long["metrics"]["error_rate"]["value"])


def test_serve_error_rate_counts_companions():
    # Serve's own path has no known defect at its size, so its
    # error_rate comes from the companions' fixed units: each design
    # session's Compose probe fails, and the rollback probe is attempted
    # once (it fails only at 10⁵ students).
    sessions = TINY_UNITS["design"] // run.SLICES * run.SLICES
    operations = (sessions * (1 + TINY["design"]["chain"] + 3 + 1)
                  + TINY_UNITS["migrate"] // run.SLICES * run.SLICES
                  * (3 + 1 + workloads.SELECTIVE_QUERIES
                     + workloads.COLD_REPEATS) + 1 + 10)
    for seconds in (0.0, 8.0):
        result = run.measure("serve", 3, seconds, full=TINY, companion=TINY,
                             companion_units=TINY_UNITS,
                             setup_repeats=SETUPS,
                             min_units=dict(run.MIN_UNITS, serve=10))
        assert result["correct"]
        assert (result["metrics"]["error_rate"]["value"]
                == sessions / operations)


def test_query_self_time_splits_at_execution():
    from repro import observability
    from repro.algebra import Col, Scan, Select, eq
    from repro.observability import span_self_ms, tracer

    instance = Instance()
    instance.insert_all("R", [{"a": n} for n in range(50)])
    observability.reset()
    observability.enable()
    try:
        rows = workloads.read(Select(Scan("R"), eq(Col("a"), 3)), instance,
                              ("R",), {"stats_builds": 0, "batch_builds": 0})
    finally:
        observability.disable()
    assert rows == [{"a": 3}]
    query = next(s for s in tracer.iter_spans() if s.name == "algebra.query")
    planning, tracing_only = layers._split_query(query)
    assert planning >= 0.0 and tracing_only >= 0.0
    assert planning + tracing_only == pytest.approx(
        span_self_ms(query) / 1000.0)
    observability.reset()


def test_samples_scale_by_the_calibrations_around_them():
    speed = hostspeed.HostSpeed()
    speed.times = [1.0, 2.0, 3.0]
    ref = hostspeed.REFERENCE_MS["compute"]
    speed.kernel_ms["compute"] = [ref, 2 * ref, 4 * ref]
    speed.kernel_ms["memory"] = [hostspeed.REFERENCE_MS["memory"]] * 3
    # Before the first calibration, between two, after the last.
    marks = [(0.5, "compute"), (1.5, "compute"), (2.5, "compute"),
             (3.5, "compute"), (2.5, "memory")]
    assert speed.scale([6.0] * 5, marks) == \
        pytest.approx([6.0, 4.0, 2.0, 1.5, 6.0])
    speed.calibrate()
    assert speed.times[-1] > 3.0
    assert all(len(measured) == 4 and measured[-1] > 0
               for measured in speed.kernel_ms.values())


def test_environment_stamp():
    stamp = run.environment()
    assert stamp["cpus"] >= 1 and stamp["python"].count(".") == 2
    assert stamp["commit"] == "unknown" or len(stamp["commit"]) == 40


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload, tmp_path, capsys):
    result = run.trace(workload, 5, full=TINY,
                       trace_pairs={"serve": 2, "design": 1},
                       out_dir=tmp_path)
    table = capsys.readouterr().out
    assert result["correct"]
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    assert "observability.trace_overhead" in table
    assert "observability.unattributed_share" in table
    share = result["metrics"]["observability.unattributed_share"]["value"]
    assert 0.0 <= share <= 1.0
    assert list(tmp_path.glob("trace-*.jsonl"))


# ----------------------------------------------------------------------
# each check rejects a corrupted result
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def migrate_outputs():
    phase = workloads.Migrate(seed=4, **TINY["migrate"])
    phase.setup()
    phase.prepare()
    outputs = phase.unit(workloads.Recorder())
    assert checks.check_migrate(outputs) == []
    return outputs


def _corrupt(outputs, key, change):
    broken = dict(outputs)
    broken[key] = change(copy.deepcopy(outputs[key]))
    return checks.check_migrate(broken)


def test_migrate_rejects_missing_view_row(migrate_outputs):
    assert _corrupt(migrate_outputs, "first", lambda rows: rows[1:])
    assert _corrupt(migrate_outputs, "cold",
                    lambda runs: runs[:-1] + [runs[-1][1:]])


def test_migrate_rejects_wrong_lookup(migrate_outputs):
    def change(answers):
        name, rows = answers[0]
        return [(name, rows + [dict(rows[0], Address="nowhere")])] + \
            answers[1:]
    assert _corrupt(migrate_outputs, "answers", change)


def test_migrate_rejects_wrong_chase(migrate_outputs):
    def change(chased):
        chased.relations["NamesP"][0]["Name"] = "intruder"
        return chased
    assert _corrupt(migrate_outputs, "chased", change)


def test_migrate_rejects_wrong_step_count(migrate_outputs):
    assert _corrupt(migrate_outputs, "steps", lambda steps: steps - 1)


@pytest.fixture(scope="module")
def served():
    phase = workloads.Serve(seed=6, **TINY["serve"])
    phase.setup()
    rec = workloads.Recorder()
    for _ in range(60):
        phase.unit(rec)
    assert rec.unexpected == []
    assert "write_ms" in rec.samples
    fresh = phase.recompute()
    assert checks.check_serve(phase.hop2.target_instance(), fresh) == []
    return phase, fresh


def test_serve_rejects_lost_row(served):
    phase, fresh = served
    maintained = phase.hop2.target_instance()
    maintained.relations["Fact"].pop()
    assert checks.check_serve(maintained, fresh)


def test_serve_rejects_changed_value(served):
    phase, fresh = served
    maintained = phase.hop2.target_instance()
    maintained.relations["Dim"][0]["Region"] = "nowhere"
    assert checks.check_serve(maintained, fresh)


def test_serve_rejects_merged_nulls(served):
    phase, fresh = served
    maintained = phase.hop2.target_instance()
    facts = maintained.relations["Fact"]
    facts[1]["Tier"] = facts[0]["Tier"]
    assert checks.check_serve(maintained, fresh)


def test_serve_read_check_flags_wrong_answer():
    phase = workloads.Serve(seed=8, **TINY["serve"])
    phase.setup()
    cid = next(iter(phase.counts))
    phase.counts[cid] += 1
    rec = workloads.Recorder()
    phase.key = lambda: cid
    phase._read(rec, "join")
    assert rec.unexpected


def test_same_up_to_nulls_renames_but_does_not_merge():
    from repro.instances import NullFactory

    nulls = NullFactory()
    left, right = Instance(), Instance()
    left.insert_all("R", [{"a": 1, "b": nulls.fresh()},
                          {"a": 2, "b": nulls.fresh()}])
    right.insert_all("R", [{"a": 2, "b": nulls.fresh()},
                           {"a": 1, "b": nulls.fresh()}])
    assert checks.same_up_to_nulls(left, right)
    right.relations["R"][1]["b"] = 7
    assert not checks.same_up_to_nulls(left, right)
    right.relations["R"][0]["b"] = 8   # null-free now, on the fast path
    assert not checks.same_up_to_nulls(left, right)
    left.relations["R"][0]["b"], left.relations["R"][1]["b"] = 7, 8
    assert checks.same_up_to_nulls(left, right)


@pytest.fixture(scope="module")
def design_outputs():
    phase = workloads.Design(seed=2, **TINY["design"])
    phase.setup()
    outputs = phase.unit(workloads.Recorder())
    assert phase.check(outputs) == []
    return outputs


def test_design_rejects_short_composition(design_outputs):
    from repro.mappings import Mapping

    exponential = design_outputs["exponential"]
    assert exponential.so_tgd is None   # these compositions are first-order
    broken = dict(design_outputs)
    broken["exponential"] = Mapping(
        exponential.source, exponential.target,
        list(exponential.constraints)[:-1], name="short")
    assert checks.check_design(broken, workloads.TOP3_FLOOR)


def test_design_rejects_poor_match(design_outputs):
    broken = dict(design_outputs)
    broken["quality"] = copy.copy(design_outputs["quality"])
    broken["quality"].top_k_hit_rate = workloads.TOP3_FLOOR - 0.01
    assert checks.check_design(broken, workloads.TOP3_FLOOR)


def test_rollback_probe_sees_the_known_defect():
    phase = workloads.Migrate(students=10, seed=1)
    phase.setup()
    rec = workloads.Recorder()
    phase.probe(rec)
    assert (rec.attempted, rec.primary_failed) == (1, 1)
    small = workloads.Migrate(students=10, seed=1, rollback_students=300)
    small.setup()
    rec = workloads.Recorder()
    small.probe(rec)
    assert (rec.attempted, rec.primary_failed) == (1, 0)


def test_compose_probe_sees_the_known_defect():
    assert not checks.compose_agrees(*workloads.compose_defect_pair())
    from repro.workloads import synthetic

    first, second = synthetic.composition_chain_linear(2)
    assert checks.compose_agrees(first, second)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def test_refuses_engine_switches():
    env = {"REPRO_CHASE_SHARDS": "2", "PATH": "/usr/bin:/bin"}
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "design",
         "--seed", "1", "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_CHASE_SHARDS" in done.stderr


def test_result_line_is_the_last_stdout_line(capsys):
    assert run.main(["--workload", "design", "--seed", "1",
                     "--seconds", "0"]) in (0, 1)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed",
                                     "metrics"}
