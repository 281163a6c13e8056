"""E1 — §3.1.1: matcher quality and the top-k claim.

The paper argues that for engineered mappings "a better goal … is to
ensure that a matcher returns all viable candidates for a given
element, rather than only the best one".  The experiment matches
schemas against renamed copies with increasing noise and reports, per
matcher and for the ensemble, precision / recall / F1 of the proposal
set and the *top-k hit rate* — the fraction of elements whose candidate
list contains the right answer.  Expected shape: top-3 hit rate stays
high as best-1 precision degrades with noise, and the ensemble beats
every single matcher.
"""

import pytest

from repro.operators.match import (
    MatchConfig,
    evaluate_against_truth,
    match,
)
from repro.workloads import synthetic

from conftest import print_table


def _workload(noise: float, seed: int = 11):
    schema = synthetic.snowflake_schema("M", depth=1, branching=3,
                                        attributes_per_entity=4, seed=seed)
    copy, truth = synthetic.perturbed_copy(schema, rename_probability=noise,
                                           seed=seed + 1)
    return schema, copy, truth


_SINGLE_MATCHER_WEIGHTS = {
    "lexical": {"lexical": 1.0},
    "thesaurus": {"thesaurus": 1.0},
    "flooding": {"similarity-flooding": 1.0},
    "datatype": {"datatype": 1.0},
}


@pytest.mark.parametrize("noise", [0.3, 0.6, 0.9])
def test_ensemble_matching(benchmark, noise):
    schema, copy, truth = _workload(noise)
    config = MatchConfig(top_k=3, threshold=0.1)

    correspondences = benchmark(match, schema, copy, config)
    quality = evaluate_against_truth(correspondences, truth)
    assert quality.top_k_hit_rate > 0.5


@pytest.mark.parametrize("matcher", sorted(_SINGLE_MATCHER_WEIGHTS))
def test_single_matcher(benchmark, matcher):
    schema, copy, truth = _workload(0.6)
    config = MatchConfig(weights=_SINGLE_MATCHER_WEIGHTS[matcher],
                         top_k=3, threshold=0.05)

    correspondences = benchmark(match, schema, copy, config)
    assert len(correspondences) > 0


@pytest.mark.parametrize("size", [2, 3, 4])
def test_match_time_scaling(benchmark, size):
    schema = synthetic.snowflake_schema("Big", depth=1, branching=size,
                                        attributes_per_entity=4, seed=3)
    copy, _ = synthetic.perturbed_copy(schema, 0.5, seed=4)

    benchmark(match, schema, copy, MatchConfig(top_k=3))


def test_match_quality_report(benchmark):
    """The E1 table: quality per matcher per noise level."""
    rows = []
    for noise in (0.3, 0.6, 0.9):
        schema, copy, truth = _workload(noise)
        for label, weights in sorted(_SINGLE_MATCHER_WEIGHTS.items()):
            quality = evaluate_against_truth(
                match(schema, copy,
                      MatchConfig(weights=weights, top_k=3, threshold=0.05)),
                truth,
            )
            rows.append([noise, label, quality.precision, quality.recall,
                         quality.f1, quality.top_k_hit_rate])
        single_best = max(row[-1] for row in rows if row[0] == noise)
        ensemble_all = match(schema, copy, MatchConfig(top_k=3,
                                                       threshold=0.1))
        ensemble = evaluate_against_truth(ensemble_all, truth)
        rows.append([noise, "ENSEMBLE top-3", ensemble.precision,
                     ensemble.recall, ensemble.f1, ensemble.top_k_hit_rate])
        best_one = evaluate_against_truth(ensemble_all.best_one_to_one(),
                                          truth)
        # The expected shape: the ensemble's top-3 lists hit at least as
        # often as any single matcher's and as its own best-1 choice.
        assert ensemble.top_k_hit_rate >= single_best, (noise, rows)
        assert ensemble.top_k_hit_rate >= best_one.top_k_hit_rate, noise
        rows.append([noise, "ENSEMBLE best-1", best_one.precision,
                     best_one.recall, best_one.f1, best_one.top_k_hit_rate])
    schema, copy, _ = _workload(0.6)
    benchmark(match, schema, copy, MatchConfig(top_k=3))
    print_table(
        "E1: matcher quality vs rename noise "
        "(paper's claim: keep top-k candidates, not best-1)",
        ["noise", "matcher", "precision", "recall", "F1", "top-k hit"],
        rows,
    )


# ----------------------------------------------------------------------
# standalone run -> BENCH_match.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from harness import run_standalone

    return run_standalone("match", [test_match_quality_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
