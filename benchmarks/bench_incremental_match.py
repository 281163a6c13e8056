"""E9 (extension) — §3.1.1 / [18]: incremental matching.

The interactive loop: the architect decides candidates one at a time,
each decision re-ranking the rest.  Measured: how many *decisions* the
session needs before every truth pair is confirmed when the architect
always accepts the top candidate if it is correct and rejects it
otherwise — compared against the oracle minimum (#elements).  Expected
shape: the re-ranking keeps wasted decisions (rejections) low, and
fewer are wasted than with a frozen (non-re-ranking) candidate list.
"""

import pytest

from repro.operators.match import MatchConfig
from repro.operators.match.incremental import IncrementalMatcher
from repro.workloads import synthetic

from conftest import print_table


def _workload(noise: float, seed: int = 21):
    schema = synthetic.snowflake_schema("IM", depth=1, branching=3,
                                        attributes_per_entity=3, seed=seed)
    copy, truth = synthetic.perturbed_copy(schema, rename_probability=noise,
                                           seed=seed + 1)
    return schema, copy, truth


def _drive_session(session: IncrementalMatcher,
                   truth: set[tuple[str, str]]) -> tuple[int, int]:
    """Simulated architect: accept correct top candidates, reject wrong
    ones.  Returns (decisions, confirmed)."""
    wanted = dict()
    for source_path, target_path in truth:
        wanted.setdefault(source_path, set()).add(target_path)
    decisions = 0
    for _ in range(400):
        path = session.next_undecided()
        if path is None:
            break
        candidates = session.candidates(path)
        if not candidates:
            session._confirmed.add((path, "(none)"))
            continue
        top = candidates[0][0]
        decisions += 1
        if top in wanted.get(path, set()):
            session.accept(path, top)
        else:
            session.reject(path, top)
    confirmed = sum(
        1 for s, t in session._confirmed if t in wanted.get(s, set())
    )
    return decisions, confirmed


@pytest.mark.parametrize("noise", [0.4, 0.8])
def test_incremental_session(benchmark, noise):
    schema, copy, truth = _workload(noise)

    def run():
        session = IncrementalMatcher(schema, copy,
                                     MatchConfig(top_k=3, threshold=0.05))
        return _drive_session(session, truth)

    decisions, confirmed = benchmark(run)
    assert confirmed >= 0.8 * len({s for s, _ in truth})


#: (decisions, confirmed, rejections) per noise level.  Match scores
#: and their tie-break are deterministic, so a change here means the
#: ranking changed.
E9_EXPECTED = {0.4: (31, 23, 8), 0.8: (27, 23, 4)}


def test_incremental_report(benchmark):
    rows = []
    for noise in (0.4, 0.8):
        schema, copy, truth = _workload(noise)
        session = IncrementalMatcher(schema, copy,
                                     MatchConfig(top_k=3, threshold=0.05))
        decisions, confirmed = _drive_session(session, truth)
        elements = len({s for s, _ in truth})
        rows.append([
            noise, elements, decisions, confirmed,
            decisions - confirmed,  # wasted (rejections)
        ])
        assert (decisions, confirmed, decisions - confirmed) == \
            E9_EXPECTED[noise], (noise, rows[-1])
    schema, copy, truth = _workload(0.4)
    benchmark(
        lambda: _drive_session(
            IncrementalMatcher(schema, copy,
                               MatchConfig(top_k=3, threshold=0.05)),
            truth,
        )
    )
    print_table(
        "E9: incremental matching — decisions until convergence "
        "(oracle minimum = elements)",
        ["noise", "elements", "decisions", "confirmed", "rejections"],
        rows,
    )


# ----------------------------------------------------------------------
# standalone run -> BENCH_incremental_match.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from harness import run_standalone

    return run_standalone("incremental_match", [test_incremental_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
