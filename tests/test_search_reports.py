"""Float sweep reports pinned in a committed fixture.

tests/search_reports.json holds the SearchReport of sample_search on each of
the 22 acceptance (dim, vars, partition) configs at seeds 0 and 7, 40 trials
each: the counts of trials, passes and degenerate trials, each failure's
(trial, outcome, signature), and min_margin, the smallest ratio of the
least to the largest |eigenvalue| of Q over the trials.  The counts and the
failures must repeat exactly and min_margin to 1e-9 relative, so a float
verdict that moves shows here.  The dense-oracle comparison in
test_schur_tensors.py cannot show it, since both of its sides decide with
the same hrcheck._pair_verdict.

Run ``PYTHONPATH=src:tests python tests/test_search_reports.py`` from the
repository root to record the fixture again; only do so when a change of
float verdicts is intended.
"""

import json
from pathlib import Path

import pytest

from hrpairs.hrcheck import sample_search

from test_schur_tensors import ACCEPTANCE_CONFIGS

FIXTURE = Path(__file__).resolve().parent / "search_reports.json"
SEEDS = (0, 7)
TRIALS = 40


def record(d, e, lam, seed):
    report = sample_search(d, e, str(lam), trials=TRIALS, seed=seed)
    return {
        "config": [d, e, str(lam), seed],
        "trials": report.trials,
        "passes": report.passes,
        "degenerates": report.degenerates,
        "failures": [[f["trial"], f["verdict"]["outcome"], f["verdict"]["signature"]]
                     for f in report.failures],
        "min_margin": report.min_margin,
    }


def records():
    return [record(d, e, lam, seed) for seed in SEEDS for d, e, lam in ACCEPTANCE_CONFIGS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_search_reports_repeat_the_pinned_ones(pinned, seed):
    want = [r for r in pinned if r["config"][3] == seed]
    assert len(want) == len(ACCEPTANCE_CONFIGS) == 22
    for (d, e, lam), rec in zip(ACCEPTANCE_CONFIGS, want):
        got = record(d, e, lam, seed)
        assert got["config"] == rec["config"]
        name = rec["config"]
        assert [got[k] for k in ("trials", "passes", "degenerates", "failures")] == \
            [rec[k] for k in ("trials", "passes", "degenerates", "failures")], name
        assert abs(got["min_margin"] - rec["min_margin"]) <= 1e-9 * rec["min_margin"], name


if __name__ == "__main__":
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]\n")
