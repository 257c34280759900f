"""Byte-identity gate for the trace oracle's violation reports.

RunRecords pin only ``(checker, status)`` pairs, so a refactor of the
checkers could change a violation's message or details unnoticed.
``benchmarks/golden_oracle_violations.json`` pins the full report of
every violating run in a differential set of catalog and fuzz runs:
each verdict's status and note, and each violation's message and
details.  The runs are ``lossy-honest`` at seed 2 under pbft,
polygraph and trap, and fuzz campaign 0's safe trials 56, 68, 208 and
wild trials 23, 44, 269.

Each entry stores its full scenario, so the runs do not depend on the
catalog or the fuzz generator staying put.  A deliberate change to the
oracle's output regenerates the file in its own change: dump
``{key: oracle_entry(scenario, seed)}`` for every key in
:func:`golden_runs`.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.fuzz import generate_trial
from repro.experiments.registry import Scenario, get_scenario

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "golden_oracle_violations.json"
)


def golden_runs():
    """``{key: (scenario, seed)}`` for every pinned run."""
    runs = {}
    for protocol in ("pbft", "polygraph", "trap"):
        scenario = get_scenario("lossy-honest").with_params(
            protocol=protocol, check_invariants=True
        )
        runs[f"lossy-honest/{protocol}/2"] = (scenario, 2)
    for profile, indices in (("safe", (56, 68, 208)), ("wild", (23, 44, 269))):
        for index in indices:
            trial = generate_trial(0, index, profile)
            runs[f"fuzz-0/{profile}/{index}"] = (trial.scenario, trial.seed)
    return runs


def oracle_entry(scenario, seed):
    """The scenario, the seed and the full oracle report of one run."""
    report = scenario.run(seed=seed).oracle
    return json.loads(json.dumps({
        "scenario": scenario.to_dict(),
        "seed": seed,
        "verdicts": [
            {
                "name": verdict.name,
                "status": verdict.status,
                "note": verdict.note,
                "violations": [
                    {"message": violation.message, "detail": violation.detail_dict()}
                    for violation in verdict.violations
                ],
            }
            for verdict in report.verdicts
        ],
    }, sort_keys=True))


GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_run_and_each_violates():
    assert set(GOLDEN) == set(golden_runs())
    for key, entry in GOLDEN.items():
        assert any(v["status"] == "violated" for v in entry["verdicts"]), key


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_oracle_report_identical(key):
    entry = GOLDEN[key]
    scenario = Scenario.from_dict(entry["scenario"])
    assert oracle_entry(scenario, entry["seed"]) == entry, (
        f"{key}: the oracle report diverged from its golden record"
    )
