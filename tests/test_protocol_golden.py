"""Byte-identity gate for every protocol beyond the pRFT catalog records.

``benchmarks/golden_records.json`` pins only the pRFT catalog runs of
the paper's scenarios.  ``benchmarks/golden_protocol_records.json``
pins the rest: the canonical :class:`RunRecord` of every catalog
scenario at seed 0 under each of pbft, polygraph, trap and hotstuff,
the pRFT runs of the catalog scenarios ``golden_records.json`` leaves
out, plus three production/crypto variants under all five protocols
(pipelined batching, aggregate certificates under loss, pipelined
crash churn).

Each record carries the overrides it was run with in ``params``, so
the scenario is rebuilt from the record itself.  A refactor of the
replica code must reproduce every record byte for byte; a deliberate
behaviour change regenerates the file in its own change.

``benchmarks/golden_gene_records.json`` pins the deviating-strategy
axis the catalog lacks: search-point scenarios whose rational coalition
plays a :class:`~repro.search.space.StrategyGene` with ``timing_skew``
(alone, and with equivocation) under all five protocols.  The skew
draw is keyed on each broadcast's message type name, so these records
also pin the replicas' message class names.  Each entry stores its
full scenario, since search points are not in the catalog.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.results import RunRecord

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "golden_protocol_records.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())
GENE_GOLDEN = json.loads((GOLDEN_PATH.parent / "golden_gene_records.json").read_text())

#: Tier-1 subset: the honest matrix, a fork, loss, a crashed leader
#: and duplication, under each non-pRFT protocol.
FAST_SCENARIOS = ("protocol-matrix", "fork", "lossy-honest", "crash-leader", "duplicate-storm")
FAST_PROTOCOLS = ("pbft", "polygraph", "trap", "hotstuff")
FAST_KEYS = [f"{name}/{protocol}" for protocol in FAST_PROTOCOLS for name in FAST_SCENARIOS]

#: pRFT catalog runs that ``golden_records.json`` does not pin: the
#: regional, lossy, crash, churn, duplication and continuous-workload
#: scenarios.  All in tier-1; the continuous ones carry a throughput
#: report, so they also pin the throughput pipeline.
PRFT_SCENARIOS = (
    "regional-honest", "lossy-honest", "lossy-prft-fork", "crash-leader",
    "churn-liveness", "duplicate-storm", "poisson-honest", "closed-loop-prft",
    "burst-under-loss", "poisson-crash-churn",
)
PRFT_KEYS = [f"{name}/prft" for name in PRFT_SCENARIOS]


def _assert_golden(key: str) -> None:
    expected = GOLDEN[key]
    params = dict(expected["params"])
    scenario = get_scenario(expected["scenario"]).with_params(**params)
    result = scenario.run(seed=expected["seed"])
    record = RunRecord.from_result(scenario, seed=expected["seed"], result=result, params=params)
    assert json.dumps(record.canonical(), sort_keys=True) == json.dumps(
        expected, sort_keys=True
    ), f"{key} diverged from its golden record"


def test_golden_file_covers_matrix_and_variants():
    protocols = {record["protocol"] for record in GOLDEN.values()}
    assert protocols == {"prft", "pbft", "polygraph", "trap", "hotstuff"}
    assert len(GOLDEN) == 117
    assert set(FAST_KEYS) <= set(GOLDEN)
    assert set(PRFT_KEYS) <= set(GOLDEN)


@pytest.mark.parametrize("key", FAST_KEYS + PRFT_KEYS)
def test_protocol_golden_subset_byte_identical(key):
    _assert_golden(key)


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_protocol_golden_all_byte_identical(key):
    _assert_golden(key)


def test_gene_golden_covers_all_protocols_with_skew():
    for label in ("skew", "skew-fork"):
        protocols = {key.split("/")[1] for key in GENE_GOLDEN if key.startswith(f"{label}/")}
        assert protocols == {"prft", "pbft", "polygraph", "trap", "hotstuff"}
    for entry in GENE_GOLDEN.values():
        assert dict(entry["scenario"]["gene"])["timing_skew"] > 0.0


@pytest.mark.parametrize("key", sorted(GENE_GOLDEN))
def test_gene_golden_byte_identical(key):
    entry = GENE_GOLDEN[key]
    scenario = Scenario.from_dict(entry["scenario"])
    result = scenario.run(seed=entry["seed"])
    record = RunRecord.from_result(scenario, seed=entry["seed"], result=result)
    assert json.dumps(record.canonical(), sort_keys=True) == json.dumps(
        entry["record"], sort_keys=True
    ), f"{key} diverged from its golden record"
