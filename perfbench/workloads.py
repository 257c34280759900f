"""The benchmark's three pinned workloads and the pass that runs them.

A *pass* executes every run of one workload instance once, in order,
timing each run and checking its output outside the timed region.
Runs are deterministic for (workload, seed), so every pass of a
benchmark invocation repeats identical work; the output digest of each
pass must match the first one.

- ``soak``: E20's spec (bench_soak.py) at about 4·10⁴ target
  transactions — per-transaction bookkeeping with retention eviction
  engaged (the target is well above ``commit_window``).
- ``committee``: E18's spec (bench_big_committees.py) at n=64 —
  per-message crypto, network and trace work.
- ``campaign``: the 200 trials of fuzz campaign 0, each oracle-checked
  — many short, faulty runs.  It is pinned: the benchmark seed does not
  change it.  Letting the seed pick the campaign made its figures vary
  more across seeds than any bound could absorb (see README.md).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
import threading
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, List, Optional, Sequence, Tuple

from repro.agents.player import honest_player
from repro.core.replica import prft_factory
from repro.experiments.fuzz import generate_trial
from repro.experiments.registry import Scenario
from repro.ledger.validation import chains_agree
from repro.net.delays import RegionalDelay
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import (
    Deployment,
    NetworkSpec,
    ProductionSpec,
    RetentionSpec,
    RunResult,
    RunSpec,
    WorkloadSpec,
    run,
)

WORKLOADS = ("soak", "committee", "campaign")

#: Full sizes, and the tiny ones the self-test runs.
SIZES = {
    "full": {"soak_txs": 40_000, "committee_n": 64, "committee_duration": 10.0,
             "campaign_trials": 200},
    "tiny": {"soak_txs": 5_000, "committee_n": 7, "committee_duration": 6.0,
             "campaign_trials": 6},
}

SOAK_RATE = 500.0  # tx per virtual-time unit, E20's rate
#: the fuzz campaign whose trials make up ``campaign``
CAMPAIGN_FUZZ_SEED = 0


@dataclass(frozen=True)
class Case:
    """One run of a workload instance."""

    label: str
    execute: Callable[[], RunResult]
    #: campaign trials are judged by the trace oracle as well
    oracle: bool = False


@dataclass
class Outcome:
    """What one timed run produced."""

    label: str
    #: wall seconds, scaled to the reference speed of :class:`SpeedProbe`
    #: when the pass ran with one
    wall_s: float
    raw_wall_s: float
    failure: Optional[str]
    committed_tx: int = 0
    blocks: int = 0
    events: int = 0
    #: exact virtual commit latencies, when the run kept its history
    latencies: List[float] = field(default_factory=list)
    #: the run's own (sketched) p99, when retention truncated history
    sketch_p99: Optional[float] = None


@dataclass
class PassResult:
    outcomes: List[Outcome]
    digest: str

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def raw_wall_s(self) -> float:
        return sum(o.raw_wall_s for o in self.outcomes)

    @property
    def committed_tx(self) -> int:
        return sum(o.committed_tx for o in self.outcomes)

    @property
    def blocks(self) -> int:
        return sum(o.blocks for o in self.outcomes)

    @property
    def events(self) -> int:
        return sum(o.events for o in self.outcomes)

    def failures(self) -> List[str]:
        return [f"{o.label}: {o.failure}" for o in self.outcomes if o.failure]

    def sim_latency_p99(self) -> float:
        """Virtual commit latency p99 over every committed transaction."""
        sketched = [o.sketch_p99 for o in self.outcomes if o.sketch_p99 is not None]
        if sketched:
            return max(sketched)
        pooled = [x for o in self.outcomes for x in o.latencies]
        return percentile(pooled, 0.99) if pooled else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile within the sample range (the
    ``inclusive`` method of :func:`statistics.quantiles`)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def soak_spec(seed: int, txs: int) -> RunSpec:
    """E20's soak deployment for pRFT, n=4.  The region matrix is pinned
    (seed 0, as in E20); the run seed drives the Poisson arrivals.  A
    fresh spec per run matters: the delay model carries RNG state."""
    n = 4
    duration = txs / SOAK_RATE * 1.05
    return RunSpec(
        factory=prft_factory,
        players=tuple(honest_player(i) for i in range(n)),
        config=ProtocolConfig.for_prft(n=n, timeout=30.0, duration=duration),
        network=NetworkSpec(
            delay_model=RegionalDelay(
                assignment=[i % 2 for i in range(n)],
                delta=0.5, spread=3.0, jitter=0.2, seed=0,
            )
        ),
        workload=WorkloadSpec(kind="poisson", rate=SOAK_RATE),
        production=ProductionSpec(pipeline_depth=4, max_block_txs=4096, coalesce_window=0.5),
        retention=RetentionSpec(
            trace_window=256,
            commit_window=16_384,
            submission_window=1024,
            ledger_window=8,
            backlog_resolution=512,
        ),
        seed=f"soak/prft/{seed}",
        max_time=duration + 240.0,
        max_events=80_000_000,
    )


def committee_scenario(n: int, duration: float) -> Scenario:
    """E18's aggregate-certificate closed loop."""
    return Scenario(
        name=f"big-committee-{n}",
        protocol="prft",
        n=n,
        workload="closed",
        outstanding=4,
        duration=duration,
        timeout=10.0,
        max_time=200.0,
        max_events=8_000_000,
        aggregate_certs=True,
    )


def build_cases(workload: str, seed: int, size: str = "full") -> List[Case]:
    """The runs of one workload instance, generated from ``seed``
    (``campaign`` is pinned and ignores it)."""
    sizes = SIZES[size]
    if workload == "soak":
        txs = sizes["soak_txs"]
        return [Case("soak", lambda: run(soak_spec(seed, txs)))]
    if workload == "committee":
        scenario = committee_scenario(sizes["committee_n"], sizes["committee_duration"])
        return [Case("committee", lambda: scenario.run(seed=seed))]
    if workload == "campaign":
        trials = (generate_trial(CAMPAIGN_FUZZ_SEED, index, "safe")
                  for index in range(sizes["campaign_trials"]))
        return [
            Case(f"trial {trial.index}", _trial_runner(trial.scenario, trial.seed), oracle=True)
            for trial in trials
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _trial_runner(scenario: Scenario, run_seed: int) -> Callable[[], RunResult]:
    return lambda: scenario.run(seed=run_seed)


def _probe_work() -> int:
    """Fixed integer arithmetic, none of it from the program under test.
    It allocates no containers, so it never triggers a collection."""
    x = 1
    for i in range(5000):
        x = (x * 1103515245 + i) & 0xFFFFFFF
    return x


class SpeedProbe:
    """Samples how fast the host runs while runs are being timed.

    On a shared host the same pass takes up to 1.85x longer while
    neighbours are busy, in phases lasting from seconds to minutes.
    While the probe is entered, a background thread runs
    :func:`_probe_work` every ``INTERVAL_S`` and records its thread CPU
    time, which excludes waiting for the interpreter lock.
    :meth:`scale` converts a run's wall time to seconds at the reference
    speed, using the median sample taken during the run, or within
    ``MARGIN_S`` of it.  The probe does not use the program, so a change
    to the program still moves the scaled time by its full amount.  The
    sampling costs the timed thread about 1 %.
    """

    INTERVAL_S = 0.05
    MARGIN_S = 0.25
    #: probe CPU seconds at the reference speed (the usual speed of the
    #: 2-vCPU Xeon VM the bounds in BENCHMARK.json were set on)
    REFERENCE_S = 0.0008

    def __init__(self) -> None:
        self._at = array("d")
        self._cost = array("d")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            began = time.thread_time()
            _probe_work()
            self._cost.append(time.thread_time() - began)
            self._at.append(time.perf_counter())

    def scale(self, wall: float, start: float, end: float) -> float:
        """``wall`` seconds timed over [start, end], at the reference speed."""
        while not self._at or self._at[-1] < end + self.MARGIN_S:
            if not self._thread.is_alive():
                raise RuntimeError("the speed probe thread has stopped")
            time.sleep(self.INTERVAL_S)
        low = bisect.bisect_left(self._at, start - self.MARGIN_S)
        high = bisect.bisect_right(self._at, end + self.MARGIN_S)
        return wall * self.REFERENCE_S / statistics.median(self._cost[low:high])


def execute_pass(
    cases: Sequence[Case],
    window: Callable[[int], ContextManager] = lambda index: nullcontext(),
    probe: Optional[SpeedProbe] = None,
) -> PassResult:
    """Run every case once; time each run, then check it untimed.

    ``window(index)`` wraps each timed run (the traced pass switches
    span recording on inside it).  With an entered ``probe``, each run's
    wall time is also scaled to the probe's reference speed.  A run
    fails if it raises, if its honest chains disagree on the final
    prefix, or — for oracle-checked cases — if the oracle reports a
    violation.
    """
    gc.collect()
    digest = hashlib.sha256()
    outcomes: List[Outcome] = []
    intervals: List[Tuple[float, float]] = []
    for index, case in enumerate(cases):
        result: Optional[RunResult] = None
        failure: Optional[str] = None
        with window(index):
            started = time.perf_counter()
            try:
                result = case.execute()
            except Exception as exc:  # a raising run is a failed run
                failure = f"raised {type(exc).__name__}: {exc}"
            ended = time.perf_counter()
        intervals.append((started, ended))
        outcome = Outcome(case.label, ended - started, ended - started, failure)
        if result is not None:
            _check(case, result, outcome)
            _digest_run(digest, result)
        digest.update(f"{case.label}|{outcome.failure}".encode())
        outcomes.append(outcome)
    if probe is not None:
        for outcome, (started, ended) in zip(outcomes, intervals):
            outcome.wall_s = probe.scale(outcome.raw_wall_s, started, ended)
    return PassResult(outcomes, digest.hexdigest())


def _check(case: Case, result: RunResult, outcome: Outcome) -> None:
    problems = []
    if not chains_agree(result.honest_chains(), final_only=True):
        problems.append("honest chains disagree")
    if case.oracle and not result.oracle.ok:
        problems.append("oracle: " + ", ".join(result.oracle.violated_names))
    outcome.failure = "; ".join(problems) or None
    log = result.ctx.commit_log
    outcome.committed_tx = log.committed_transactions
    outcome.blocks = log.committed_blocks
    outcome.events = result.ctx.engine.events_processed
    if result.history_truncated:
        outcome.sketch_p99 = result.throughput.latency_p99
    else:
        commits = log.commit_times()
        outcome.latencies = [
            commits[tx_id] - submitted
            for tx_id, submitted in result.ctx.workload.submissions()
            if tx_id in commits
        ]


def _digest_run(digest, result: RunResult) -> None:
    """Fold what a run decided into the pass digest: every retained
    first-commit time and every honest replica's final chain."""
    commits = sorted(result.ctx.commit_log.commit_times().items())
    digest.update(json.dumps(commits).encode())
    for player_id, chain in sorted(result.honest_chains().items()):
        digest.update(str(player_id).encode())
        for block in chain.final_blocks():
            digest.update(block.digest.encode())


def measure_setup(specs: Sequence[RunSpec], probe: SpeedProbe, min_reps: int = 9,
                  min_seconds: float = 1.0) -> float:
    """Median seconds, at the probe's reference speed, to construct
    every :class:`Deployment` of one pass (not executed).  Each
    repetition starts from a collected heap."""
    timed: List[Tuple[float, float]] = []
    began = time.perf_counter()
    while len(timed) < min_reps or time.perf_counter() - began < min_seconds:
        gc.collect()
        started = time.perf_counter()
        for spec in specs:
            Deployment(spec)
        timed.append((started, time.perf_counter()))
    return statistics.median(probe.scale(end - start, start, end) for start, end in timed)


class SpecCapture:
    """Records the spec of every :class:`Deployment` built while active,
    so the set-up phase can rebuild exactly the pass's deployments."""

    def __init__(self) -> None:
        self.specs: List[RunSpec] = []
        self._original = None

    def __enter__(self) -> "SpecCapture":
        original = self._original = Deployment.__init__
        specs = self.specs

        def capturing_init(deployment, spec):
            specs.append(spec)
            original(deployment, spec)

        Deployment.__init__ = capturing_init
        return self

    def __exit__(self, *exc) -> None:
        Deployment.__init__ = self._original
