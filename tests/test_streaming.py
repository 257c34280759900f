"""Tests for the O(1)-memory streaming metrics path (repro.sim.streaming).

Covers the P² quantile estimator against exact percentiles on
adversarial input orderings, the LatencySketch's exact-phase
byte-compatibility with the historical sorted-list path, the bounded
BacklogSeries (exact peak/final under downsampling, instant-end
peak), the ThroughputAccumulator, the report's resolution cap, the
RunRecord series cap, and a differential gate over every continuous
catalog scenario under all five protocols: the report matches an
exact recomputation from the run's own submissions and commits.
"""

import bisect
import random

import pytest

from repro.experiments import get_scenario, scenario_catalog
from repro.sim.metrics import ThroughputReport
from repro.sim.streaming import (
    BacklogSeries,
    LatencySketch,
    P2Quantile,
    ThroughputAccumulator,
    percentile_of_sorted,
)
from tests.conftest import streamed_report

PROTOCOLS = ("prft", "pbft", "polygraph", "trap", "hotstuff")
CONTINUOUS_SCENARIOS = sorted(
    name for name, scenario in scenario_catalog().items() if scenario.duration is not None
)


def exact_walk(submissions, commit_times):
    """The reference recomputation: every latency sorted, and the
    backlog walked edge by edge with a same-instant commit resolved
    before a submission (the tie rule).  Returns
    ``(latencies, peak, final, series)``."""
    latencies = sorted(
        commit_times[tx_id] - when for tx_id, when in submissions if tx_id in commit_times
    )
    edges = [(when, 1, +1) for _, when in submissions]
    edges += [(commit_times[tx_id], 0, -1) for tx_id, _ in submissions if tx_id in commit_times]
    backlog, series = 0, []
    for when, _, delta in sorted(edges):
        backlog += delta
        if series and series[-1][0] == when:
            series[-1] = (when, backlog)
        else:
            series.append((when, backlog))
    peak = max((value for _, value in series), default=0)
    return latencies, peak, backlog, tuple(series)


def rank_of(ordered, value):
    """The percentile rank a value lands at in an exact sorted sample."""
    return bisect.bisect_left(ordered, value) / len(ordered) * 100.0


def adversarial_samples():
    """Input orderings chosen to stress P²'s marker dynamics: already
    sorted (markers chase a moving maximum), reverse sorted (every
    observation lands in the first cell), bimodal (a wide empty gap the
    parabolic interpolation could wander into), constant (zero-width
    distribution)."""
    rng = random.Random(0)
    uniform = [rng.uniform(0.0, 100.0) for _ in range(20_000)]
    bimodal = [
        rng.gauss(10.0, 1.0) if rng.random() < 0.4 else rng.gauss(100.0, 5.0)
        for _ in range(20_000)
    ]
    return {
        "sorted": sorted(uniform),
        "reversed": sorted(uniform, reverse=True),
        "bimodal": bimodal,
        "constant": [7.0] * 20_000,
    }


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_exact_below_five_samples(self):
        estimator = P2Quantile(0.5)
        values = [9.0, 1.0, 5.0]
        for value in values:
            estimator.add(value)
        assert estimator.value() == percentile_of_sorted(sorted(values), 50.0)
        assert not estimator.initialized

    def test_no_values_raises(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_seed_requires_five_and_fresh_state(self):
        estimator = P2Quantile(0.5)
        with pytest.raises(ValueError):
            estimator.seed([1.0, 2.0, 3.0, 4.0])
        estimator.seed([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            estimator.seed([1.0, 2.0, 3.0, 4.0, 5.0])

    @pytest.mark.parametrize("name", ["sorted", "reversed", "bimodal", "constant"])
    @pytest.mark.parametrize("q", [50.0, 99.0])
    def test_accuracy_on_adversarial_orderings(self, name, q):
        """The estimate must land within ±2.5 percentile ranks of the
        target in the *exact* distribution (measured drift on these
        streams is under 0.7 ranks; the band leaves headroom without
        ever letting p50 pass for p99)."""
        values = adversarial_samples()[name]
        sketch = LatencySketch(exact_limit=64)
        for value in values:
            sketch.add(value)
        assert not sketch.exact
        estimate = sketch.percentile(q)
        ordered = sorted(values)
        if name == "constant":
            assert estimate == 7.0
            return
        assert abs(rank_of(ordered, estimate) - q) <= 2.5


class TestLatencySketch:
    def test_exact_phase_matches_sorted_list_path(self):
        rng = random.Random(1)
        values = [rng.uniform(0.0, 50.0) for _ in range(200)]
        sketch = LatencySketch()  # default limit 1024 > 200
        for value in values:
            sketch.add(value)
        ordered = sorted(values)
        assert sketch.exact
        for q in (50.0, 99.0, 12.5):  # any quantile while exact
            assert sketch.percentile(q) == percentile_of_sorted(ordered, q)

    def test_scalar_moments_stay_exact_past_the_limit(self):
        rng = random.Random(2)
        values = [rng.uniform(0.0, 9.0) for _ in range(5_000)]
        sketch = LatencySketch(exact_limit=32)
        for value in values:
            sketch.add(value)
        assert sketch.count == len(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_untracked_quantile_refused_past_exact_phase(self):
        sketch = LatencySketch(exact_limit=5)
        for value in range(10):
            sketch.add(float(value))
        with pytest.raises(ValueError):
            sketch.percentile(12.5)

    def test_estimates_clamped_to_observed_range(self):
        sketch = LatencySketch(exact_limit=5)
        for value in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]:
            sketch.add(value)
        for q in (50.0, 99.0):
            assert 1.0 <= sketch.percentile(q) <= 9.0

    def test_empty_sketch_reports_zeroes(self):
        sketch = LatencySketch()
        assert sketch.count == 0
        assert sketch.mean == 0.0
        assert sketch.min == 0.0
        assert sketch.max == 0.0
        assert sketch.percentile(50.0) == 0.0


class TestBacklogSeries:
    def test_same_time_updates_merge(self):
        series = BacklogSeries()
        series.append(1.0, 1)
        series.append(1.0, 2)
        series.append(2.0, 1)
        assert series.points() == ((1.0, 2), (2.0, 1))

    def test_peak_ignores_same_instant_transients(self):
        series = BacklogSeries()
        series.append(1.0, 1)
        series.append(2.0, 2)  # a submission lands first ...
        series.append(2.0, 1)  # ... then the same instant's commit
        assert series.peak == 1
        series.append(3.0, 2)
        assert series.peak == 2

    def test_peak_and_final_survive_downsampling(self):
        series = BacklogSeries(resolution=8)
        rng = random.Random(3)
        backlog, peak = 0, 0
        for step in range(2_000):
            backlog = max(0, backlog + rng.choice([-1, 1, 1]))
            peak = max(peak, backlog)
            series.append(float(step), backlog)
        assert series.peak == peak
        assert series.final == backlog
        assert series.truncated
        assert len(series) <= 2 * 8 + 1
        # The crest is still visible in the retained curve.
        assert max(value for _, value in series.points()) == peak

    def test_unbounded_series_keeps_every_point(self):
        series = BacklogSeries()
        for step in range(1_000):
            series.append(float(step), step % 7)
        assert len(series) == 1_000
        assert not series.truncated

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            BacklogSeries(resolution=1)


class TestThroughputAccumulator:
    def test_matches_exact_walk_on_same_schedule(self):
        rng = random.Random(4)
        submissions = [(f"tx{i}", float(i)) for i in range(300)]
        commit_times = {
            f"tx{i}": float(i) + rng.uniform(0.5, 3.0)
            for i in range(300)
            if i % 5  # every fifth submission never commits
        }
        report = streamed_report(
            submissions, commit_times, blocks=10, horizon=400.0, resolution=None
        )
        latencies, peak, final, series = exact_walk(submissions, commit_times)
        assert report.submitted == len(submissions)
        assert report.committed == len(latencies)
        assert report.latency_mean == pytest.approx(sum(latencies) / len(latencies))
        assert report.latency_p99 == percentile_of_sorted(latencies, 99.0)
        assert report.peak_backlog == peak
        assert report.final_backlog == final
        assert report.backlog_series == series

    def test_duplicate_and_unknown_notifications_ignored(self):
        accumulator = ThroughputAccumulator()
        accumulator.note_submit("a", 0.0)
        accumulator.note_submit("a", 1.0)
        assert accumulator.submitted == 1
        accumulator.note_commit("ghost", 2.0)
        assert accumulator.committed == 0
        accumulator.note_commit("a", 2.0)
        accumulator.note_commit("a", 3.0)
        assert accumulator.committed == 1
        assert accumulator.backlog == 0


class TestReportCaps:
    def _report(self, points):
        return ThroughputReport(
            horizon=1.0, blocks=1, submitted=1, committed=1, blocks_per_sec=1.0,
            latency_mean=0.0, latency_p50=0.0, latency_p99=0.0, latency_max=0.0,
            peak_backlog=max((value for _, value in points), default=0),
            final_backlog=points[-1][1] if points else 0,
            backlog_series=tuple(points),
        )

    def test_report_resolution_caps_series(self):
        submissions = [(f"tx{i}", float(i)) for i in range(4_000)]
        commits = {tx: when + 1.0 for tx, when in submissions}
        capped = streamed_report(
            submissions, commits, blocks=5, horizon=4_100.0, resolution=16
        )
        legacy = streamed_report(
            submissions, commits, blocks=5, horizon=4_100.0, resolution=None
        )
        assert len(capped.backlog_series) <= 2 * 16 + 1
        assert len(legacy.backlog_series) > len(capped.backlog_series)
        # Scalars are unaffected by the series cap.
        assert capped.peak_backlog == legacy.peak_backlog
        assert capped.final_backlog == legacy.final_backlog
        assert capped.latency_p99 == legacy.latency_p99

    def test_record_series_small_series_verbatim(self):
        points = [(float(i), i % 3) for i in range(10)]
        assert self._report(points).record_series() == tuple(points)

    def test_record_series_caps_and_keeps_crest_and_last(self):
        points = [(float(i), 0) for i in range(1_000)]
        points[337] = (337.0, 42)  # the crest, off the stride grid
        report = self._report(points)
        kept = report.record_series(cap=16)
        assert len(kept) <= 16 + 2
        assert kept[-1] == points[-1]
        assert (337.0, 42) in kept
        assert list(kept) == sorted(kept)

    def test_record_series_cap_validation(self):
        with pytest.raises(ValueError):
            self._report([(0.0, 1)]).record_series(cap=1)


class TestDifferentialAgainstExact:
    """Every continuous catalog run's report must match an exact
    recomputation from the run's own submission and commit history."""

    @staticmethod
    def _history(result):
        return (
            list(result.ctx.workload.submissions()),
            dict(result.ctx.commit_log.commit_times()),
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("name", CONTINUOUS_SCENARIOS)
    def test_catalog_run_report_matches_exact(self, name, protocol):
        result = get_scenario(name).with_params(protocol=protocol).run(seed=0)
        report = result.throughput
        submissions, commit_times = self._history(result)
        latencies, peak, final, series = exact_walk(submissions, commit_times)
        assert report.submitted == len(submissions)
        assert report.committed == len(latencies)
        assert report.peak_backlog == peak
        assert report.final_backlog == final
        assert report.backlog_series == series
        if not latencies:
            assert report.latency_max == report.latency_p99 == 0.0
            return
        # Committed count sits below the default exact_limit, so the
        # sketch is still in its exact phase: not within-1% — equal.
        assert len(latencies) < LatencySketch.DEFAULT_EXACT_LIMIT
        assert report.latency_p50 == percentile_of_sorted(latencies, 50.0)
        assert report.latency_p99 == percentile_of_sorted(latencies, 99.0)
        assert report.latency_max == latencies[-1]
        assert report.latency_mean == pytest.approx(sum(latencies) / len(latencies))

    def test_forced_sketch_phase_stays_close_to_exact(self):
        """Replay the same run's history through an accumulator with a
        tiny exact_limit so the sketch phase engages; estimates must
        stay within a few percentile ranks of exact even on this short
        stream."""
        result = get_scenario("poisson-honest").run(seed=0)
        submissions, commit_times = self._history(result)
        forced = streamed_report(
            submissions,
            commit_times,
            blocks=result.throughput.blocks,
            horizon=result.throughput.horizon,
            exact_limit=8,
        )
        ordered, _, _, _ = exact_walk(submissions, commit_times)
        for q, estimate in ((50.0, forced.latency_p50), (99.0, forced.latency_p99)):
            assert abs(rank_of(ordered, estimate) - q) <= 7.5
