"""Benchmark command: wall-clock cost of the simulator, end to end and
per layer, on three pinned workloads (see README.md in this directory).

    python3 perfbench/run.py --workload soak --seed 0 --seconds 20 --trace 0

``--trace 0`` measures untraced: every run of the workload repeated for
``--seconds`` (at least three passes), medians reported, outputs
checked, set-up time from repeated deployment construction, and peak
memory from one more pass in a fresh process.  ``--trace 1`` repeats
the untraced measurement as the overhead baseline, then makes two
traced passes: the first gives the per-layer table and the span file
(``perfbench/out/``), the second must repeat every count exactly.
``--workload all`` (the default) runs every workload both ways and
prints every table.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the
distinct runs of the workload instance, ``failed`` those that raised,
whose honest chains disagree, or whose oracle reported a violation
(listed above the JSON by label).  ``correct`` is false if passes of
the same seed disagree on anything — output digest, failures or, when
traced, any count — or if tracing changed the output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_PASSES = 3
MEMORY_PASS_TIMEOUT_S = 170

#: name, unit — the order of the end-to-end table
END_TO_END = (
    ("wall_s", "s"),
    ("committed_tx_per_s", "1/s"),
    ("setup_s", "s"),
    ("trial_s_p50", "s"),
    ("trial_s_p95", "s"),
    ("peak_rss_mib", "MiB"),
)


def _measured_passes(cases, seconds: float, probe, first=None):
    """Untraced passes until ``seconds`` have elapsed (at least
    :data:`MIN_PASSES`, counting ``first`` if given)."""
    from workloads import execute_pass

    passes = [first] if first is not None else []
    began = time.perf_counter() - (first.raw_wall_s if first is not None else 0.0)
    while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
        passes.append(execute_pass(cases, probe=probe))
    return passes


def _memory_pass(workload: str, seed: int, size: str) -> Tuple[float, str]:
    """Peak RSS of one untraced pass in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--memory-pass",
               "--workload", workload, "--seed", str(seed), "--size", size]
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=MEMORY_PASS_TIMEOUT_S, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"memory pass failed ({child.returncode}): {child.stderr[-2000:]}")
    report = json.loads(child.stdout.strip().splitlines()[-1])
    return report["peak_rss_mib"], report["digest"]


def _trial_seconds(passes) -> List[float]:
    """Per-run wall seconds, each the median over passes (a one-run
    workload has one trial, so both its percentiles are that median)."""
    return [
        statistics.median(p.outcomes[i].wall_s for p in passes)
        for i in range(len(passes[0].outcomes))
    ]


def _agree(reference, other) -> bool:
    return other.digest == reference.digest and other.failures() == reference.failures()


def run_workload(workload: str, seed: int, seconds: float, size: str = "full",
                 end_to_end: bool = True, per_layer: bool = False) -> Dict[str, object]:
    """Measure one workload; returns correctness, counts, metrics."""
    from tracer import Tracer, per_layer_spec
    from workloads import (
        SpecCapture, SpeedProbe, build_cases, execute_pass, measure_setup, percentile,
    )

    cases = build_cases(workload, seed, size)
    correct = True
    metrics: Dict[str, Tuple[float, str]] = {}
    notes: List[str] = []

    setup_s = None
    with SpeedProbe() as probe:
        if end_to_end:
            with SpecCapture() as capture:
                first = execute_pass(cases, probe=probe)
            setup_s = measure_setup(capture.specs, probe)
            passes = _measured_passes(cases, seconds, probe, first)
        else:
            passes = _measured_passes(cases, seconds, probe)
    reference = passes[0]
    if not all(_agree(reference, p) for p in passes):
        correct = False
        notes.append("passes of one seed disagree")
    wall_s = statistics.median(p.wall_s for p in passes)
    raw_wall_s = statistics.median(p.raw_wall_s for p in passes)
    notes.append(f"{len(passes)} untraced passes, {reference.events} events, "
                 f"{reference.committed_tx} tx / {reference.blocks} blocks committed, "
                 f"output digest {reference.digest}")
    notes.append(f"median pass {wall_s:.4f} s at the reference speed, {raw_wall_s:.4f} s raw")

    if end_to_end:
        peak_rss_mib, memory_digest = _memory_pass(workload, seed, size)
        if memory_digest != reference.digest:
            correct = False
            notes.append("memory pass output differs")
        trials = _trial_seconds(passes)
        values = {
            "wall_s": wall_s,
            "committed_tx_per_s": reference.committed_tx / wall_s,
            "setup_s": setup_s,
            "trial_s_p50": percentile(trials, 0.50),
            "trial_s_p95": percentile(trials, 0.95),
            "peak_rss_mib": peak_rss_mib,
        }
        for name, unit in END_TO_END:
            metrics[name] = (values[name], unit)

    if per_layer:
        traced = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                result = execute_pass(cases, tracer.window)
            finally:
                tracer.uninstall()
            traced.append((tracer, result))
        (tracer, result), (again, result_again) = traced
        if not (_agree(reference, result) and _agree(reference, result_again)):
            correct = False
            notes.append("tracing changed the output")
        if tracer.exact_counts() != again.exact_counts():
            correct = False
            notes.append("two traced passes disagree on counts")
        layer = tracer.layer_metrics(
            blocks=result.blocks,
            events=result.events,
            traced_wall=result.wall_s,
            untraced_wall=raw_wall_s,
            sim_latency_p99=result.sim_latency_p99(),
        )
        if layer["untraced_remainder_s"] < 0:
            correct = False
            notes.append("self times exceed the traced wall time")
        for name, unit, _ in per_layer_spec():
            metrics[name] = (layer[name], unit)
        OUT.mkdir(exist_ok=True)
        span_path = OUT / f"{workload}.spans"
        tracer.write_spans(span_path)
        notes.append(f"{len(tracer.start)} spans written to {span_path.relative_to(HERE.parent)}")

    failures = reference.failures()
    return {
        "workload": workload,
        "correct": correct,
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures,
        "notes": notes,
        "metrics": metrics,
    }


def _print_report(report: Dict[str, object]) -> None:
    print(f"== {report['workload']}: {report['failed']} of {report['attempted']} runs failed, "
          f"correct={report['correct']}")
    for note in report["notes"]:
        print(f"   {note}")
    for failure in report["failures"]:
        print(f"   failed: {failure}")
    metrics = report["metrics"]
    for name, unit in END_TO_END:
        if name in metrics:
            print(f"   {name:<22} {metrics[name][0]:>14.6g} {unit}")
    if "engine.step.calls" in metrics:
        from tracer import SPAN_NAMES, LAYER_METRICS

        print(f"   {'span':<36} {'calls':>9} {'self_s':>9} {'us/call':>9} {'per_block':>11}")
        ranked = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"][0])
        for name in ranked:
            print(f"   {name:<36} {metrics[name + '.calls'][0]:>9.0f} "
                  f"{metrics[name + '.self_s'][0]:>9.4f} "
                  f"{metrics[name + '.us_per_call'][0]:>9.2f} "
                  f"{metrics[name + '.per_block'][0]:>11.1f}")
        for name, unit, _ in LAYER_METRICS:
            print(f"   {name:<36} {metrics[name][0]:>14.6g} {unit}")


def _result_line(reports: List[Dict[str, object]], prefix: bool) -> str:
    metrics = {}
    for report in reports:
        for name, (value, unit) in report["metrics"].items():
            key = f"{report['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("soak", "committee", "campaign", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program source {SRC / 'repro'} is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Runs must not mirror into a results warehouse outside the checkout.
    os.environ.pop("REPRO_WAREHOUSE", None)

    if args.memory_pass:
        from workloads import build_cases, execute_pass

        result = execute_pass(build_cases(args.workload, args.seed, args.size))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"peak_rss_mib": peak, "digest": result.digest}))
        return 0

    if args.workload == "all":
        reports = [
            run_workload(name, args.seed, args.seconds, args.size,
                         end_to_end=True, per_layer=True)
            for name in ("soak", "committee", "campaign")
        ]
    else:
        reports = [run_workload(args.workload, args.seed, args.seconds, args.size,
                                end_to_end=not args.trace, per_layer=bool(args.trace))]
    for report in reports:
        _print_report(report)
    print(_result_line(reports, prefix=args.workload == "all"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
