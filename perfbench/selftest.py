"""Tiny-size self-test of the benchmark command.

    python3 perfbench/selftest.py

Checks, at tiny workload sizes:

- ``BENCHMARK.json`` lists exactly the per-layer metrics the tracer
  defines;
- every workload runs with ``--trace 0`` and ``--trace 1``, reports
  ``correct``, and emits exactly the metric names ``BENCHMARK.json``
  lists for that mode, each with its unit;
- the span file round-trips, and its self times plus the uncovered
  remainder add up to the traced wall time;
- the same seed gives the same output; a different seed changes the
  output of ``soak`` only (``committee`` runs identically under other
  keys, and ``campaign`` is pinned);
- without the program's source the command exits non-zero and prints
  no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(*args: str) -> dict:
    child = _command(*args)
    if child.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {child.returncode}: "
                             f"{child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    traced = {}
    for workload in workloads:
        for trace in ("0", "1"):
            result = _result("--workload", workload, "--seed", "0", "--seconds", "0.1",
                             "--trace", trace, "--size", "tiny")
            label = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{label}: correct, attempted {result['attempted']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{label}: every listed metric, with its unit")
        traced[workload] = {name: m["value"] for name, m in result["metrics"].items()}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import per_layer_spec, read_spans
    from workloads import build_cases, execute_pass

    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check(listed == per_layer_spec(), "BENCHMARK.json lists the tracer's per-layer metrics")

    for workload, layer in traced.items():
        names, spans = read_spans(HERE / "out" / f"{workload}.spans")
        covered = [0.0] * len(spans)
        self_total = 0.0
        for index in range(len(spans) - 1, -1, -1):
            _, start, end, parent, _ = spans[index]
            self_total += (end - start) - covered[index]
            if parent >= 0:
                covered[parent] += end - start
        reported = sum(layer[f"{name}.self_s"] for name in names)
        check(len(spans) == sum(layer[f"{name}.calls"] for name in names)
              and abs(self_total - reported) < 1e-9,
              f"{workload}: the span file holds the reported calls and self times")
        check(abs(reported + layer["untraced_remainder_s"] - layer["traced_wall_s"]) < 1e-9,
              f"{workload}: self times + untraced remainder = traced wall time")

    for workload in workloads:
        digests = [execute_pass(build_cases(workload, seed, "tiny")).digest
                   for seed in (0, 0, 1)]
        check(digests[0] == digests[1], f"{workload}: the same seed gives the same output")
        varies = workload == "soak"
        check((digests[0] != digests[2]) == varies,
              f"{workload}: a different seed " + ("changes" if varies else "keeps") + " the output")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        child = _command("--workload", workloads[0], "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=Path(bare))
        check(child.returncode != 0 and "metrics" not in child.stdout,
              "without src/: non-zero exit, no result printed")

    print(f"{len(failures)} check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
