"""Smoke test of the benchmark at tiny scale.

Runs every workload of ``BENCHMARK.json`` twice untraced and twice
traced with ``--scale smoke`` and checks that the output follows the
declared schema, that every output check passes, and that every
deterministic figure (``sim_*``, ``psnr_*``, ``latency_p95_kcycles``,
the layer counts and the modelled-output digest) repeats exactly.
Run it from anywhere::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Figures read off the host clock or the host process; every other
#: figure is modelled or counted and must repeat exactly.
HOST_FIGURES = {"frames_per_s", "peak_rss_mb", "bench.trace_overhead_frac"}


def run_bench(workload: str, trace: int) -> Tuple[Dict, str]:
    """One smoke-scale run: its result object and modelled digest."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(
        line.split()[1] for line in lines if line.split()[:1] == ["modelled_digest"]
    )
    return json.loads(lines[-1]), digest


def check_schema(result: Dict, declared: List[Dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def deterministic(result: Dict) -> Dict[str, float]:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] != "s" and name not in HOST_FIGURES
    }


def test_schema_and_repeatability() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = set()
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            first, digest_a = run_bench(workload, trace)
            second, digest_b = run_bench(workload, trace)
            check_schema(first, declared)
            check_schema(second, declared)
            assert deterministic(first) == deterministic(second), workload
            digests |= {digest_a, digest_b}
        # Tracing must not perturb the modelled output.
        assert len(digests) == 1, (workload, digests)


if __name__ == "__main__":
    test_schema_and_repeatability()
    print("perfbench smoke test passed")
