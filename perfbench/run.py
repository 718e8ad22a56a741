"""The repository benchmark: one command, three workloads, two clocks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload video_orbit --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each
exists): ``video_orbit``, ``still_frames`` and ``serve_crowd``.

A run imports the program, sets the workload up several times (the
median is ``setup_s``), renders the analytic ground truth the output
checks compare against, then repeats passes for ``--seconds`` seconds.
Two clocks are reported side by side: host time, what the Python
simulator takes, and modelled time, what the simulated CIM accelerator
takes.  Modelled figures are deterministic for a given seed; they are
not validated against hardware (the paper's values come from a
different model, so no error figure is given).

With ``--trace 0`` the passes run the unmodified program and the run
reports every end-to-end metric of ``BENCHMARK.json``.  With
``--trace 1`` untraced and traced passes alternate; the traced ones wrap
the program's layer entry points in spans (``tracing.py``) and the run
reports every per-layer metric, plus the tracing overhead.  Both modes
check every pass's output: finite images above a PSNR floor, serving
conservation, every submitted frame delivered or aborted, and the same
modelled output (digest) on every pass.  Failed checks are counted, not
fatal.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric with its unit, the modelled-output digest, the BLAS thread
count and ``nproc``.  Details, and in trace mode every span, are written
under ``perfbench/results/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("video_orbit", "still_frames", "serve_crowd")
#: numpy links multithreaded OpenBLAS; the load runs in one process on
#: one BLAS thread so host times do not depend on the machine's cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Pricing-engine overrides the program reads from the environment; the
#: benchmark measures the default engine choice.
ENGINE_OVERRIDES = ("REPRO_COLD_PLAN_LIMIT", "REPRO_SCALAR_ENGINE")
SETUP_REPEATS = 3
#: Traced passes must leave at most this share of their wall time
#: outside every layer span.
MAX_UNATTRIBUTED_FRAC = 0.05
#: Printed beside the JSON metrics but not in it: both read 0 on a
#: healthy run, and a relative bound on a zero median means nothing.
EXTRA_UNITS = {"failed_frac": "fraction", "deadline_miss_frac": "fraction"}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOAD_NAMES + ("all",),
        help="all = every workload in turn, one process each",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke = tiny inputs for the benchmark's own smoke test",
    )
    return parser.parse_args(argv)


class PassLog:
    """Outcome of every pass of a run, with the cross-pass checks."""

    def __init__(self, frames_per_pass: int) -> None:
        self.frames_per_pass = frames_per_pass
        self.results: List = []  # PassResult per successful pass
        self.walls: List[float] = []
        self.traced: List[bool] = []
        self.ids: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def crashed(self, pass_id: int) -> None:
        self.attempted += self.frames_per_pass
        self.failed += self.frames_per_pass
        self.problems.append(f"pass {pass_id}: raised\n{traceback.format_exc()}")

    def add(self, pass_id: int, result, wall: float, traced: bool) -> None:
        if self.results:
            first = self.results[0]
            if (result.digest, result.modelled, result.counts) != (
                first.digest,
                first.modelled,
                first.counts,
            ):
                result.problems.append("modelled output differs from the first pass")
                result.bad_frames = result.submitted
        self.results.append(result)
        self.walls.append(wall)
        self.traced.append(traced)
        self.ids.append(pass_id)
        self.attempted += result.submitted
        self.failed += min(result.bad_frames, result.submitted)
        self.problems += [f"pass {pass_id}: {p}" for p in result.problems]


def run_passes(workload, seconds: float, tracer) -> PassLog:
    """Repeat passes for ``seconds``; with a tracer, alternate untraced
    and traced passes and run at least one of each."""
    log = PassLog(workload.frames_per_pass)
    deadline = time.perf_counter() + seconds
    pass_id = 0
    while pass_id < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and pass_id % 2 == 1
        # Collect the previous pass's garbage now rather than at a random
        # point inside this pass (it moved serve_crowd passes by +-25%).
        gc.collect()
        start = time.perf_counter()
        try:
            if traced:
                raw = tracer.run_pass(pass_id, workload.run_pass)
            else:
                raw = workload.run_pass()
        except Exception:  # a broken pass is a failed operation, not fatal
            log.crashed(pass_id)
        else:
            wall = time.perf_counter() - start
            log.add(pass_id, workload.summarise(raw), wall, traced)
            del raw
        pass_id += 1
    return log


def end_to_end_metrics(log: PassLog, setup_s: float) -> Dict[str, float]:
    first = log.results[0]
    rates = [r.delivered / w for r, w in zip(log.results, log.walls)]
    return {
        "setup_s": setup_s,
        "frames_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **first.modelled,
        "failed_frac": log.failed / log.attempted,
    }


def per_layer_metrics(log: PassLog, tracer) -> Dict[str, float]:
    """Per-layer figures from the traced passes (times: medians), and
    the traced-run checks: layer self times cover the pass, the engine
    breakdown adds up to the modelled total, counts repeat."""
    from tracing import PLAN_BUILD_SPAN, ROOT_SPAN

    rows = []
    for pass_id, result, traced in zip(log.ids, log.results, log.traced):
        if not traced:
            continue
        self_s = tracer.self_times(pass_id)
        counts = tracer.counts[pass_id]
        wall = tracer.pass_wall(pass_id)

        def layer(prefix: str, exclude: str = "") -> float:
            return sum(
                v for k, v in self_s.items() if k.startswith(prefix) and k != exclude
            )

        frames = result.delivered
        queried = counts["nerf.points_queried"]
        lookups = counts["arch.lookups"]
        row = {
            "nerf.encode_s": self_s.get("nerf.encode", 0.0),
            "nerf.mlp_s": self_s.get("nerf.mlp", 0.0),
            "nerf.encode_calls": counts["nerf.encode_calls"],
            "nerf.points_queried": queried,
            "core.render_s": layer("core."),
            "core.useful_point_frac": result.density_points / queried if queried else 0.0,
            "exec.price_s": layer("exec.", exclude=PLAN_BUILD_SPAN),
            "exec.plan_build_s": self_s.get(PLAN_BUILD_SPAN, 0.0),
            "exec.plan_builds": counts["exec.plan_builds"],
            "exec.frames_priced": counts["exec.frames_priced"],
            "arch.encoding_kcycles": counts["arch.encoding_cycles"] / frames / 1e3,
            "arch.mlp_kcycles": counts["arch.mlp_cycles"] / frames / 1e3,
            "arch.render_kcycles": counts["arch.render_cycles"] / frames / 1e3,
            "arch.bus_kcycles": counts["arch.bus_cycles"] / frames / 1e3,
            "arch.stall_kcycles": counts["arch.stall_cycles"] / frames / 1e3,
            "arch.temporal_hit_rate": counts["arch.temporal_hits"] / lookups if lookups else 0.0,
            "serving.sched_s": layer("serving."),
            "serving.quanta": counts["serving.quanta"],
            "bench.unattributed_s": self_s[ROOT_SPAN],
            **result.counts,
        }
        problems = []
        if row["bench.unattributed_s"] > MAX_UNATTRIBUTED_FRAC * wall:
            problems.append(
                f"unattributed {row['bench.unattributed_s']:.4f} s of a "
                f"{wall:.4f} s pass exceeds {MAX_UNATTRIBUTED_FRAC:.0%}"
            )
        if counts["arch.total_cycles"] != result.sim_cycles:
            problems.append(
                f"engine reports add to {counts['arch.total_cycles']} cycles, "
                f"the pass delivered {result.sim_cycles}"
            )
        if rows and any(
            row[k] != rows[0][k] for k in row if not k.endswith("_s")
        ):
            problems.append("layer counts differ from the first traced pass")
        if problems:
            log.failed += result.submitted - min(result.bad_frames, result.submitted)
            result.bad_frames = result.submitted
            log.problems += [f"pass {pass_id}: {p}" for p in problems]
        rows.append(row)

    if not rows:
        raise SystemExit("perfbench: every traced pass raised; no per-layer result")
    metrics = {
        k: statistics.median(r[k] for r in rows) if k.endswith("_s") else rows[0][k]
        for k in rows[0]
    }
    untraced = [w for w, t in zip(log.walls, log.traced) if not t]
    traced = [w for w, t in zip(log.walls, log.traced) if t]
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        rest += ["--trace", str(args.trace), "--scale", args.scale]
        return max(
            subprocess.call([sys.executable, __file__, "--workload", name] + rest)
            for name in WORKLOAD_NAMES
        )
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"perfbench: {ROOT} holds no program sources (src/repro) or no "
            "BENCHMARK.json; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in ENGINE_OVERRIDES:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload](
        args.seed, args.scale == "smoke", str(ROOT / ".cache" / "models")
    )
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    workload.references()

    tracer = Tracer() if args.trace else None
    log = run_passes(workload, args.seconds, tracer)
    if not log.results:
        print("\n".join(log.problems), file=sys.stderr)
        print("perfbench: every pass raised; no result", file=sys.stderr)
        return 1
    figures = end_to_end_metrics(log, setup_s)
    declared = spec["per_layer"] if tracer else spec["end_to_end"]
    if tracer:
        figures.update(per_layer_metrics(log, tracer))
    metrics = {
        m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared
    }

    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ[BLAS_THREAD_VARS[0]])
    digest = log.results[0].digest
    print(
        f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
        f"trace={args.trace} passes={len(log.walls)} blas_threads={threads} "
        f"nproc={nproc}"
    )
    shown = dict(metrics)
    if not tracer:
        shown.update(
            {k: {"value": figures[k], "unit": u} for k, u in EXTRA_UNITS.items()}
        )
    for name, m in shown.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'modelled_digest':28s} {digest}")
    print("  modelled figures are not validated against hardware; no error figure")
    for line in log.problems[:20]:
        print(f"  check failed: {line}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}"
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.json")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs": workload.inputs,
        "blas_threads": threads,
        "nproc": nproc,
        "import_s": import_s,
        "setup_runs_s": setups,
        "pass_walls_s": log.walls,
        "pass_traced": log.traced,
        "figures": figures,
        "modelled_digest": digest,
        "problems": log.problems,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
