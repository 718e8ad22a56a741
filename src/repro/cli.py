"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment <id> [...]`` — run registered paper experiments and print
  their tables (``all`` runs everything; ``--list`` prints the registered
  experiment ids and titles without running anything).
* ``render <scene> --out img.ppm`` — distill (or load a cached model for)
  a scene and write baseline + ASDR renders side by side.
* ``video <scene>`` — render a camera-path sequence and report per-frame
  and amortised cycles/energy with temporal reuse (see
  ``repro video --help`` for path presets and examples).
* ``serve [scene]`` — serve N concurrent clients' sequences on one
  simulated accelerator and report per-client latency, throughput and
  fairness for each scheduling policy (see ``repro serve --help``).
  ``--dashboard`` renders the run's telemetry timeline; ``--events`` /
  ``--trace`` export it as JSONL / Perfetto-loadable Chrome trace JSON.
* ``timeline <events.jsonl>`` — re-render an exported telemetry log as
  the terminal timeline dashboard, post hoc.
* ``bench run-all [--smoke]`` — the AE harness: every benchmark suite in
  one invocation, all ``BENCH_*.json`` snapshots plus a ``results/``
  folder, schema-validated.
* ``report [--out EXPERIMENTS.md]`` — regenerate the paper-vs-measured
  report.
* ``scenes`` — list available scenes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.experiments.harness import (
    EXPERIMENTS,
    list_experiments,
    load_experiments,
    run_experiment,
)
from repro.experiments.report import generate_report
from repro.experiments.workbench import Workbench
from repro.metrics.image import psnr
from repro.scenes.analytic import scene_names
from repro.utils.imageio import write_ppm


def _cmd_scenes(_args) -> int:
    for name in scene_names():
        print(name)
    return 0


def _cmd_experiment(args) -> int:
    if args.list:
        width = max(len(exp_id) for exp_id, _ in list_experiments())
        for exp_id, title in list_experiments():
            print(f"{exp_id.ljust(width)}  {title}")
        return 0
    if not args.ids:
        print("no experiment ids given (use --list to see available ids)",
              file=sys.stderr)
        return 2
    wb = Workbench()
    ids = sorted(EXPERIMENTS) if "all" in args.ids else args.ids
    for exp_id in ids:
        run_experiment(exp_id, wb)
        print()
    return 0


def _cmd_render(args) -> int:
    wb = Workbench()
    if args.scene not in scene_names():
        print(f"unknown scene {args.scene!r}; see `python -m repro scenes`",
              file=sys.stderr)
        return 2
    baseline = wb.baseline_render(args.scene)
    asdr = wb.asdr_render(args.scene)
    reference = wb.reference(args.scene)
    side_by_side = np.concatenate([baseline.image, asdr.image], axis=1)
    write_ppm(side_by_side, args.out)
    print(f"wrote {args.out} (left: fixed budget, right: ASDR)")
    print(f"PSNR vs ground truth: baseline {psnr(baseline.image, reference):.2f}"
          f" | ASDR {psnr(asdr.image, reference):.2f}")
    print(f"avg points/pixel: {baseline.points_total / baseline.num_rays:.1f}"
          f" -> {asdr.average_samples_per_ray:.1f}")
    return 0


def _cmd_video(args) -> int:
    from repro.core.reprojection import ReprojectionConfig
    from repro.experiments.harness import format_table
    from repro.experiments.video import video_rows
    from repro.scenes.cameras import camera_path

    if args.scene not in scene_names():
        print(f"unknown scene {args.scene!r}; see `python -m repro scenes`",
              file=sys.stderr)
        return 2
    path = camera_path(
        args.preset,
        args.frames,
        args.size,
        args.size,
        arc=args.arc,
        travel=args.travel,
        amplitude=args.amplitude,
        period=args.period,
        hold=args.hold,
    )
    reproject = None
    if args.reproject:
        reproject = ReprojectionConfig(min_psnr=args.reproject_min_psnr)
    rows = video_rows(
        Workbench(),
        scene=args.scene,
        path=path,
        scale=args.scale,
        probe_interval=args.probe_interval,
        temporal=not args.no_temporal,
        reproject=reproject,
        adaptive_overlap=args.adaptive_overlap,
    )
    print(f"== video: {args.scene}, {args.frames}x{args.size}x{args.size} "
          f"{args.preset} ({args.scale}) ==")
    print(format_table(rows))
    amortised = rows[-1]
    print(
        f"\namortised: {amortised['video_kcycles']:.1f} kcycles/frame vs "
        f"{amortised['asdr_kcycles']:.1f} independent "
        f"({amortised['video_speedup']:.3f}x from temporal reuse; "
        f"temporal cache hit rate {amortised['temporal_hit_pct']:.1f}%)"
    )
    return 0


def _serve_policy_set(args) -> Optional[tuple]:
    """Resolve the ``--policy`` / ``--preemptive`` combination into the
    policy names to run (``None`` = invalid combination, reported)."""
    from repro.serving.policies import POLICY_NAMES

    if args.policy == "all":
        # --preemptive compares each preemptible policy with its
        # wavefront-granularity variant side by side.
        if args.preemptive:
            return (
                "round_robin",
                "round_robin_preemptive",
                "deadline",
                "deadline_preemptive",
            )
        return POLICY_NAMES
    name = args.policy
    if args.preemptive and name in ("round_robin", "deadline"):
        name += "_preemptive"
    if args.preemptive and name == "fifo":
        print("fifo serves requests to completion; it has no preemptive "
              "variant (try --policy round_robin or deadline)",
              file=sys.stderr)
        return None
    return (name,)


def _serve_recorder(args):
    """A MemoryRecorder when any telemetry output was requested, else
    ``None`` (the serving layers fall back to the no-op recorder)."""
    if args.dashboard or args.events or args.trace:
        from repro.obs import MemoryRecorder

        return MemoryRecorder()
    return None


def _emit_telemetry(args, recorder, clock_hz) -> None:
    """Render/export a recorded serving run per the telemetry flags."""
    if recorder is None:
        return
    if args.dashboard:
        from repro.obs import render_dashboard

        print()
        print(render_dashboard(recorder.events, clock_hz=clock_hz))
    if args.events:
        from repro.obs import write_events_jsonl

        write_events_jsonl(args.events, recorder.events, clock_hz=clock_hz)
        print(f"\nwrote {args.events} ({len(recorder.events)} events)")
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, recorder.events, clock_hz=clock_hz)
        print(f"wrote {args.trace} (load in Perfetto / chrome://tracing)")


def _serve_cluster(args, requests, policies, wb, slo=None) -> int:
    """Fleet-mode ``repro serve``: route the client mix across
    ``--shards`` accelerators with the ``--router`` placement policy and
    serve each scheduling policy on the resulting placement."""
    import json

    from repro.experiments.harness import format_table
    from repro.experiments.workbench import experiment_accelerator
    from repro.serving.cluster import ClusterServer, cluster_bench_summary
    from repro.serving.policies import (
        DEADLINE_POLICY_NAMES,
        PREEMPTIVE_POLICY_NAMES,
        make_policy,
    )

    recorder = _serve_recorder(args)
    cluster = ClusterServer(
        [experiment_accelerator(args.scale) for _ in range(args.shards)],
        router=args.router,
        group_size=wb.group_size(),
        temporal_capacity=args.temporal_capacity,
        shared_content=not args.no_shared_content,
        slo=slo,
        recorder=recorder,
    )
    for request in requests:
        cluster.submit(request, wb.client_sequence(request))
    reports = {
        policy: cluster.serve(
            make_policy(
                policy,
                quantum=(
                    args.quantum
                    if policy in PREEMPTIVE_POLICY_NAMES
                    else None
                ),
                best_effort_slack=(
                    args.best_effort_slack
                    if policy in DEADLINE_POLICY_NAMES
                    else None
                ),
            )
        )
        for policy in policies
    }
    print(f"== serve: {args.clients} clients on {args.scene}, "
          f"{args.frames}x{args.size}x{args.size} "
          f"({args.shards}x {args.scale} fleet, router {args.router}) ==")
    rows = []
    for policy in policies:
        for row in reports[policy].to_rows():
            rows.append({"policy": policy, **row})
    print(format_table(rows))
    for policy in policies:
        rep = reports[policy]
        print(
            f"\n{policy}: {rep.total_busy_cycles / 1e3:.1f} kcycles fleet "
            f"aggregate over {len(rep.shard_names)} shards "
            f"({rep.total_frames} frames); fairness {rep.fairness:.3f}, "
            f"p50/p95 latency {rep.latency_percentile_ms(50):.3f}/"
            f"{rep.latency_percentile_ms(95):.3f} ms"
        )
    _emit_telemetry(
        args,
        recorder,
        cluster.shard(cluster.shard_names[0]).accelerator.config.clock_hz,
    )
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(cluster_bench_summary(reports), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.experiments.harness import format_table
    from repro.experiments.serving import (
        default_client_mix,
        serve_reports,
    )
    from repro.serving.report import bench_summary

    if args.scene not in scene_names():
        print(f"unknown scene {args.scene!r}; see `python -m repro scenes`",
              file=sys.stderr)
        return 2
    if args.clients < 1:
        print("--clients must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    from repro.serving.slo import AUTO_QUANTUM

    if args.quantum is not None and args.quantum != AUTO_QUANTUM:
        try:
            args.quantum = int(args.quantum)
        except ValueError:
            print(f"--quantum must be an integer or '{AUTO_QUANTUM}'",
                  file=sys.stderr)
            return 2
        if args.quantum < 1:
            print("--quantum must be >= 1 wavefront step", file=sys.stderr)
            return 2
    policies = _serve_policy_set(args)
    if policies is None:
        return 2
    if args.quantum is not None and not any(
        p.endswith("_preemptive") for p in policies
    ):
        print("--quantum only applies to preemptive policies; add "
              "--preemptive or pick a *_preemptive --policy",
              file=sys.stderr)
        return 2
    from repro.serving.policies import DEADLINE_POLICY_NAMES

    if args.best_effort_slack is not None and not any(
        p in DEADLINE_POLICY_NAMES for p in policies
    ):
        print("--best-effort-slack only applies to the deadline policies; "
              "pick a deadline* --policy", file=sys.stderr)
        return 2
    wb = Workbench()
    slo_config = None
    if args.slo_mix is not None:
        from repro.experiments.slo import slo_mix

        requests, slo_config = slo_mix(
            wb,
            preset=args.slo_mix,
            scene=args.scene,
            frames=args.frames,
            size=args.size,
            scale=args.scale,
        )
    else:
        requests = default_client_mix(
            scene=args.scene,
            clients=args.clients,
            frames=args.frames,
            size=args.size,
        )
    if args.shards > 1:
        return _serve_cluster(args, requests, policies, wb, slo=slo_config)
    recorder = _serve_recorder(args)
    reports = serve_reports(
        wb,
        requests,
        scale=args.scale,
        policies=policies,
        temporal_capacity=args.temporal_capacity,
        shared_content=not args.no_shared_content,
        quantum=args.quantum,
        best_effort_slack=args.best_effort_slack,
        slo=slo_config,
        recorder=recorder,
    )
    print(f"== serve: {args.clients} clients on {args.scene}, "
          f"{args.frames}x{args.size}x{args.size} ({args.scale}) ==")
    rows = [row for policy in policies for row in reports[policy].to_rows()]
    print(format_table(rows))
    for policy in policies:
        rep = reports[policy]
        preempt = (
            f"; {rep.context_switches} context switches (quantum "
            f"{rep.quantum} wavefronts)"
            if rep.quantum is not None
            else ""
        )
        print(
            f"\n{policy}: {rep.busy_cycles / 1e3:.1f} kcycles aggregate vs "
            f"{rep.back_to_back_cycles / 1e3:.1f} back-to-back "
            f"({100.0 * rep.sharing_saving:.1f}% saved by sharing); "
            f"fairness {rep.fairness:.3f}, "
            f"throughput {rep.throughput_fps:.1f} fps{preempt}"
        )
        if slo_config is not None:
            attain = ", ".join(
                f"{cls} {val:.2f}"
                for cls, val in sorted(rep.slo_attainment.items())
            )
            shed = sum(c.shed_frames for c in rep.clients)
            degraded = sum(len(c.degraded) for c in rep.clients)
            print(f"  SLO attainment: {attain}; "
                  f"shed {shed}, degraded {degraded}")
    _emit_telemetry(
        args, recorder, next(iter(reports.values())).clock_hz
    )
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(bench_summary(reports), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_timeline(args) -> int:
    from repro.errors import ConfigurationError
    from repro.obs import read_events_jsonl, render_dashboard

    try:
        header, events = read_events_jsonl(args.events)
    except (OSError, ConfigurationError, ValueError) as exc:
        print(f"cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"{args.events}: no events after the header", file=sys.stderr)
        return 2
    print(
        render_dashboard(
            events, width=args.width, clock_hz=header.get("clock_hz")
        )
    )
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.bench import run_all

    if args.action != "run-all":
        print(f"unknown bench action {args.action!r} (try: run-all)",
              file=sys.stderr)
        return 2
    manifest = run_all(out_dir=args.out_dir, smoke=args.smoke)
    from repro.experiments.harness import format_table

    print()
    print(format_table(manifest["summary_rows"]))
    print()
    for name, path in sorted(manifest["artifacts"].items()):
        print(f"wrote {path}")
    if manifest["problems"]:
        for path, errs in manifest["problems"].items():
            for err in errs:
                print(f"SCHEMA {path}: {err}", file=sys.stderr)
        return 1
    print("\nall artifacts schema-valid")
    return 0


def _cmd_report(args) -> int:
    generate_report(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ASDR reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenes", help="list available scenes").set_defaults(
        fn=_cmd_scenes
    )

    p_exp = sub.add_parser("experiment", help="run paper experiments")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (e.g. fig17a) or 'all'")
    p_exp.add_argument("--list", action="store_true",
                       help="print registered experiment ids and exit")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_render = sub.add_parser("render", help="render a scene to a PPM image")
    p_render.add_argument("scene")
    p_render.add_argument("--out", default="render.ppm")
    p_render.set_defaults(fn=_cmd_render)

    p_video = sub.add_parser(
        "video",
        help="render & simulate a camera-path sequence with temporal reuse",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro video palace                        # 4-frame 56x56 orbit (default)
  repro video lego --frames 2 --size 16     # CI smoke configuration
  repro video fox --preset shake --hold 2 --frames 6   # pose-replay demo
  repro video family --preset dolly --frames 8 --probe-interval 4
  repro video palace --no-temporal          # price frames independently
  repro video palace --reproject --size 16 --arc 0.05  # warp converged rays
  repro video palace --reproject --size 16 --arc 0.05 --adaptive-overlap 0.8
""",
    )
    p_video.add_argument("scene")
    p_video.add_argument("--frames", type=int, default=4,
                         help="frames in the sequence (default 4)")
    p_video.add_argument("--size", type=int, default=56,
                         help="square frame resolution (default 56)")
    p_video.add_argument("--preset", choices=("orbit", "dolly", "shake"),
                         default="orbit", help="camera path preset")
    p_video.add_argument("--arc", type=float, default=0.1,
                         help="orbit: fraction of the circle swept")
    p_video.add_argument("--travel", type=float, default=0.5,
                         help="dolly: fraction of the radius travelled")
    p_video.add_argument("--amplitude", type=float, default=0.05,
                         help="shake: jitter amplitude (world units)")
    p_video.add_argument("--period", type=int, default=4,
                         help="shake: poses repeat every PERIOD frames")
    p_video.add_argument("--hold", type=int, default=1,
                         help="repeat each pose HOLD consecutive frames")
    p_video.add_argument("--probe-interval", type=int, default=0,
                         help="Phase I cadence; 0 = first frame only, "
                              "1 = every frame (plan reuse off)")
    p_video.add_argument("--no-temporal", action="store_true",
                         help="disable the cross-frame temporal vertex cache")
    p_video.add_argument("--reproject", action="store_true",
                         help="warp the previous frame's pixels forward and "
                              "skip converged rays (PSNR-guarded)")
    p_video.add_argument("--reproject-min-psnr", type=float, default=24.0,
                         help="warp-guard floor in dB; frames whose measured "
                              "warp error exceeds it fall back to plan reuse")
    p_video.add_argument("--adaptive-overlap", type=float, default=None,
                         metavar="FRACTION",
                         help="re-probe Phase I when the measured plan/"
                              "keyframe ray-budget overlap drops below "
                              "FRACTION (replaces --probe-interval cadence)")
    p_video.add_argument("--scale", choices=("server", "edge"),
                         default="server", help="accelerator design point")
    p_video.set_defaults(fn=_cmd_video)

    p_serve = sub.add_parser(
        "serve",
        help="serve N clients' sequences on one simulated accelerator",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro serve                               # 3 clients on palace (default)
  repro serve lego --clients 5 --frames 6
  repro serve palace --policy round_robin   # one policy only
  repro serve palace --preemptive --quantum 4   # wavefront preemption
  repro serve palace --preemptive --quantum auto    # p95-sized quanta
  repro serve palace --slo-mix overload --preemptive    # armed overload demo
  repro serve palace --policy deadline --best-effort-slack 5000
  repro serve palace --no-shared-content    # price every client as unique
  repro serve lego --json BENCH_serving.json    # machine-readable report
  repro serve palace --shards 2             # shard tenants across a fleet
  repro serve palace --shards 2 --router random   # placement-blind baseline
  repro serve palace --dashboard            # telemetry timeline in the terminal
  repro serve palace --events run.jsonl --trace run.trace.json
""",
    )
    p_serve.add_argument("scene", nargs="?", default="palace")
    p_serve.add_argument("--clients", type=int, default=3,
                         help="concurrent clients (default 3)")
    p_serve.add_argument("--frames", type=int, default=4,
                         help="frames per client sequence (default 4)")
    p_serve.add_argument("--size", type=int, default=16,
                         help="square frame resolution (default 16)")
    from repro.serving.policies import ALL_POLICY_NAMES

    p_serve.add_argument("--policy", choices=("all", *ALL_POLICY_NAMES),
                         default="all", help="scheduling policy to run")
    p_serve.add_argument("--preemptive", action="store_true",
                         help="wavefront-granularity preemption: run the "
                              "preemptive policy variants (with --policy "
                              "all, each next to its frame-atomic twin)")
    p_serve.add_argument("--quantum", default=None,
                         help="preemption quantum in wavefront steps, or "
                              "'auto' to size each quantum from the "
                              "measured cycles-per-step p95 (default 4; "
                              "preemptive policies only)")
    p_serve.add_argument("--best-effort-slack", type=float, default=None,
                         help="slack assigned to deadline-less frames by "
                              "the deadline policies (default inf: best-"
                              "effort frames always yield; deadline "
                              "policies only)")
    from repro.experiments.slo import SLO_MIX_PRESETS

    p_serve.add_argument("--slo-mix", choices=SLO_MIX_PRESETS, default=None,
                         help="replace the default client mix with a "
                              "calibrated SLO overload preset and arm "
                              "shedding + PSNR-guarded degrade "
                              "(--clients is ignored)")
    p_serve.add_argument("--temporal-capacity", type=int, default=None,
                         help="combined temporal vertex-cache budget, "
                              "elastically partitioned among the tenants "
                              "present (default unbounded)")
    p_serve.add_argument("--no-shared-content", action="store_true",
                         help="disable cross-client content replay")
    p_serve.add_argument("--scale", choices=("server", "edge"),
                         default="server", help="accelerator design point")
    from repro.serving.cluster import ROUTER_NAMES

    p_serve.add_argument("--shards", type=int, default=1,
                         help="accelerator fleet size; with more than one "
                              "shard the tenants are routed across a "
                              "ClusterServer instead of one SequenceServer "
                              "(default 1)")
    p_serve.add_argument("--router", choices=ROUTER_NAMES,
                         default="affinity",
                         help="tenant placement policy for --shards > 1 "
                              "(default affinity: co-locate twins so "
                              "content replay and the temporal cache fire)")
    p_serve.add_argument("--json", metavar="PATH", default=None,
                         help="also write a machine-readable summary "
                              "(p50/p95, throughput, context switches) to "
                              "PATH")
    p_serve.add_argument("--dashboard", action="store_true",
                         help="render the run's telemetry timeline (per-"
                              "tenant lanes, queue depth, engine "
                              "utilisation) after the report")
    p_serve.add_argument("--events", metavar="PATH", default=None,
                         help="export the telemetry event stream as "
                              "obs_events/v1 JSONL (re-render it later "
                              "with `repro timeline PATH`)")
    p_serve.add_argument("--trace", metavar="PATH", default=None,
                         help="export a Chrome trace-event JSON timeline "
                              "(load in Perfetto / chrome://tracing)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_timeline = sub.add_parser(
        "timeline",
        help="render an exported telemetry JSONL log as a terminal "
             "timeline dashboard",
    )
    p_timeline.add_argument("events", help="obs_events/v1 JSONL file "
                                           "(from `repro serve --events`)")
    p_timeline.add_argument("--width", type=int, default=64,
                            help="timeline width in characters (default 64)")
    p_timeline.set_defaults(fn=_cmd_timeline)

    p_bench = sub.add_parser(
        "bench",
        help="run benchmark suites (AE harness)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro bench run-all               # full scale, as committed snapshots
  repro bench run-all --smoke       # CI scale (~a minute), results/smoke/
  repro bench run-all --out-dir /tmp/ae
""",
    )
    p_bench.add_argument("action", choices=("run-all",),
                         help="'run-all': serving + cluster + SLO + "
                              "video benches, BENCH_*.json + results/ "
                              "folder, schema-validated")
    p_bench.add_argument("--smoke", action="store_true",
                         help="CI scale: tiny scene, two frames, one "
                              "timing round")
    p_bench.add_argument("--out-dir", default=None,
                         help="where BENCH_*.json and results/ land "
                              "(default: current directory, or "
                              "results/smoke/ with --smoke)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_report.add_argument("--out", default="EXPERIMENTS.md")
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "ids", None):
        # The registry fills lazily as experiment modules are imported;
        # load it before validating ids (lately-registered experiments
        # like `video` and `serve` were rejected here otherwise).
        load_experiments()
    unknown = [i for i in getattr(args, "ids", []) if i != "all"
               and i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
