#!/usr/bin/env python3
"""Performance trajectory from committed ``BENCH_*.json`` revisions.

Walks ``git log`` for every commit that touched a benchmark snapshot,
loads each revision's payload via ``git show``, and prints the headline
numbers per commit — serving busy cycles and p95 latency, cluster
fleet cycles and the affinity/random ratio, SLO attainment, video
reprojection speedup and probe counts — so a
performance regression shows up as a trend break in one table instead
of a diff archaeology session.

Usage::

    python tools/bench_history.py                # table, newest last
    python tools/bench_history.py --json         # machine-readable
    python tools/bench_history.py --file BENCH_slo.json

Requires a git checkout (exits 1, not an exception, outside one).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Snapshots tracked, with the headline metrics pulled from each.
BENCH_FILES = (
    "BENCH_serving.json",
    "BENCH_cluster.json",
    "BENCH_slo.json",
    "BENCH_video.json",
)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def _revisions(root: Path, bench_file: str):
    """``(commit, date, subject)`` for every commit touching the file,
    oldest first."""
    out = _git(
        root, "log", "--follow", "--format=%H\t%as\t%s", "--", bench_file
    )
    rows = [line.split("\t", 2) for line in out.splitlines() if line.strip()]
    return list(reversed(rows))


def _payload_at(root: Path, commit: str, bench_file: str):
    try:
        return json.loads(_git(root, "show", f"{commit}:{bench_file}"))
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None


def _headline(bench_file: str, payload) -> dict:
    """The metrics one snapshot revision contributes to its table row."""
    if payload is None:
        return {"note": "unreadable"}
    if bench_file == "BENCH_serving.json":
        policies = payload.get("policies", {})
        best_p95 = min(
            (p.get("p95_ms") for p in policies.values()
             if p.get("p95_ms") is not None),
            default=None,
        )
        busy = {p.get("busy_cycles") for p in policies.values()}
        return {
            "policies": len(policies),
            "busy_cycles": busy.pop() if len(busy) == 1 else sorted(
                b for b in busy if b is not None
            ),
            "best_p95_ms": best_p95,
        }
    if bench_file == "BENCH_cluster.json":
        return {
            "fleet_cycles": {
                name: r.get("total_busy_cycles")
                for name, r in payload.get("routers", {}).items()
            },
            "affinity_over_random": payload.get(
                "affinity_over_random_cycles"
            ),
        }
    if bench_file == "BENCH_slo.json":
        return {
            "interactive_attainment": {
                run: payload.get(run, {})
                .get("slo_attainment", {})
                .get("interactive")
                for run in ("baseline", "slo")
            },
            "slo_busy_cycles": payload.get("slo", {}).get("busy_cycles"),
        }
    if bench_file == "BENCH_video.json":
        keyframes = payload.get("keyframes", {})
        return {
            "orbit_speedup": payload.get("orbit", {}).get(
                "speedup_vs_fresh"
            ),
            "probes": {
                run: keyframes.get(run, {}).get("probes")
                for run in ("fixed", "adaptive")
            },
            "adaptive_min_psnr": keyframes.get("adaptive", {}).get(
                "min_psnr"
            ),
        }
    return {}


def history(root: Path, files=BENCH_FILES):
    """``{bench_file: [{commit, date, subject, **headline}, ...]}``,
    oldest revision first."""
    out = {}
    for bench_file in files:
        rows = []
        for commit, date, subject in _revisions(root, bench_file):
            payload = _payload_at(root, commit, bench_file)
            rows.append(
                {
                    "commit": commit[:10],
                    "date": date,
                    "subject": subject,
                    **_headline(bench_file, payload),
                }
            )
        out[bench_file] = rows
    return out


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return " ".join(f"{k}={_format_value(v)}" for k, v in sorted(
            value.items()
        ))
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (default: the checkout containing this tool)",
    )
    parser.add_argument(
        "--file",
        action="append",
        choices=BENCH_FILES,
        help="restrict to one snapshot (repeatable; default: all tracked)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the history as JSON"
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    try:
        _git(root, "rev-parse", "--git-dir")
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        print(f"not a git checkout: {root} ({exc})", file=sys.stderr)
        return 1

    data = history(root, tuple(args.file) if args.file else BENCH_FILES)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    empty = True
    for bench_file, rows in data.items():
        print(f"== {bench_file} ({len(rows)} committed revision(s)) ==")
        if not rows:
            print("  (never committed)")
            continue
        empty = False
        for row in rows:
            metrics = {
                k: v
                for k, v in row.items()
                if k not in ("commit", "date", "subject")
            }
            metric_str = "  ".join(
                f"{k}={_format_value(v)}" for k, v in metrics.items()
            )
            print(f"  {row['date']} {row['commit']}  {metric_str}")
            print(f"      {row['subject']}")
        print()
    if empty:
        print("no BENCH_*.json revisions committed yet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
