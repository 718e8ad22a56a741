#!/usr/bin/env python3
"""Validate machine-readable benchmark/telemetry artifacts (CI smoke jobs).

One entry point for every JSON artifact this repo emits —
``BENCH_serving.json`` (``serving_bench/v1``), ``BENCH_cluster.json``
(``cluster_bench/v1``), ``BENCH_slo.json`` (``slo_bench/v1``),
``BENCH_video.json`` (``video_bench/v1``), ``obs_events/v1`` JSONL logs
and Chrome trace-event timelines.  The actual checks live in
:mod:`repro.obs.schemas`, shared with the ``repro bench run-all``
harness, so the CI inline validation blocks this tool replaced cannot
drift from what the harness enforces.

Usage::

    python tools/validate_bench.py BENCH_serving.json [more files ...]
    python tools/validate_bench.py --root REPO_ROOT results/*.json

Exits non-zero listing every schema problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files", nargs="+", help="artifact files (.json or .jsonl)"
    )
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (default: the checkout containing this tool)",
    )
    args = parser.parse_args(argv)
    src = str(args.root.resolve() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.schemas import validate_file

    problems = 0
    for name in args.files:
        path = Path(name)
        if not path.exists():
            print(f"INVALID {name}: file does not exist")
            problems += 1
            continue
        errors = validate_file(path)
        if errors:
            for err in errors:
                print(f"INVALID {name}: {err}")
            problems += len(errors)
        else:
            print(f"ok: {name}")
    if problems:
        print(f"{problems} schema problem(s) across {len(args.files)} file(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
