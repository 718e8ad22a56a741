"""Design-space exploration: Figures 21, 22 and 23."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.arch.config import ArchConfig
from repro.core.config import (
    AdaptiveSamplingConfig,
    ApproximationConfig,
    ASDRConfig,
)
from repro.experiments.harness import register
from repro.experiments.performance import _accelerator
from repro.experiments.workbench import Workbench
from repro.metrics.image import psnr

SWEEP_SCENES = ("palace", "fountain", "family")
APPROX_SCENES = ("lego", "chair", "mic")


@register("fig21a", "Adaptive-sampling threshold sweep")
def fig21a_threshold(wb: Workbench) -> List[Dict[str, object]]:
    """Speedup/PSNR across delta (paper: delta=1/2048 ~6x, <0.3 dB loss)."""
    thresholds: List[Optional[float]] = [None, 0.0, 1.0 / 2048.0, 1.0 / 256.0]
    accelerator = _accelerator(ArchConfig.server())
    rows = []
    for scene in SWEEP_SCENES:
        camera = wb.dataset(scene).cameras[0]
        reference = wb.reference(scene)
        base_time = None
        for threshold in thresholds:
            if threshold is None:
                config = ASDRConfig(adaptive=None, approximation=None)
                label = "no adaptive sampling"
            else:
                config = ASDRConfig(
                    adaptive=AdaptiveSamplingConfig(threshold=threshold),
                    approximation=None,
                )
                label = f"delta={threshold:.6f}"
            result = wb.asdr_render(scene, asdr_config=config)
            report = accelerator.simulate_render(camera, result, group_size=1)
            if base_time is None:
                base_time = report.time_seconds
            rows.append(
                {
                    "scene": scene,
                    "config": label,
                    "speedup": base_time / report.time_seconds,
                    "psnr": psnr(result.image, reference),
                    "avg_points": result.average_samples_per_ray,
                }
            )
    return rows


@register("fig21b", "Rendering-approximation group-size sweep")
def fig21b_group_size(wb: Workbench) -> List[Dict[str, object]]:
    """Energy saving/PSNR across n (paper: n=4 saves ~2.7x, <0.3 dB)."""
    accelerator = _accelerator(ArchConfig.server())
    rows = []
    for scene in APPROX_SCENES:
        camera = wb.dataset(scene).cameras[0]
        reference = wb.reference(scene)
        base_energy = None
        for n in (1, 2, 3, 4):
            config = ASDRConfig(adaptive=None, approximation=ApproximationConfig(n))
            result = wb.asdr_render(scene, asdr_config=config)
            report = accelerator.simulate_render(camera, result, group_size=n)
            # Dynamic (engine) energy: the color-MLP reduction the paper's
            # Figure 21b measures; shared clock/buffer power would mask it.
            if base_energy is None:
                base_energy = report.dynamic_energy_joules
            rows.append(
                {
                    "scene": scene,
                    "group_size": n,
                    "energy_saving": base_energy / report.dynamic_energy_joules,
                    "psnr": psnr(result.image, reference),
                }
            )
    return rows


@register("fig22", "Register-cache size sweep")
def fig22_cache_size(wb: Workbench) -> List[Dict[str, object]]:
    """Encoding speedup vs cache size (paper: 8 items ~2.49x over none)."""
    rows = []
    for scene in ("palace", "fountain", "family", "fox", "mic"):
        camera = wb.dataset(scene).cameras[0]
        # The cache study uses the uniform-budget render: wavefronts then
        # hold raster-adjacent rays, the locality regime the register
        # cache (and the paper's profiling in Figure 15) targets.
        result = wb.baseline_render(scene)
        base_cycles = None
        for entries in (0, 2, 4, 8, 16):
            config = ArchConfig.server(cache_entries=entries)
            accelerator = _accelerator(config)
            report = accelerator.simulate_render(
                camera, result, group_size=wb.group_size()
            )
            # The cache relieves the memory-crossbar read stage.  Two
            # views: read-stage cycles (pipelined; bounded by the worst
            # level's misses) and raw crossbar accesses (the data-access
            # reduction the paper's 2.49x headline tracks).
            if base_cycles is None:
                base_cycles = report.encoding.read_cycles
                base_accesses = report.encoding.xbar_accesses
            rows.append(
                {
                    "scene": scene,
                    "cache_entries": entries,
                    "encoding_speedup": base_cycles / max(report.encoding.read_cycles, 1),
                    "access_reduction": base_accesses
                    / max(report.encoding.xbar_accesses, 1),
                    "cache_hit_rate": report.encoding.cache_hit_rate,
                }
            )
    return rows


@register("fig23", "Early termination x adaptive sampling")
def fig23_early_termination(wb: Workbench) -> List[Dict[str, object]]:
    """Reproduce Figure 23 (paper: ET 3.67x, AS 4.4x, ET+AS 11.07x)."""
    configs = {
        "strawman": ASDRConfig(adaptive=None, approximation=None),
        "et": ASDRConfig(adaptive=None, approximation=None, early_termination=0.99),
        "as": ASDRConfig(approximation=None),
        "et+as": ASDRConfig(approximation=None, early_termination=0.99),
    }
    accelerator = _accelerator(ArchConfig.server())
    rows = []
    for scene in ("palace", "fountain", "family", "fox", "mic"):
        camera = wb.dataset(scene).cameras[0]
        times = {}
        for label, config in configs.items():
            result = wb.asdr_render(scene, asdr_config=config)
            report = accelerator.simulate_render(camera, result, group_size=1)
            times[label] = report.time_seconds
        rows.append(
            {
                "scene": scene,
                "et_speedup": times["strawman"] / times["et"],
                "as_speedup": times["strawman"] / times["as"],
                "et_as_speedup": times["strawman"] / times["et+as"],
            }
        )
    avg = {
        "scene": "average",
        **{
            k: float(np.mean([r[k] for r in rows]))
            for k in ("et_speedup", "as_speedup", "et_as_speedup")
        },
    }
    rows.append(avg)
    return rows
