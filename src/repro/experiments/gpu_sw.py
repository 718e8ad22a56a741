"""Software-only acceleration on GPUs: Figure 24.

The paper implements adaptive sampling (AS) and rendering approximation
(RA) in CUDA and measures them on the RTX 3070 with no hardware support.
We price the workload each variant produces through the same GPU roofline,
so the speedups come purely from the algorithm's reduction in work — the
exact quantity Figure 24 isolates.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.gpu import GPUModel, RTX3070
from repro.baselines.platform import Workload
from repro.core.config import ASDRConfig
from repro.experiments.harness import register
from repro.experiments.workbench import Workbench
from repro.scenes.analytic import scene_names


@register("fig24", "GPU software-level speedups (AS and AS+RA)")
def fig24_gpu_software(wb: Workbench) -> List[Dict[str, object]]:
    """Reproduce Figure 24 (paper: AS 1.84x, AS+RA 2.75x on average)."""
    gpu = GPUModel(RTX3070)
    as_only = ASDRConfig(approximation=None)
    as_ra = ASDRConfig()  # adaptive + approximation defaults
    rows = []
    for scene in scene_names():
        model = wb.model(scene)
        base_wl = Workload.from_render_result(wb.baseline_render(scene), model)
        as_wl = Workload.from_render_result(
            wb.asdr_render(scene, asdr_config=as_only), model
        )
        asra_wl = Workload.from_render_result(
            wb.asdr_render(scene, asdr_config=as_ra), model
        )
        t_base = gpu.run(base_wl).time_seconds
        rows.append(
            {
                "scene": scene,
                "as_speedup": t_base / gpu.run(as_wl).time_seconds,
                "as_ra_speedup": t_base / gpu.run(asra_wl).time_seconds,
            }
        )
    rows.append(
        {
            "scene": "average",
            "as_speedup": float(np.mean([r["as_speedup"] for r in rows])),
            "as_ra_speedup": float(np.mean([r["as_ra_speedup"] for r in rows])),
        }
    )
    return rows
