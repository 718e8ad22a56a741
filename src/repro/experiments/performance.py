"""Performance experiments: Figures 17-20 and Table 2.

The baseline platforms always execute the *original* fixed-budget pipeline
(that is what the paper measures on GPUs and NeuRex); ASDR executes its
two-phase algorithm on the simulated accelerator.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.arch.accelerator import ASDRAccelerator, SimReport
from repro.arch.config import ArchConfig
from repro.arch.energy import COMPONENT_TABLE, AreaPowerModel, TOTALS
from repro.baselines.gpu import GPUModel, RTX3070, XAVIER_NX
from repro.baselines.neurex import NEUREX_EDGE, NEUREX_SERVER, NeurexModel
from repro.baselines.platform import PlatformReport, Workload
from repro.experiments.harness import register
from repro.experiments.workbench import EXPERIMENT_GRID, EXPERIMENT_MODEL, Workbench

PERF_SCENES = ("palace", "fountain", "family", "fox", "mic")
ABLATION_SCENES = ("palace", "fountain", "family")


def _accelerator(config: ArchConfig) -> ASDRAccelerator:
    return ASDRAccelerator(
        config,
        EXPERIMENT_GRID,
        EXPERIMENT_MODEL.density_mlp_config,
        EXPERIMENT_MODEL.color_mlp_config,
    )


def _platforms(scale: str) -> Tuple[GPUModel, NeurexModel, ArchConfig]:
    if scale == "server":
        return GPUModel(RTX3070), NeurexModel(NEUREX_SERVER), ArchConfig.server()
    return GPUModel(XAVIER_NX), NeurexModel(NEUREX_EDGE), ArchConfig.edge()


def scene_platform_reports(
    wb: Workbench, scene: str, scale: str
) -> Tuple[PlatformReport, PlatformReport, SimReport]:
    """(gpu, neurex, asdr) reports for one scene at one design scale."""
    gpu, neurex, arch = _platforms(scale)
    base = wb.baseline_render(scene)
    workload = Workload.from_render_result(base, wb.model(scene))
    asdr_result = wb.asdr_render(scene)
    asdr = _accelerator(arch).simulate_render(
        wb.dataset(scene).cameras[0], asdr_result, group_size=wb.group_size()
    )
    return gpu.run(workload), neurex.run(workload), asdr


def _speedup_rows(wb: Workbench, scale: str) -> List[Dict[str, object]]:
    rows = []
    for scene in PERF_SCENES:
        g, n, a = scene_platform_reports(wb, scene, scale)
        rows.append(
            {
                "scene": scene,
                "gpu_ms": g.time_seconds * 1e3,
                "neurex_speedup": g.time_seconds / n.time_seconds,
                "asdr_speedup": g.time_seconds / a.time_seconds,
                "asdr_vs_neurex": n.time_seconds / a.time_seconds,
            }
        )
    rows.append(
        {
            "scene": "average",
            "gpu_ms": float(np.mean([r["gpu_ms"] for r in rows])),
            "neurex_speedup": float(np.mean([r["neurex_speedup"] for r in rows])),
            "asdr_speedup": float(np.mean([r["asdr_speedup"] for r in rows])),
            "asdr_vs_neurex": float(np.mean([r["asdr_vs_neurex"] for r in rows])),
        }
    )
    return rows


@register("fig17a", "Speedup over RTX 3070 and NeuRex (server)")
def fig17_server(wb: Workbench) -> List[Dict[str, object]]:
    return _speedup_rows(wb, "server")


@register("fig17b", "Speedup over Xavier NX and NeuRex (edge)")
def fig17_edge(wb: Workbench) -> List[Dict[str, object]]:
    return _speedup_rows(wb, "edge")


def _phase_rows(wb: Workbench, scale: str) -> List[Dict[str, object]]:
    rows = []
    for scene in PERF_SCENES:
        g, n, a = scene_platform_reports(wb, scene, scale)
        rows.append(
            {
                "scene": scene,
                "enc_speedup_vs_gpu": g.encoding_seconds / max(a.encoding_seconds, 1e-12),
                "enc_speedup_vs_neurex": n.encoding_seconds / max(a.encoding_seconds, 1e-12),
                "mlp_speedup_vs_gpu": g.mlp_seconds / max(a.mlp_seconds, 1e-12),
                "mlp_speedup_vs_neurex": n.mlp_seconds / max(a.mlp_seconds, 1e-12),
            }
        )
    return rows


@register("fig18a", "Per-phase speedup (server)")
def fig18_server(wb: Workbench) -> List[Dict[str, object]]:
    return _phase_rows(wb, "server")


@register("fig18b", "Per-phase speedup (edge)")
def fig18_edge(wb: Workbench) -> List[Dict[str, object]]:
    return _phase_rows(wb, "edge")


def _energy_rows(wb: Workbench, scale: str) -> List[Dict[str, object]]:
    rows = []
    for scene in PERF_SCENES:
        g, n, a = scene_platform_reports(wb, scene, scale)
        rows.append(
            {
                "scene": scene,
                "gpu_mj": g.energy_joules * 1e3,
                "neurex_efficiency": g.energy_joules / n.energy_joules,
                "asdr_efficiency": g.energy_joules / a.energy_joules,
            }
        )
    rows.append(
        {
            "scene": "average",
            "gpu_mj": float(np.mean([r["gpu_mj"] for r in rows])),
            "neurex_efficiency": float(np.mean([r["neurex_efficiency"] for r in rows])),
            "asdr_efficiency": float(np.mean([r["asdr_efficiency"] for r in rows])),
        }
    )
    return rows


@register("fig19a", "Energy efficiency vs RTX 3070 (server)")
def fig19_server(wb: Workbench) -> List[Dict[str, object]]:
    return _energy_rows(wb, "server")


@register("fig19b", "Energy efficiency vs Xavier NX (edge)")
def fig19_edge(wb: Workbench) -> List[Dict[str, object]]:
    return _energy_rows(wb, "edge")


@register("fig20", "Ablation: strawman / SW-only / HW-only / ASDR")
def fig20_ablation(wb: Workbench) -> List[Dict[str, object]]:
    """Reproduce Figure 20 (normalised to the Xavier NX GPU)."""
    gpu = GPUModel(XAVIER_NX)
    rows = []
    for scene in ABLATION_SCENES:
        camera = wb.dataset(scene).cameras[0]
        base = wb.baseline_render(scene)
        asdr_result = wb.asdr_render(scene)
        workload = Workload.from_render_result(base, wb.model(scene))
        gpu_time = gpu.run(workload).time_seconds

        strawman = _accelerator(ArchConfig.strawman("edge"))
        full_hw = _accelerator(ArchConfig.edge())
        t_strawman = strawman.simulate_render(camera, base).time_seconds
        t_sw = strawman.simulate_render(
            camera, asdr_result, group_size=wb.group_size()
        ).time_seconds
        t_hw = full_hw.simulate_render(camera, base).time_seconds
        t_asdr = full_hw.simulate_render(
            camera, asdr_result, group_size=wb.group_size()
        ).time_seconds
        rows.append(
            {
                "scene": scene,
                "strawman": gpu_time / t_strawman,
                "sw_only": gpu_time / t_sw,
                "hw_only": gpu_time / t_hw,
                "asdr": gpu_time / t_asdr,
            }
        )
    return rows


@register("table2", "Area / power budget of ASDR components")
def table2_area_power(wb: Workbench) -> List[Dict[str, object]]:
    """Print the embedded Table 2 model and its totals."""
    rows = []
    for component, entries in COMPONENT_TABLE.items():
        rows.append(
            {
                "component": component,
                "server_area_mm2": entries["server"][0],
                "server_power_mw": entries["server"][1],
                "edge_area_mm2": entries["edge"][0],
                "edge_power_mw": entries["edge"][1],
            }
        )
    server = AreaPowerModel("server")
    edge = AreaPowerModel("edge")
    rows.append(
        {
            "component": "total (paper: %.2f mm2 / %.2f W, %.2f mm2 / %.2f W)"
            % (TOTALS["server"] + TOTALS["edge"]),
            "server_area_mm2": server.total_area_mm2(),
            "server_power_mw": server.total_power_w() * 1e3,
            "edge_area_mm2": edge.total_area_mm2(),
            "edge_power_mw": edge.total_power_w() * 1e3,
        }
    )
    return rows
