"""ASDR hardware variants (Section 6.9, Figures 26-27).

The paper demonstrates that ASDR's optimisations generalise beyond ReRAM by
evaluating three implementations:

* **ASDR (SA)** — SRAM embedding storage + a systolic array for the MLPs;
* **ASDR (SRAM)** — SRAM storage + SRAM CIM macros for the MLPs;
* **ASDR (ReRAM)** — the native design.

We model the variants through area-equivalent throughput tiers: in the same
silicon budget a systolic array sustains fewer parallel MAC tiles than SRAM
CIM macros, which in turn trail ReRAM CIM (denser cells, in-situ weights),
so ``pes_per_engine`` shrinks down the list; memory/MLP devices switch to
SRAM where applicable, and the Table 2 power entries of the affected
components are scaled by the device energy ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.arch.accelerator import ASDRAccelerator, SimReport
from repro.arch.config import ArchConfig
from repro.cim.reram import RERAM, SRAM
from repro.errors import ConfigurationError
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.mlp import MLPConfig


@dataclass(frozen=True)
class HardwareVariant:
    """One Section 6.9 implementation point.

    Attributes:
        key: Short id (``sa`` / ``sram`` / ``reram``).
        label: Paper-style display name.
        pes_scale: Fraction of the native ReRAM design's parallel PE count
            sustainable in the same area.
        mem_sram: Embedding storage technology is SRAM.
        mlp_sram: MLP arrays are SRAM(-CIM or systolic).
        mlp_power_scale / mem_power_scale: Table 2 power multipliers for
            the affected components.
    """

    key: str
    label: str
    pes_scale: float
    mem_sram: bool
    mlp_sram: bool
    mlp_power_scale: float
    mem_power_scale: float


VARIANTS: Dict[str, HardwareVariant] = {
    "sa": HardwareVariant(
        key="sa",
        label="ASDR (SA)",
        pes_scale=0.125,
        mem_sram=True,
        mlp_sram=True,
        mlp_power_scale=1.9,
        mem_power_scale=1.4,
    ),
    "sram": HardwareVariant(
        key="sram",
        label="ASDR (SRAM)",
        pes_scale=0.25,
        mem_sram=True,
        mlp_sram=True,
        mlp_power_scale=1.45,
        mem_power_scale=1.4,
    ),
    "reram": HardwareVariant(
        key="reram",
        label="ASDR (ReRAM)",
        pes_scale=1.0,
        mem_sram=False,
        mlp_sram=False,
        mlp_power_scale=1.0,
        mem_power_scale=1.0,
    ),
}

_MLP_COMPONENTS = ("density_subengine", "color_subengine")
_MEM_COMPONENTS = ("mem_xbars",)


def variant_configs(scale: str = "server") -> Dict[str, ArchConfig]:
    """Arch configs of all three variants at a given design scale."""
    base = ArchConfig.server() if scale == "server" else ArchConfig.edge()
    out: Dict[str, ArchConfig] = {}
    for key, variant in VARIANTS.items():
        pes = max(1, int(round(base.pes_per_engine * variant.pes_scale)))
        cfg = replace(
            base,
            name=f"{base.name}-{key}",
            pes_per_engine=pes,
            memory_device=SRAM if variant.mem_sram else RERAM,
            mlp_device=SRAM if variant.mlp_sram else RERAM,
        )
        out[key] = cfg
    return out


def simulate_variant(
    key: str,
    scale: str,
    grid: HashGridConfig,
    density_mlp: MLPConfig,
    color_mlp: MLPConfig,
    camera,
    result,
    group_size: int = 1,
) -> SimReport:
    """Simulate a render on one hardware variant.

    Raises:
        ConfigurationError: for an unknown variant key.
    """
    if key not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {key!r}; expected one of {sorted(VARIANTS)}"
        )
    variant = VARIANTS[key]
    config = variant_configs(scale)[key]
    accelerator = ASDRAccelerator(config, grid, density_mlp, color_mlp)
    report = accelerator.simulate_render(camera, result, group_size=group_size)
    for component in _MLP_COMPONENTS:
        if component in report.energy_by_component:
            report.energy_by_component[component] *= variant.mlp_power_scale
    for component in _MEM_COMPONENTS:
        if component in report.energy_by_component:
            report.energy_by_component[component] *= variant.mem_power_scale
    report.name = variant.label
    return report
