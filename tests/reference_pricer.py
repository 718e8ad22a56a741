"""Per-slice reference pricer: the bit-identity oracle of frame pricing.

Production prices a frame once, in fused passes (:mod:`repro.exec.batch`),
and :meth:`~repro.exec.execution.FrameExecution.run` replays the plan.
This module prices the same steps the slow, obvious way — one wavefront
slice at a time, straight from the model's primitives:

* voxel corners from :meth:`FrameTrace.voxel_base` plus ``CORNER_OFFSETS``;
* addresses from :func:`corner_addresses`, the level's mapping
  (``hash_coords``, ``naive_concat_address`` or ``bit_reorder_address``)
  applied to that ``(N, 8, 3)`` corner tensor — production's
  :meth:`HybridAddressGenerator.addresses` builds them from the voxel
  bases instead (request ids restart per frame and advance one per point);
* register-cache hits from :func:`~repro.cim.cache.window_hits` over the
  slice's own stream;
* temporal hits from :meth:`TemporalVertexCache.lookup`, with every
  slice's stream recorded through :meth:`TemporalVertexCache.record`;
* crossbar conflicts from one :meth:`MemXbarBank.read_cycles` per level;
* the MLP and render engines and :meth:`BufferModel.observe_wavefront`.

It memoises nothing and shares no code with :mod:`repro.exec.batch`, so
a test that requires production to equal it checks the fused passes
against an independent spelling of the same model.

:func:`reference_run` has the signature of ``FrameExecution.run`` and
advances the execution's cursor, report and temporal cache exactly as
production does.  :func:`reference_engine` patches it over
``FrameExecution.run`` for a ``with`` block, so whole ``simulate_*`` and
``SequenceServer.serve`` runs price through the reference — a test fake,
not a production switch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

import numpy as np

from repro.arch.buffers import BufferModel, default_buffers
from repro.arch.bus import BusTraffic, bus_cycles
from repro.arch.encoding_engine import EncodingReport
from repro.cim.address import (
    HybridAddressGenerator,
    bit_reorder_address,
    naive_concat_address,
)
from repro.cim.cache import RegisterCache, window_hits
from repro.cim.memxbar import MemXbarBank
from repro.errors import SimulationError
from repro.exec.execution import FrameExecution
from repro.nerf.hashgrid import CORNER_OFFSETS, hash_coords
from repro.obs.events import EV_EXEC_STEP


def corner_addresses(
    generator: HybridAddressGenerator,
    corners: np.ndarray,
    level: int,
    request_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The ``(N, 8)`` addresses of the ``(N, 8, 3)`` vertex ``corners`` at
    ``level``: the level's mapping applied to every corner coordinate,
    with replicated levels striping request ``r`` onto copy
    ``r % copies``."""
    mapping = generator.levels[level]
    if not mapping.dense:
        return hash_coords(corners, mapping.table_size)
    if generator.mode == "naive":
        return naive_concat_address(corners, mapping.resolution)
    copy_ids = None
    if mapping.copies > 1 and request_ids is not None:
        copy_ids = (np.asarray(request_ids, dtype=np.int64) % mapping.copies)[
            :, None
        ]
    return bit_reorder_address(corners, mapping.resolution, copy_ids)


def _price_encoding(ex: FrameExecution, sl, request_start: int) -> EncodingReport:
    """One slice through the encoding engine, level by level."""
    config = ex.accelerator.config
    grid = ex.accelerator.grid
    generator = HybridAddressGenerator(grid, mode=config.mapping_mode)
    window = RegisterCache(config.cache_entries).window
    temporal = ex._temporal
    p = sl.num_points
    request_ids = request_start + np.arange(p)
    report = EncodingReport()
    level_read = []
    for level in range(grid.num_levels):
        resolution = int(grid.level_resolutions[level])
        base = ex.trace.voxel_base(sl.index, resolution)[sl.points]
        corners = base.astype(np.int64)[:, None, :] + CORNER_OFFSETS[None, :, :]
        logical = corner_addresses(generator, corners, level)
        stream = logical.reshape(-1)
        hits = window_hits(stream, window)
        served = hits
        report.lookups += stream.size
        report.cache_hits += int(hits.sum())
        if temporal is not None:
            t_hits = temporal.lookup(stream, level) & ~hits
            temporal.record(stream, level)
            report.temporal_hits += int(t_hits.sum())
            served = hits | t_hits
        if generator.striped(level):
            physical = corner_addresses(generator, corners, level, request_ids)
        else:
            physical = logical
        misses = np.where(served, -1, physical.reshape(-1)).reshape(p, 8)
        bank = MemXbarBank(
            generator.level_storage_entries(level),
            rows=config.crossbar.rows,
            device=config.memory_device,
        )
        stats = bank.read_cycles(misses)
        report.xbar_accesses += stats.accesses
        report.conflict_cycles += stats.conflicts
        report.xbar_energy_pj += stats.energy_pj
        level_read.append(stats.cycles)
    if not level_read:
        read_cycles = 0
    elif config.mapping_mode == "hybrid":
        read_cycles = max(level_read)
    else:
        read_cycles = sum(level_read)
    report.read_cycles = read_cycles
    report.cycles = max(
        math.ceil(p * 8 * grid.num_levels / config.address_units),
        read_cycles,
        math.ceil(p * grid.num_levels / config.fusion_lanes),
    )
    return report


def _wavefront_step(ex: FrameExecution, si: int) -> int:
    """Price slice ``si`` of the frame into the execution's report."""
    accelerator = ex.accelerator
    config = accelerator.config
    sl = ex._slices[si]
    p = sl.num_points
    color_points = ex._slice_color_points[si]
    enc = _price_encoding(ex, sl, ex._points_done)
    mlp = accelerator.mlp_engine.process(p, color_points)
    ren = accelerator.render_engine.process(
        composited_points=p, interpolated_points=p - color_points
    )
    buffers = BufferModel(
        default_buffers("edge" if "edge" in config.name else "server")
    )
    stall = buffers.observe_wavefront(
        in_flight_points=min(p, config.wavefront_rays),
        levels=accelerator.grid.num_levels,
        ray_working_points=p,
    )
    ex.report.encoding.merge(enc)
    ex.report.mlp.merge(mlp)
    ex.report.render.merge(ren)
    ex.report.buffer_stall_cycles += stall
    charge = max(enc.cycles, mlp.cycles, ren.cycles) + stall
    if ex._wavefront_log is not None:
        ex._wavefront_log.append(
            (("wavefront", sl.index, sl.rays.start, sl.rays.stop), charge)
        )
    ex._points_done += p
    return charge


def _adaptive_tail_step(ex: FrameExecution) -> int:
    """The Phase I adaptive-sampling unit, after the frame's slices."""
    ren = ex.accelerator.render_engine.process(0, 0, ex._evals)
    ex.report.render.merge(ren)
    if ex._wavefront_log is not None:
        ex._wavefront_log.append((("adaptive_tail",), ren.cycles))
    return ren.cycles


def _scanout_step(ex: FrameExecution) -> int:
    pixels = (
        ex.trace.rendered_pixels
        if ex._rendered_pixels is None
        else ex._rendered_pixels
    )
    return bus_cycles(BusTraffic(pixels=pixels))


def reference_run(ex: FrameExecution, max_steps: Optional[int] = None) -> int:
    """Price the next ``max_steps`` steps of ``ex`` (all remaining when
    ``None``) one slice at a time; returns the cycles charged.  Emits one
    ``exec_step`` event per step when the execution has a recorder."""
    if max_steps is not None and max_steps <= 0:
        raise SimulationError("max_steps must be positive")
    steps = ex.steps_total - ex.steps_done
    if max_steps is not None:
        steps = min(steps, max_steps)
    charged = 0
    for _ in range(steps):
        if ex._scanout:
            charge = _scanout_step(ex)
        elif ex._cursor < len(ex._slices):
            charge = _wavefront_step(ex, ex._cursor)
        else:
            charge = _adaptive_tail_step(ex)
        ex._cursor += 1
        ex.report.total_cycles += charge
        if ex._recorder is not None:
            ex._recorder.emit(
                EV_EXEC_STEP,
                ex.report.total_cycles,
                step=ex._cursor - 1,
                cycles=charge,
                scanout=ex._scanout,
            )
        charged += charge
    return charged


@contextmanager
def reference_engine() -> Iterator[None]:
    """Price every ``FrameExecution.run`` (and so every ``finish``,
    ``simulate_*`` and ``serve``) through :func:`reference_run` inside the
    block."""
    with mock.patch.object(FrameExecution, "run", reference_run):
        yield
