"""Memory crossbar banks storing embedding tables.

Each memory crossbar (Mem Xbar) holds ``rows`` table entries and serves one
row read per cycle — the mechanism behind the paper's Figure 3(c): when the
eight vertex lookups of a sample point land on the same crossbar they
serialise, while lookups hitting distinct crossbars proceed in parallel.

:meth:`MemXbarBank.read_cycles` consumes a batch of addresses grouped into
parallel *issue groups* (one group per lookup cycle, e.g. the 8 vertices of
a voxel) and returns the conflict-serialised cycle count, vectorised over
the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cim.reram import RERAM, DeviceParams
from repro.errors import ConfigurationError


@dataclass
class ReadStats:
    """Outcome of replaying a lookup stream on a bank.

    Attributes:
        cycles: Total read cycles after conflict serialisation.
        accesses: Row reads issued (equals the number of addresses).
        conflicts: Extra cycles lost to same-crossbar serialisation
            (``cycles - ideal_cycles``).
        energy_pj: Dynamic read energy.
    """

    cycles: int
    accesses: int
    conflicts: int
    energy_pj: float


class MemXbarBank:
    """A bank of memory crossbars addressed linearly.

    Address ``a`` maps to crossbar ``a // rows``, row ``a % rows``.

    Args:
        total_entries: Table entries the bank stores.
        rows: Entries per crossbar (paper: 64).
        device: Memory technology for energy accounting.
    """

    def __init__(
        self,
        total_entries: int,
        rows: int = 64,
        device: DeviceParams = RERAM,
    ) -> None:
        if total_entries < 1:
            raise ConfigurationError("total_entries must be >= 1")
        if rows < 1:
            raise ConfigurationError("rows must be >= 1")
        self.total_entries = total_entries
        self.rows = rows
        self.device = device

    @property
    def num_xbars(self) -> int:
        return -(-self.total_entries // self.rows)

    def xbar_of(self, addresses: np.ndarray) -> np.ndarray:
        """Crossbar id of each address."""
        return np.asarray(addresses, dtype=np.int64) // self.rows

    def group_read_cycles(self, grouped_addresses: np.ndarray) -> np.ndarray:
        """Per-group serialised read cycles, before the device latency.

        Args:
            grouped_addresses: ``(G, K)`` array of issue groups (negative
                lanes mark nothing to read).

        Returns:
            ``(G,)`` int64 array — for each group, the largest number of
            addresses landing on one crossbar (0 for all-empty groups).
            ``read_cycles`` is ``group_read_cycles(...).sum()`` times the
            device read latency; exposing the per-group vector lets the
            batched execution engine price many wavefront slices in one
            fused pass and recover exact per-slice sums by segment.
        """
        grouped = np.atleast_2d(np.asarray(grouped_addresses, dtype=np.int64))
        valid = grouped >= 0
        # Empty lanes (negative addresses) floor-divide to negative ids,
        # which the run-start mask below already excludes — no masking
        # pass needed.
        xbars = grouped // self.rows
        # Per group, the cycle cost is the largest number of addresses
        # landing on one crossbar.  Sorting each row makes equal crossbar
        # ids adjacent; the longest run is found lane-parallel: a lane's
        # run starts at the last column where the sorted value changed
        # (empty lanes never extend a run), so the running maximum of
        # start columns turns ``col - start + 1`` into the length of the
        # run each lane sits in.
        order = np.sort(xbars, axis=1)
        col = np.arange(order.shape[1], dtype=np.int64)
        is_start = np.empty(order.shape, dtype=bool)
        is_start[:, 0] = True
        is_start[:, 1:] = (order[:, 1:] != order[:, :-1]) | (order[:, 1:] < 0)
        start = np.maximum.accumulate(np.where(is_start, col, 0), axis=1)
        longest = (col - start + 1).max(axis=1)
        return np.where(valid.any(axis=1), longest, 0)

    def read_cycles(self, grouped_addresses: np.ndarray) -> ReadStats:
        """Replay reads issued in parallel groups.

        Args:
            grouped_addresses: ``(G, K)`` array; each row is one issue group
                of ``K`` addresses presented in the same cycle (e.g. the 8
                voxel-vertex lookups of one sample point).  Negative
                addresses mark lanes with nothing to read (cache hits).

        Returns:
            :class:`ReadStats` with conflict-serialised cycles.
        """
        grouped = np.atleast_2d(np.asarray(grouped_addresses, dtype=np.int64))
        valid = grouped >= 0
        accesses = int(valid.sum())
        if accesses == 0:
            return ReadStats(cycles=0, accesses=0, conflicts=0, energy_pj=0.0)

        group_cycles = self.group_read_cycles(grouped)
        cycles = int(group_cycles.sum()) * self.device.read_latency_cycles
        ideal = int(valid.any(axis=1).sum()) * self.device.read_latency_cycles
        energy = accesses * self.device.read_energy_pj
        return ReadStats(
            cycles=cycles,
            accesses=accesses,
            conflicts=cycles - ideal,
            energy_pj=energy,
        )

    def read_cycles_segments(
        self, grouped_addresses: np.ndarray, boundaries: np.ndarray
    ) -> tuple:
        """Vectorised per-segment read statistics.

        The conflict model is additive over groups, so a batch of many
        wavefront slices can be replayed in one vectorised pass and split
        back into per-slice stats — each exactly what :meth:`read_cycles`
        returns for that slice's rows alone (the batched engine's
        bit-identity relies on this): cycle/access/conflict counts match
        integer-for-integer, and energy is the same single
        ``accesses * read_energy_pj`` multiply.

        Args:
            grouped_addresses: ``(G, K)`` issue groups of every segment,
                concatenated in order.
            boundaries: ``(S + 1,)`` strictly increasing row offsets with
                ``boundaries[0] == 0`` and ``boundaries[-1] == G``; segment
                ``s`` owns rows ``boundaries[s]:boundaries[s + 1]``.

        Returns:
            ``(cycles, accesses, conflicts, energy_pj)`` arrays of length
            ``S``.  All-empty segments are all-zero, matching
            :meth:`read_cycles`'s no-access early return.
        """
        grouped = np.atleast_2d(np.asarray(grouped_addresses, dtype=np.int64))
        bounds = np.asarray(boundaries, dtype=np.int64)
        valid = grouped >= 0
        any_valid = valid.any(axis=1)
        group_cycles = self.group_read_cycles(grouped)
        starts = bounds[:-1]
        latency = self.device.read_latency_cycles
        accesses = np.add.reduceat(valid.sum(axis=1), starts)
        cycles = np.add.reduceat(group_cycles, starts) * latency
        ideal = np.add.reduceat(any_valid.astype(np.int64), starts) * latency
        return (
            cycles,
            accesses,
            cycles - ideal,
            accesses * self.device.read_energy_pj,
        )
