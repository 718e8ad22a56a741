"""The SequenceTrace IR: a camera-path's frames, captured once, reused often.

A :class:`SequenceTrace` is the multi-frame sibling of
:class:`~repro.exec.frame_trace.FrameTrace`: an ordered list of per-frame
traces plus the camera-path identity that produced them and the temporal
structure the sequence layer exploits.  The dataflow is::

    CameraPath.cameras()
        └─ renderer (ASDRRenderer.render_sequence / render_camera_path)
            └─ emits SequenceTrace (FrameTrace per frame, pose-replay map,
               plan-reuse flags)
                ├─ ASDRAccelerator.simulate_sequence  (temporal vertex
                │    cache prices cross-frame corner reuse; replayed
                │    frames cost framebuffer scan-out only)
                └─ SequenceTrace.temporal_deltas      (ray-budget overlap,
                     voxel-corner working-set and corner-stream deltas)

Three reuse levels ride on the IR:

* **Whole-frame replay** — frames whose camera pose is bit-identical to an
  earlier frame (``shake`` periods, ``hold`` pulldown, a parked camera)
  record ``replays[k] = j`` and share frame ``j``'s trace and image; the
  simulator prices them at RGB scan-out cost only.
* **Sampling-plan reuse** — non-keyframes skip Phase I and render with the
  previous keyframe's budget map (``planned[k] = False``); their traces
  carry no probe wavefronts, so every downstream consumer automatically
  prices the skipped probe work.  This is the profile-guided lever: the
  hot execution structure measured on one frame steers the next.
* **Temporal vertex reuse** — consecutive frames march overlapping
  world-space voxels; :meth:`temporal_deltas` measures the overlap and the
  accelerator's temporal vertex cache turns it into skipped crossbar reads.

A sequence keeps no store of its own for pricing's derived streams: each
fresh frame memoises them on its own :class:`FrameTrace`
(:meth:`FrameTrace.memo`), so repeated simulations of one sequence — a
design sweep, a warm benchmark run — derive address streams once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.exec.frame_trace import FrameTrace
from repro.scenes.cameras import Camera


def pose_key(camera: Camera) -> bytes:
    """Bit-exact identity of a camera's pose and intrinsics.

    Two cameras with equal keys trace identical rays, so a frame rendered
    for one can be replayed for the other without any quality change —
    within one sequence (``hold``/``shake`` replays) and across serving
    clients (cross-client content replay).

    Example:
        >>> from repro.scenes.cameras import camera_path
        >>> cams = camera_path("orbit", 2, 8, 8, arc=0.25).cameras()
        >>> pose_key(cams[0]) == pose_key(cams[0])
        True
        >>> pose_key(cams[0]) == pose_key(cams[1])
        False
    """
    intrinsics = np.array(
        [camera.width, camera.height, camera.focal], dtype=np.float64
    )
    return intrinsics.tobytes() + np.ascontiguousarray(
        camera.camera_to_world, dtype=np.float64
    ).tobytes()


@dataclass(frozen=True)
class TemporalDelta:
    """Measured coherence between one frame and its predecessor.

    Attributes:
        frame: Index of the later frame (delta is frame-1 -> frame).
        ray_budget_overlap: Fraction of pixels whose per-ray sample budget
            is unchanged between the two frames (the structure sampling-
            plan reuse banks on).
        corner_overlap: Per requested resolution: fraction of this frame's
            *unique* voxel bases already touched by the previous frame
            (working-set coherence).
        stream_overlap: Per requested resolution: fraction of this frame's
            voxel-base *stream* (occurrence-weighted, the register-cache
            view of the corner traffic) that lands in the previous frame's
            working set — the upper bound a temporal vertex cache can hit.
    """

    frame: int
    ray_budget_overlap: float
    corner_overlap: Dict[int, float]
    stream_overlap: Dict[int, float]


@dataclass
class SequenceTrace:
    """Execution trace of a rendered camera-path sequence.

    Attributes:
        frames: Per-frame traces in path order.  A replayed frame shares
            its source frame's :class:`FrameTrace` object.
        path_key: Stable identity of the generating camera path (e.g.
            :meth:`repro.scenes.cameras.CameraPath.cache_key`).
        kind: ``"asdr"`` or ``"baseline"`` (matches the frame traces).
        replays: ``replays[k] = j`` when frame ``k`` is a bit-identical
            pose replay of earlier frame ``j`` (``None`` otherwise).
        planned: ``planned[k]`` is True when frame ``k`` ran its own
            Phase I (keyframe); False for sampling-plan-reuse frames.
    """

    frames: List[FrameTrace]
    path_key: Tuple = ()
    kind: str = "asdr"
    replays: List[Optional[int]] = field(default_factory=list)
    planned: List[bool] = field(default_factory=list)
    _deltas: Dict[Tuple, List[TemporalDelta]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _content_token: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.frames:
            raise SimulationError("a SequenceTrace needs at least one frame")
        if not self.replays:
            self.replays = [None] * len(self.frames)
        if not self.planned:
            self.planned = [True] * len(self.frames)
        if not (len(self.frames) == len(self.replays) == len(self.planned)):
            raise SimulationError(
                "frames, replays and planned must share one length"
            )
        pixels = {t.num_pixels for t in self.frames}
        if len(pixels) != 1:
            raise SimulationError(
                f"sequence frames must share one resolution, got {sorted(pixels)}"
            )
        for k, j in enumerate(self.replays):
            if j is None:
                continue
            if not 0 <= j < k:
                raise SimulationError(
                    f"frame {k} replays invalid earlier frame {j}"
                )
            if self.frames[k] is not self.frames[j]:
                raise SimulationError(
                    f"replayed frame {k} must share frame {j}'s trace object"
                )

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_pixels(self) -> int:
        return self.frames[0].num_pixels

    @property
    def density_points(self) -> int:
        """Total density-MLP points across the sequence (replays included —
        they re-emit a rendered frame, not new MLP work; see
        :meth:`executed_density_points` for the work actually executed)."""
        return sum(t.density_points for t in self.frames)

    def executed_density_points(self) -> int:
        """Density points of the frames that actually executed (replayed
        frames re-derive nothing)."""
        return sum(
            t.density_points
            for k, t in enumerate(self.frames)
            if self.replays[k] is None
        )

    def content_token(self) -> bytes:
        """Stable digest of the whole sequence's content: per-frame trace
        digests plus the replay/plan structure and path identity.

        Two sequences with equal tokens simulate identically, so caches
        that outlive trace objects (the serving layer's cross-run plan
        cache) key by this token — never by ``id()``, which CPython
        recycles after garbage collection.  Twin clients sharing one
        memoised trace object trivially share the token; equal-content
        sequences rebuilt via :meth:`from_dict` share it too.  Computed
        once and cached (sequences are immutable once recorded).
        """
        if self._content_token is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(
                repr(
                    (
                        self.kind,
                        self.path_key,
                        tuple(self.planned),
                        tuple(
                            -1 if j is None else j for j in self.replays
                        ),
                    )
                ).encode()
            )
            for k, frame in enumerate(self.frames):
                if self.replays[k] is None:
                    h.update(frame.content_digest())
            self._content_token = h.digest()
        return self._content_token

    # ------------------------------------------------------------------
    # Temporal diff pass
    # ------------------------------------------------------------------
    def _frame_budget_map(self, trace: FrameTrace) -> np.ndarray:
        """Per-pixel executed budget of one frame (probe rays report the
        full budget — Phase I rendered them at it)."""
        budgets = np.zeros(trace.num_pixels, dtype=np.int64)
        for wf in trace.wavefronts:
            budgets[wf.ray_ids] = wf.budget
        return budgets

    def _frame_voxel_ids(
        self, frame: int, resolution: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(stream, unique)`` scalar voxel ids of one frame's corner
        traffic at ``resolution``."""
        trace = self.frames[frame]
        chunks = []
        stride = resolution + 1
        for index in range(len(trace.wavefronts)):
            base = trace.voxel_base(index, resolution).astype(np.int64)
            chunks.append((base[:, 2] * stride + base[:, 1]) * stride + base[:, 0])
        stream = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return stream, np.unique(stream)

    def temporal_deltas(
        self, resolutions: Sequence[int] = (64,)
    ) -> List[TemporalDelta]:
        """Diff consecutive frames' wavefronts (cached per resolution set).

        Returns one :class:`TemporalDelta` per frame after the first,
        measuring how much of the frame's execution structure the previous
        frame already derived.
        """
        cache_key = tuple(int(r) for r in resolutions)
        if cache_key in self._deltas:
            return self._deltas[cache_key]
        deltas: List[TemporalDelta] = []
        prev_budgets = self._frame_budget_map(self.frames[0])
        # Each frame's voxel ids are derived once and carried to the next
        # frame's delta as its predecessor's working set.
        prev_uniques = {res: self._frame_voxel_ids(0, res)[1] for res in cache_key}
        for k in range(1, self.num_frames):
            budgets = self._frame_budget_map(self.frames[k])
            ray_overlap = float(np.mean(budgets == prev_budgets))
            corner_overlap: Dict[int, float] = {}
            stream_overlap: Dict[int, float] = {}
            for res in cache_key:
                stream, unique = self._frame_voxel_ids(k, res)
                prev_unique = prev_uniques[res]
                prev_uniques[res] = unique
                if unique.size == 0:
                    corner_overlap[res] = 0.0
                    stream_overlap[res] = 0.0
                    continue
                shared = np.intersect1d(
                    unique, prev_unique, assume_unique=True
                ).size
                corner_overlap[res] = shared / unique.size
                stream_overlap[res] = float(
                    np.mean(np.isin(stream, prev_unique))
                )
            deltas.append(
                TemporalDelta(
                    frame=k,
                    ray_budget_overlap=ray_overlap,
                    corner_overlap=corner_overlap,
                    stream_overlap=stream_overlap,
                )
            )
            prev_budgets = budgets
        self._deltas[cache_key] = deltas
        return deltas

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    @staticmethod
    def _key_to_json(value):
        """Nested key tuples -> JSON lists (ints/floats/strings pass
        through, so :meth:`from_dict` restores the exact key)."""
        if isinstance(value, (tuple, list)):
            return [SequenceTrace._key_to_json(v) for v in value]
        return value

    @staticmethod
    def _key_from_json(value):
        if isinstance(value, list):
            return tuple(SequenceTrace._key_from_json(v) for v in value)
        return value

    def to_dict(self) -> Dict:
        """JSON-serialisable form.  Replayed frames store a reference to
        their source frame instead of duplicating the trace."""
        frames = []
        for k, trace in enumerate(self.frames):
            if self.replays[k] is not None:
                frames.append({"replay_of": self.replays[k]})
            else:
                frames.append(trace.to_dict())
        return {
            "schema": "sequence_trace/v1",
            "kind": self.kind,
            "path_key": self._key_to_json(self.path_key),
            "planned": list(self.planned),
            "frames": frames,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SequenceTrace":
        """Rebuild a sequence from :meth:`to_dict` output (fresh caches)."""
        if data.get("schema") != "sequence_trace/v1":
            raise SimulationError(
                f"unsupported SequenceTrace schema {data.get('schema')!r}"
            )
        frames: List[FrameTrace] = []
        replays: List[Optional[int]] = []
        for entry in data["frames"]:
            if "replay_of" in entry:
                source = int(entry["replay_of"])
                if not 0 <= source < len(frames):
                    raise SimulationError(
                        f"frame {len(frames)} replays invalid earlier "
                        f"frame {source}"
                    )
                frames.append(frames[source])
                replays.append(source)
            else:
                frames.append(FrameTrace.from_dict(entry))
                replays.append(None)
        return cls(
            frames=frames,
            path_key=cls._key_from_json(data.get("path_key", [])),
            kind=data.get("kind", "asdr"),
            replays=replays,
            planned=[bool(p) for p in data.get("planned", [])],
        )


@dataclass
class SequenceRender:
    """A rendered sequence: per-frame results plus the sequence trace.

    ``results[k]`` is the renderer's result object for frame ``k``
    (replayed frames share their source frame's object); ``trace`` is the
    :class:`SequenceTrace` the simulator and profilers replay.
    """

    results: List[object]
    trace: SequenceTrace

    @property
    def images(self) -> List[np.ndarray]:
        return [r.image for r in self.results]


def render_camera_path(
    render_fn: Callable[[Camera], object],
    cameras: Sequence[Camera],
    path_key: Tuple = (),
    kind: str = "baseline",
    reuse_poses: bool = True,
) -> SequenceRender:
    """Render a camera path frame by frame with whole-frame pose replay.

    The generic sequence driver for renderers without cross-frame state
    (the fixed-budget baseline): each camera is rendered through
    ``render_fn`` unless its pose is bit-identical to an earlier frame's,
    in which case that frame's result is replayed.  ASDR sequences go
    through :meth:`repro.core.pipeline.ASDRRenderer.render_sequence`,
    which adds sampling-plan reuse on top of the same replay logic.

    Args:
        render_fn: ``camera -> result``; the result must carry a
            ``trace`` (:class:`FrameTrace`) and an ``image``.
        cameras: The path's cameras in order.
        path_key: Identity tuple stored on the sequence trace.
        kind: Trace kind recorded on the sequence.
        reuse_poses: Disable to force every frame to render fresh.
    """
    results: List[object] = []
    frames: List[FrameTrace] = []
    replays: List[Optional[int]] = []
    seen: Dict[bytes, int] = {}
    for k, camera in enumerate(cameras):
        key = pose_key(camera)
        source = seen.get(key) if reuse_poses else None
        if source is not None:
            results.append(results[source])
            frames.append(frames[source])
            replays.append(source)
            continue
        result = render_fn(camera)
        trace = getattr(result, "trace", None)
        if trace is None:
            raise SimulationError(
                "sequence rendering requires trace-carrying results; "
                f"frame {k}'s renderer returned none"
            )
        seen.setdefault(key, k)
        results.append(result)
        frames.append(trace)
        replays.append(None)
    return SequenceRender(
        results=results,
        trace=SequenceTrace(
            frames=frames, path_key=path_key, kind=kind, replays=replays
        ),
    )
