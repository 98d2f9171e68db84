"""Synthetic crossing scenarios and tracking-quality metrics.

The generator moves boxes linearly and applies a geometric occlusion rule:
whenever two ground-truth boxes overlap with IOU above the scenario threshold,
the smaller-area object (ties to the higher index) is suppressed and emits no
detection that frame. Visible objects emit detections with small seeded
positional jitter. This reproduces the detector-side signature of objects
crossing and hiding one another without needing video or a detector.

Metrics associate each visible ground-truth object per frame to the tracker
box with maximal IOU, provided that IOU is at least ``iou_min`` (``IOU_MIN`` by
default). Of several trackers at that IOU, the last in the frame's track list
wins. The metrics report

  * ``id_switches``: frames where an object's associated tracker id differs
    from its previously associated id
  * ``occlusion_survival``: the fraction of occlusion windows after which the
    pre-occlusion tracker id is re-associated within ``anti_aging`` frames of
    reappearance

Occlusion windows are recomputed here from the ground-truth visibility flags,
independently of the generator's internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .ising import _content_lines
from .track import BoundingBox, Detection, TrackConfig, _edges, iou_matrix, mot_printable

# default association floor of the metrics
IOU_MIN = 0.5


@dataclass(frozen=True)
class MovingObject:
    """Initial box plus a constant per-frame center velocity."""

    box: BoundingBox
    vx: float
    vy: float


@dataclass(frozen=True)
class ScenarioSpec:
    objects: tuple[MovingObject, ...]
    n_frames: int
    occlusion_iou: float = 0.5
    width: float = 1920.0
    height: float = 1080.0
    jitter: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if not (0 < self.occlusion_iou <= 1):
            raise ValueError("occlusion_iou must lie in (0, 1]")
        # the generator draws from [-jitter, jitter], whose length must be finite
        if not 0 <= 2 * self.jitter < math.inf:
            raise ValueError(f"jitter must be non-negative and 2 * jitter finite, got {self.jitter}")
        for name in ("width", "height"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for obj in self.objects:
            if not (math.isfinite(obj.vx) and math.isfinite(obj.vy)):
                raise ValueError(f"object velocity must be finite, got {obj.vx}, {obj.vy}")


@dataclass(frozen=True)
class TruthEntry:
    box: BoundingBox
    visible: bool


@dataclass
class GroundTruth:
    """Per frame, object id -> entry; objects out of the frame are absent."""

    frames: list[dict[int, TruthEntry]]

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def object_ids(self) -> list[int]:
        ids = set()
        for frame in self.frames:
            ids.update(frame)
        return sorted(ids)


def generate(spec: ScenarioSpec, noise_seed: int | None = None) -> tuple[GroundTruth, list[list[Detection]]]:
    """Roll the scenario out into ground truth plus a per-frame detection stream.

    Detections carry jittered copies of the visible boxes; suppressed or
    out-of-frame objects emit nothing. Fully deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed if noise_seed is None else noise_seed)
    frames: list[dict[int, TruthEntry]] = []
    detections: list[list[Detection]] = []
    for k in range(spec.n_frames):
        boxes = {}
        for i, obj in enumerate(spec.objects):
            # the moved edges are tested as floats, so an object that drifts
            # past the float range stays off screen instead of making a box
            left, top = obj.box.left + k * obj.vx, obj.box.top + k * obj.vy
            width, height = obj.box.width, obj.box.height
            if left + width > 0 and left < spec.width and top + height > 0 and top < spec.height:
                boxes[i] = BoundingBox(left, top, width, height)
        # rows follow boxes, which is filled in index order, so a < b in each
        # overlapping pair: the smaller area hides, and equal areas hide b
        ids = list(boxes)
        e = _edges(boxes.values())
        a, b = np.nonzero(np.triu(iou_matrix(e, e) > spec.occlusion_iou, 1))
        suppressed = {ids[i] for i in np.where(e[a, 4] < e[b, 4], a, b)}
        frame = {i: TruthEntry(box, i not in suppressed) for i, box in boxes.items()}
        frames.append(frame)
        emitted = []
        for i, box in boxes.items():
            if i in suppressed:
                continue
            if spec.jitter > 0:
                dx, dy = rng.uniform(-spec.jitter, spec.jitter, size=2)
            else:
                dx = dy = 0.0
            emitted.append(
                Detection(BoundingBox(box.left + dx, box.top + dy, box.width, box.height))
            )
        detections.append(emitted)
    return GroundTruth(frames), detections


def occlusion_windows(gt: GroundTruth) -> dict[int, list[tuple[int, int]]]:
    """Maximal invisible runs per object as half-open frame ranges [start, end)."""
    windows: dict[int, list[tuple[int, int]]] = {}
    for obj in gt.object_ids():
        runs = []
        start = None
        for k, frame in enumerate(gt.frames):
            entry = frame.get(obj)
            hidden = entry is not None and not entry.visible
            if hidden and start is None:
                start = k
            elif not hidden and start is not None:
                runs.append((start, k))
                start = None
        if start is not None:
            runs.append((start, gt.n_frames))
        windows[obj] = runs
    return windows


def associate(tracks_by_frame, gt: GroundTruth, iou_min: float = IOU_MIN) -> list[dict[int, int]]:
    """Greedy per-frame association: visible object -> max-IOU tracker id."""
    if not 0 < iou_min <= 1:
        raise ValueError(f"iou_min must lie in (0, 1], got {iou_min}")
    out = []
    for frame_tracks, frame_gt in zip(tracks_by_frame, gt.frames):
        visible = [obj for obj, entry in sorted(frame_gt.items()) if entry.visible]
        if not (visible and frame_tracks):
            out.append({})
            continue
        s = iou_matrix(_edges(frame_gt[obj].box for obj in visible),
                       _edges(box for _, box in frame_tracks))
        # the last tracker at the highest IOU: argmax over the reversed columns
        best = s.shape[1] - 1 - s[:, ::-1].argmax(axis=1)
        out.append({
            obj: frame_tracks[t][0]
            for obj, t, value in zip(visible, best, s.max(axis=1))
            if value >= iou_min
        })
    return out


def id_switches(tracks_by_frame, gt: GroundTruth, iou_min: float = IOU_MIN) -> int:
    """Count frames where an object's associated tracker id changes."""
    switches = 0
    last: dict[int, int] = {}
    for assoc in associate(tracks_by_frame, gt, iou_min):
        for obj, tracker_id in assoc.items():
            if obj in last and last[obj] != tracker_id:
                switches += 1
            last[obj] = tracker_id
    return switches


def occlusion_survival(
    tracks_by_frame,
    gt: GroundTruth,
    anti_aging: int = TrackConfig.anti_aging,
    iou_min: float = IOU_MIN,
) -> float:
    """Fraction of occlusion windows survived by the pre-occlusion tracker id.

    A window counts as survived when the id associated with the object before
    the window is re-associated with it within ``anti_aging`` frames of
    reappearance. Windows with no prior association or no reappearance are
    skipped; with no assessable windows the result is 1.0 by convention.
    """
    if anti_aging < 0:
        raise ValueError(f"anti_aging must be non-negative, got {anti_aging}")
    assoc = associate(tracks_by_frame, gt, iou_min)
    assessed = 0
    survived = 0
    for obj, windows in occlusion_windows(gt).items():
        for start, end in windows:
            if end >= gt.n_frames:
                continue  # never reappears
            prior = None
            for k in range(start - 1, -1, -1):
                if obj in assoc[k]:
                    prior = assoc[k][obj]
                    break
            if prior is None:
                continue
            assessed += 1
            horizon = min(end + anti_aging, len(assoc))
            if any(assoc[k].get(obj) == prior for k in range(end, horizon)):
                survived += 1
    return survived / assessed if assessed else 1.0


# header directive -> (ScenarioSpec field, its type) for every field but the
# objects; the directive for n_frames is "frames"
_HEADER_KEYS = {
    "frames" if name == "n_frames" else name: (name, kind)
    for name, kind in get_type_hints(ScenarioSpec).items()
    if name != "objects"
}


def _check(**values) -> None:
    """Run ScenarioSpec's checks on ``values`` alone: one header value or one object."""
    ScenarioSpec(**{"objects": (), "n_frames": 1, **values})


def _parse_line(words, raw, header: dict, objects: list) -> None:
    """Add one line's header value or object; the caller adds the location to errors."""
    key = words[0]
    if key == "object":
        if len(words) != 7:
            raise ValueError("object lines need 'object cx cy w h vx vy'")
        try:
            cx, cy, w, h, vx, vy = map(float, words[1:])
        except ValueError:
            raise ValueError(f"bad object line {raw!r}") from None
        box = BoundingBox.from_center(cx, cy, w, h)
        if not mot_printable(box):
            raise ValueError(f"object width/height {w:g} x {h:g} would print as 0.00 in a MOT file")
        objects.append(MovingObject(box, vx, vy))
        _check(objects=objects[-1:])
    elif key in _HEADER_KEYS:
        if len(words) != 2:
            raise ValueError(f"expected '{key} value'")
        name, kind = _HEADER_KEYS[key]
        try:
            header[name] = kind(words[1])
        except ValueError:
            raise ValueError(f"bad value for {key}: {words[1]!r}") from None
        _check(**{name: header[name]})
    else:
        raise ValueError(f"unknown directive {key!r}")


def parse_scenario(path) -> ScenarioSpec:
    """Parse the scenario text format.

    Header lines are ``key value`` for frames, occlusion_iou, jitter, seed,
    width, height; each ``object cx cy w h vx vy`` line adds a moving object.
    Blank lines and ``#`` comments are ignored. Every error in a line, a
    value that ScenarioSpec rejects included, names the line.
    """
    header: dict = {}
    objects: list[MovingObject] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw, line in _content_lines(fh):
            try:
                _parse_line(line.split(), raw, header, objects)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if "n_frames" not in header:
        raise ValueError(f"{path}: missing required 'frames' header")
    if not objects:
        raise ValueError(f"{path}: scenario has no objects")
    return ScenarioSpec(objects=tuple(objects), **header)
