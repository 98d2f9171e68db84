"""Seeded benchmark inputs, generated apart from flextrack.

Every input the program receives is made here from the run's seed: traffic
scenes with their ground truth, the MOT detection files written from them, and
dense QUBO files with a planted ground state. Nothing here imports flextrack,
so a change to ``flextrack.scenario`` can move neither the inputs nor the
scores.

A scene is a set of boxes in linear motion. Per frame, an object is in view
when its box intersects the image, and hidden when another in-view box
overlaps it with IoU above the occlusion threshold and has the larger area
(equal areas hide the higher index). Visible objects emit one detection each,
jittered uniformly by up to ``jitter`` pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The five objects of scenarios/five_crossing.txt (cx, cy, w, h, vx, vy): a
# slow overtake with a third object sweeping across it on the upper lane, and a
# head-on crossing on the lower lane, all during the same frames.
FIVE_CROSSING = (
    (100.0, 100.0, 44.0, 44.0, 5.0, 0.0),
    (160.0, 100.0, 36.0, 36.0, 3.0, 0.0),
    (400.0, 100.0, 48.0, 48.0, -6.0, 0.0),
    (150.0, 300.0, 40.0, 40.0, 5.0, 0.0),
    (450.0, 300.0, 36.0, 36.0, -5.0, 0.0),
)
FIVE_CROSSING_FRAMES = 46

# half the speed gap of an overtaking pair, as a share of the lane speed
OVERTAKE_GAPS = (0.06, 0.09, 0.13, 0.2, 0.3, 0.4)


@dataclass
class Scene:
    """Ground truth and detections of one scene, frame by frame.

    ``boxes[k]`` holds ``(left, top, width, height)`` of every object in view
    in frame ``k``, ``ids[k]`` their object ids and ``visible[k]`` whether each
    emitted a detection; ``detections[k]`` holds the detection boxes.
    """

    width: float
    height: float
    ids: list[np.ndarray]
    boxes: list[np.ndarray]
    visible: list[np.ndarray]
    detections: list[np.ndarray]

    @property
    def n_frames(self) -> int:
        return len(self.boxes)

    def segment(self, start: int, stop: int) -> "Scene":
        """Frames ``start..stop-1`` as a scene of their own."""
        part = slice(start, stop)
        return Scene(
            self.width, self.height, self.ids[part], self.boxes[part],
            self.visible[part], self.detections[part],
        )


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of ``(left, top, width, height)`` rows; 0 when disjoint."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2]) - np.maximum(
        a[:, None, 0], b[None, :, 0]
    )
    ih = np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3]) - np.maximum(
        a[:, None, 1], b[None, :, 1]
    )
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return np.where(inter > 0.0, inter / union, 0.0)


def roll_out(
    objects: np.ndarray,
    n_frames: int,
    width: float,
    height: float,
    rng: np.random.Generator,
    occlusion_iou: float = 0.5,
    jitter: float = 1.0,
) -> Scene:
    """Move ``(left0, top0, w, h, vx, vy)`` rows linearly and apply the occlusion rule."""
    objects = np.asarray(objects, dtype=np.float64)
    ids_all = np.arange(len(objects))
    area = objects[:, 2] * objects[:, 3]
    scene = Scene(width, height, [], [], [], [])
    for k in range(n_frames):
        boxes = objects[:, :4].copy()
        boxes[:, 0] += k * objects[:, 4]
        boxes[:, 1] += k * objects[:, 5]
        in_view = (
            (boxes[:, 0] + boxes[:, 2] > 0)
            & (boxes[:, 0] < width)
            & (boxes[:, 1] + boxes[:, 3] > 0)
            & (boxes[:, 1] < height)
        )
        ids = ids_all[in_view]
        boxes = boxes[in_view]
        overlap = np.triu(iou_matrix(boxes, boxes) > occlusion_iou, 1)
        first, second = np.nonzero(overlap)
        smaller_first = area[ids[first]] < area[ids[second]]
        hidden = np.zeros(len(ids), dtype=bool)
        hidden[first[smaller_first]] = True
        hidden[second[~smaller_first]] = True
        visible = ~hidden
        dets = boxes[visible].copy()
        if jitter > 0:
            dets[:, :2] += rng.uniform(-jitter, jitter, size=(len(dets), 2))
        scene.ids.append(ids)
        scene.boxes.append(boxes)
        scene.visible.append(visible)
        scene.detections.append(dets)
    return scene


def five_crossing_scene(seed: int, draw: int = 0) -> Scene:
    """The paper's five-object crossing; ``(seed, draw)`` seeds the detection jitter."""
    rows = [(cx - w / 2.0, cy - h / 2.0, w, h, vx, vy) for cx, cy, w, h, vx, vy in FIVE_CROSSING]
    rng = np.random.default_rng([seed, draw])
    return roll_out(np.array(rows), FIVE_CROSSING_FRAMES, 640.0, 480.0, rng)


def traffic_scene(
    layout_seed: int,
    jitter_seed: int,
    n_view: int,
    n_frames: int,
    width: float = 640.0,
    lane_height: float = 64.0,
    per_lane: int = 4,
) -> Scene:
    """Multi-lane traffic with about ``n_view`` objects in view and steady overtakes.

    Lanes alternate direction. Each lane runs at its own seeded speed and is
    filled with overtake events at a fixed period: a slower and a faster car
    of the same size pass the same point at the same frame, so one hides
    behind the other for about ``w / (3 * delta)`` frames, where ``delta`` is
    half the speed gap. The two share a size because flextrack lets a
    tracker's box shrink to nothing: an identity swap between cars of unequal
    size leaves a large negative area velocity, and a few predicted frames
    later the tracker is written with a 0.00 x 0.00 box, which fails the
    output check on some seeds and not on others. Each lane cycles through the
    :data:`OVERTAKE_GAPS` ladder in a seeded order, so every scene holds the
    same mix of windows, from two frames to about fifteen, and a seed moves
    the counts that depend on it only a little. Events start before frame 0
    and continue after the last frame, so the count in view is near
    ``n_view`` throughout the scene and occlusions occur all through it.
    ``layout_seed`` draws the lanes and events, ``jitter_seed`` the detection
    jitter.
    """
    rng = np.random.default_rng(layout_seed)
    n_lanes = max(1, math.ceil(n_view / per_lane))
    height = n_lanes * lane_height
    rows = []
    for lane in range(n_lanes):
        direction = 1.0 if lane % 2 == 0 else -1.0
        speed = rng.uniform(16.0, 24.0)
        # two cars per event, each in view for about `life` frames
        life = (width + 85.0) / speed
        period = 2.0 * life / per_lane
        t_event = -1.5 * life + rng.uniform(0.0, period)
        gaps = rng.permutation(OVERTAKE_GAPS)
        event = 0
        while t_event < n_frames + 1.5 * life:
            t_o = t_event + rng.uniform(-0.1, 0.1) * period
            x_o = rng.uniform(0.45, 0.55) * width
            delta = gaps[event % len(gaps)] * speed
            event += 1
            # one size for both cars: see the docstring
            w = rng.uniform(60.0, 110.0)
            h = rng.uniform(36.0, 52.0)
            for v in (speed - delta, speed + delta):
                cy = (lane + 0.5) * lane_height + rng.uniform(-3.0, 3.0)
                vx = direction * v
                rows.append((x_o - w / 2.0 - vx * t_o, cy - h / 2.0, w, h, vx, 0.0))
            t_event += period
    return roll_out(np.array(rows), n_frames, width, height, np.random.default_rng(jitter_seed))


def occlusion_windows(scene: Scene) -> list[tuple[int, int, int]]:
    """Maximal runs of frames in which an object is in view but hidden.

    Returns ``(object, start, end)`` with ``end`` exclusive; a run that lasts
    to the last frame is included with ``end == n_frames``.
    """
    open_runs: dict[int, int] = {}
    windows = []
    for k in range(scene.n_frames):
        hidden_now = set(scene.ids[k][~scene.visible[k]].tolist())
        for obj in list(open_runs):
            if obj not in hidden_now:
                windows.append((obj, open_runs.pop(obj), k))
        for obj in hidden_now:
            open_runs.setdefault(obj, k)
    windows.extend((obj, start, scene.n_frames) for obj, start in open_runs.items())
    return sorted(windows, key=lambda w: (w[1], w[0]))


def format_mot(frame: int, track_id: int, box, confidence: float = 1.0) -> str:
    left, top, w, h = box
    return f"{frame},{track_id},{left:.2f},{top:.2f},{w:.2f},{h:.2f},{confidence:.6f},-1,-1,-1\n"


def write_detections(scene: Scene, path) -> None:
    """Write the scene's detections (frames numbered from 1) as a MOT file."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(scene.n_frames):
            for box in scene.detections[k]:
                fh.write(format_mot(k + 1, -1, box))


def planted_qubo(rng: np.random.Generator, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """A dense QUBO from the Wishart planted ensemble, with its ground state.

    Draws ``m = alpha * n`` Gaussian columns ``W`` orthogonal to a random spin
    vector ``t`` and sets ``J = -W W^T / n`` with a zero diagonal. The Ising
    energy ``-s^T J s / 2`` equals ``|W^T s|^2 / (2n)`` minus a constant, so
    ``s = +/-t`` are ground states. Substituting ``s = 2b - 1`` gives the QUBO
    ``Q = -2J + diag(2 J 1)``, whose energy at the planted bits is
    ``-|W^T 1|^2 / (2n) < 0``.

    Returns the upper-triangular matrix ``U`` that the QUBO file lists
    (``b^T U b == b^T Q b`` for every ``b``) and the planted bits.
    """
    t = rng.choice(np.array([-1.0, 1.0]), size=n)
    m = max(1, round(alpha * n))
    w = rng.normal(size=(n, m))
    w -= np.outer(t, t @ w) / n
    j = -(w @ w.T) / n
    np.fill_diagonal(j, 0.0)
    q = -2.0 * j + np.diag(2.0 * j.sum(axis=1))
    upper = np.triu(2.0 * q, 1) + np.diag(np.diag(q))
    return upper, ((t + 1) // 2).astype(np.int64)


def qubo_energy(upper: np.ndarray, bits) -> float:
    """``b^T U b`` for the listed (upper-triangular) coefficients."""
    b = np.asarray(bits, dtype=np.float64)
    return float(b @ upper @ b)


def write_qubo(upper: np.ndarray, path) -> None:
    """Write the QUBO text format: ``n``, then one ``i j value`` line per entry."""
    n = upper.shape[0]
    rows, cols = np.nonzero(upper)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        values = upper[rows, cols].tolist()
        fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), values))
