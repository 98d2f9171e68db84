"""Kalman-filter multi-object tracking loop with the potentially-match lifecycle.

Each tracker carries a 7-dim constant-velocity state over its bounding box,
``(cx, cy, area, aspect, v_cx, v_cy, v_area)``, the SORT parameterization. Per
frame the loop predicts and ages every tracker, scores tracker-detection pairs
by IOU, runs the assignment, and corrects:

  * MATCH: Kalman update from the detection, age reset to 0
  * POTENTIAL_MATCH: no update (prediction kept), age decreased by anti_aging
  * UNMATCH: untouched

Unmatched detections spawn fresh trackers; trackers with age > max_age are
deleted. A tracker that is potentially-matched through an occlusion therefore
accumulates negative age and outlives gaps that would kill an unmatched one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import assign as _assign
from . import sb as _sb
from .ising import _check_integers

# constant-velocity transition and observation over (cx, cy, area, aspect)
KF_F = np.eye(7)
KF_F[0, 4] = KF_F[1, 5] = KF_F[2, 6] = 1.0
KF_H = np.eye(4, 7)
KF_Q = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 0.0001])
KF_R = np.diag([1.0, 1.0, 10.0, 10.0])
KF_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])
KF_P0.flags.writeable = False  # every new tracker holds this one array

MIN_AREA = 1e-6

# The covariance recursion reads neither the state nor the detection, so
# predict's F P F' + Q and update's gain and (I - K H) P are memoized, keyed by
# the covariance's bytes; trackers with equal bytes share one read-only result.
# Unmatched trackers keep adding covariances, so a table is emptied at this size.
KALMAN_MEMO_SIZE = 4096
_predict_memo: dict[bytes, np.ndarray] = {}
_update_memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class BoundingBox:
    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        # The one box rule, for MOT files, scenarios and library callers:
        # positive sides, and finite right and bottom edges, doubled area (IOU
        # adds two areas), squared sides (a tracker's box squares them) and
        # aspect ratio (the Kalman state holds it), which imply a finite left,
        # top and sides. Python floats overflow to inf where NumPy's would warn.
        left, top, width, height = map(float, (self.left, self.top, self.width, self.height))
        if not (width > 0 and height > 0):
            raise ValueError(f"box width/height must be positive, got {width:g} x {height:g}")
        derived = (left + width, top + height, 2 * width * height, width * width, height * height,
                   width / height)
        if not all(map(math.isfinite, derived)):
            raise ValueError(
                "the box's right edge, bottom edge, doubled area, squared sides or aspect "
                f"ratio is not finite, got {left:g},{top:g},{width:g},{height:g}"
            )

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "BoundingBox":
        return cls(cx - width / 2.0, cy - height / 2.0, width, height)

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


def mot_printable(box: BoundingBox) -> bool:
    """True unless a side prints as 0.00, which no MOT reader accepts, at 2 decimals.

    ``round(x, 2)`` rounds as the 2-decimal format does.
    """
    return round(box.width, 2) > 0 and round(box.height, 2) > 0


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    confidence: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.confidence):
            raise ValueError("detection confidence must be finite")


@dataclass
class Tracker:
    """One tracked object: identity, Kalman state, and age in frames."""

    id: int
    x: np.ndarray  # (cx, cy, area, aspect, v_cx, v_cy, v_area)
    cov: np.ndarray  # from new_tracker, predict or update, a read-only array trackers share
    age: int = 0

    @property
    def box(self) -> BoundingBox:
        # Python floats: a state past the float range gives inf, which the box
        # rule rejects, where NumPy scalars would warn first
        cx, cy, area, aspect = self.x[:4].tolist()
        width = math.sqrt(max(area * aspect, MIN_AREA))
        height = max(area, MIN_AREA) / width
        return BoundingBox.from_center(cx, cy, width, height)


@dataclass(frozen=True)
class TrackConfig:
    max_age: int = 5
    anti_aging: int = 5
    c_small: float = _assign.DEFAULT_C_SMALL
    c_large: float = _assign.DEFAULT_C_LARGE
    s_min: float = _assign.DEFAULT_S_MIN
    sb_params: _sb.SbParams = field(default_factory=_sb.SbParams)

    def __post_init__(self):
        _check_integers(self, "max_age", "anti_aging")
        if self.max_age < 0 or self.anti_aging < 0:
            raise ValueError("max_age and anti_aging must be non-negative")
        _assign._validate_weights(self.c_small, self.c_large)
        _assign._validate_s_min(self.s_min)


def _edges(boxes) -> np.ndarray:
    """Columns left, top, right, bottom and area of each box, as its properties give them."""
    rows = [(b.left, b.top, b.left + b.width, b.top + b.height, b.width * b.height) for b in boxes]
    return np.array(rows).reshape(-1, 5)


def _tracker_edges(trackers) -> np.ndarray:
    """``_edges`` of the trackers' boxes, bit for bit, from one stack of their states."""
    cx, cy, area, aspect = np.array([t.x for t in trackers]).reshape(-1, 7)[:, :4].T
    # Tracker.box's operations in its order
    width = np.sqrt(np.maximum(area * aspect, MIN_AREA))
    height = np.maximum(area, MIN_AREA) / width
    left = cx - width / 2.0
    top = cy - height / 2.0
    return np.column_stack([left, top, left + width, top + height, width * height])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IOU of every ``_edges`` row of ``a`` with every row of ``b``; 0 where disjoint.

    One broadcast pass computes every pair, as SORT batches them: the overlap's
    width and height from the edges, their product, and that product over the
    sum of the two areas less it. The tests' scalar ``iou`` is the same rule,
    one pair at a time.
    """
    a, b = a[:, None, :], b[None, :, :]
    # boxes at opposite ends of the float range have a gap of -inf: disjoint
    with np.errstate(over="ignore"):
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    # disjoint pairs are left out: far apart, their gaps can overflow a product
    overlap = (iw > 0) & (ih > 0)
    inter = np.multiply(iw, ih, out=np.zeros(iw.shape), where=overlap)
    union = a[..., 4] + b[..., 4] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)


def similarity_matrix(trackers, detections) -> np.ndarray:
    """IOU of every tracker's predicted box with every detection's box."""
    return iou_matrix(_tracker_edges(trackers), _edges([d.box for d in detections]))


def _box_to_z(box: BoundingBox) -> np.ndarray:
    cx = box.left + box.width / 2.0
    cy = box.top + box.height / 2.0
    return np.array([cx, cy, box.width * box.height, box.width / box.height])


def new_tracker(detection: Detection, tracker_id: int) -> Tracker:
    """Spawn a tracker from a detection: zero velocities, age 0."""
    x = np.zeros(7)
    x[:4] = _box_to_z(detection.box)
    return Tracker(id=tracker_id, x=x, cov=KF_P0, age=0)


def _memoized(memo: dict, cov: np.ndarray, compute):
    key = cov.tobytes()
    result = memo.get(key)
    if result is None:
        if len(memo) >= KALMAN_MEMO_SIZE:
            memo.clear()
        result = memo[key] = compute(cov)
    return result


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The Kalman products, here and in predict and update, are written
# ``a.dot(b)``, not ``a @ b``: both reach the same BLAS call (gemv for a
# vector, gemm for a matrix) and give the same bits, but ``dot`` skips the
# matmul ufunc's dispatch (README "Tracker notes" has the cost), as
# ``sb._product`` does for ``J.dot(x)``.
def _predicted_cov(cov: np.ndarray) -> np.ndarray:
    return _read_only(KF_F.dot(cov).dot(KF_F.T) + KF_Q)


def _gain_and_updated_cov(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h_cov = KF_H.dot(cov)
    gain = _read_only(np.linalg.solve(h_cov.dot(KF_H.T) + KF_R, h_cov).T)
    return gain, _read_only((np.eye(7) - gain.dot(KF_H)).dot(cov))


def predict(tracker: Tracker) -> Tracker:
    """Constant-velocity Kalman prediction; increments age. Mutates in place.

    As in SORT, an area velocity that would take the area to zero or below is
    dropped first, so a shrinking box stops shrinking instead of collapsing.
    """
    x = tracker.x
    if x[2] + x[6] <= 0:
        x[6] = 0.0
    x = tracker.x = KF_F.dot(x)
    tracker.cov = _memoized(_predict_memo, tracker.cov, _predicted_cov)
    # max(x[3], MIN_AREA) for every float, NaN included, without its NumPy scalar
    if MIN_AREA > x[3]:
        x[3] = MIN_AREA
    tracker.age += 1
    return tracker


def update(tracker: Tracker, detection: Detection) -> Tracker:
    """Kalman measurement update from a detection; resets age to 0."""
    z = _box_to_z(detection.box)
    innovation = z - KF_H.dot(tracker.x)
    gain, tracker.cov = _memoized(_update_memo, tracker.cov, _gain_and_updated_cov)
    x = tracker.x = tracker.x + gain.dot(innovation)
    if MIN_AREA > x[2]:
        x[2] = MIN_AREA
    if MIN_AREA > x[3]:
        x[3] = MIN_AREA
    tracker.age = 0
    return tracker


def make_flexible_assigner(cfg: TrackConfig):
    def solver(problem):
        # looked up per call, so a wrapper installed on the module is seen
        return _sb.solve_qubo(problem, cfg.sb_params)[0]

    def assigner(s):
        return _assign.flexible_assign(
            s, solver, c_small=cfg.c_small, c_large=cfg.c_large, s_min=cfg.s_min
        )

    return assigner


def make_baseline_assigner(cfg: TrackConfig):
    """Hungarian assignment with potentially-match disabled."""

    def assigner(s):
        return _assign.hungarian_assign(s, s_min=cfg.s_min)

    return assigner


def _empty_result(n_t: int, n_d: int) -> _assign.AssignmentResult:
    return _assign.AssignmentResult(
        decisions=[_assign.UNMATCH] * n_t,
        unmatched_detections=list(range(n_d)),
        table_large=np.zeros((n_t, n_d), dtype=np.int64),
        table_small=np.zeros((n_t, n_d), dtype=np.int64),
    )


def step(
    trackers, detections, cfg: TrackConfig, assigner, id_counter
) -> tuple[list[Tracker], _assign.AssignmentResult]:
    """Advance the tracking state by one frame.

    ``assigner`` maps the tracker-by-detection similarity matrix to an
    :class:`~flextrack.assign.AssignmentResult`; frames without trackers or
    without detections never call it. ``id_counter`` is any ``next()``-able
    producing the ids of spawned trackers; keep one per sequence so ids are
    never reused after deletions. :class:`MultiObjectTracker` owns both. A
    frame with zero detections still predicts, ages, and deletes.
    """
    trackers = list(trackers)
    for tracker in trackers:
        predict(tracker)
    n_t, n_d = len(trackers), len(detections)
    if n_t == 0 or n_d == 0:
        result = _empty_result(n_t, n_d)
    else:
        result = assigner(similarity_matrix(trackers, detections))
    match, potential_match = _assign.TrackerState.MATCH, _assign.TrackerState.POTENTIAL_MATCH
    for tracker, decision in zip(trackers, result.decisions):
        if decision.state is match:
            update(tracker, detections[decision.detection])
        elif decision.state is potential_match:
            tracker.age -= cfg.anti_aging
    for d in result.unmatched_detections:
        trackers.append(new_tracker(detections[d], next(id_counter)))
    survivors = [t for t in trackers if t.age <= cfg.max_age]
    return survivors, result


class MultiObjectTracker:
    """Stateful per-sequence loop owning the tracker list and the id counter."""

    def __init__(self, cfg: TrackConfig | None = None, assigner=None):
        self.cfg = cfg if cfg is not None else TrackConfig()
        self.assigner = assigner if assigner is not None else make_flexible_assigner(self.cfg)
        self.trackers: list[Tracker] = []
        self._ids = itertools.count(1)

    def step(self, detections) -> _assign.AssignmentResult:
        self.trackers, result = step(self.trackers, detections, self.cfg, self.assigner, self._ids)
        return result
