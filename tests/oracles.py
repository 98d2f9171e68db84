"""Reference helpers shared by the tests; the package itself never calls them."""

import numpy as np

from flextrack.ising import IsingProblem, QuboProblem, _AssignmentCoupling


def check_one_to_one(b) -> bool:
    """True iff the table satisfies the one-to-one equality constraints.

    Sums must equal 1 on the shorter side of the matrix and never exceed 1 on
    the longer side, so one-to-zero (surplus trackers) and zero-to-one (surplus
    detections) are allowed while double coincidences are not.
    """
    b = np.asarray(b, dtype=np.int64)
    n_t, n_d = b.shape
    cols = b.sum(axis=0)
    rows = b.sum(axis=1)
    col_ok = (cols == 1).all() if n_t >= n_d else (cols <= 1).all()
    row_ok = (rows == 1).all() if n_t <= n_d else (rows <= 1).all()
    return bool(col_ok and row_ok)


def bits_to_spins(bits) -> np.ndarray:
    """Map bits {0, 1} to spins {-1, +1} via ``s = 2b - 1``."""
    return 2 * np.asarray(bits, dtype=np.int64) - 1


def dense_coupling(problem: QuboProblem) -> np.ndarray:
    """``qubo_to_ising``'s coupling as first written, dense at every size:
    ``-q / 2`` with a zeroed diagonal."""
    j = -problem.q / 2.0
    np.fill_diagonal(j, 0.0)
    return j


def dense_ising(problem: QuboProblem) -> IsingProblem:
    """``qubo_to_ising(problem)`` with the dense coupling at every size, stored
    unchecked: the dense reference where the conversion gives the assignment
    coupling."""
    h = problem.q.sum(axis=1) / 2.0
    offset = float(problem.q.sum() + np.trace(problem.q)) / 4.0
    return IsingProblem._from_symmetric(dense_coupling(problem), h, offset)


def assignment_grid(j):
    """``(n_t, n_d, -c/2)`` of an assignment coupling, else None."""
    if type(j) is not _AssignmentCoupling:
        return None
    return (*j.grid, float(j.half))


def coupling_arrays(j) -> list:
    """A dense coupling's type, dtype and bytes."""
    return [(type(j), j.dtype, j.tobytes())]


def iou(a, b) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def loop_suppressed(boxes: dict, occlusion_iou: float) -> set:
    """The generator's occlusion rule pair by pair: of two boxes over
    ``occlusion_iou``, the smaller area hides, and equal areas hide the higher id."""
    suppressed = set()
    ids = sorted(boxes)
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            a, b = ids[ai], ids[bi]
            if iou(boxes[a], boxes[b]) > occlusion_iou:
                if boxes[a].area < boxes[b].area:
                    suppressed.add(a)
                else:
                    suppressed.add(b)
    return suppressed


def loop_associate(tracks_by_frame, gt, iou_min: float) -> list[dict[int, int]]:
    """The metrics' association pair by pair: each visible object goes to the
    last tracker at the highest IOU, if that IOU is at least ``iou_min``."""
    out = []
    for frame_tracks, frame_gt in zip(tracks_by_frame, gt.frames):
        assoc = {}
        for obj, entry in sorted(frame_gt.items()):
            if not entry.visible:
                continue
            best_id, best_iou = None, iou_min
            for tracker_id, box in frame_tracks:
                value = iou(entry.box, box)
                if value >= best_iou:
                    best_id, best_iou = tracker_id, value
            if best_id is not None:
                assoc[obj] = best_id
        out.append(assoc)
    return out
