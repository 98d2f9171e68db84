"""The benchmark's own checks and scores of the program's outputs.

Nothing here imports flextrack: outputs are parsed from the files and lines
the program writes, and every reference value (IoU, the exact assignment
optimum, QUBO energies) is computed here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from scenes import Scene, iou_matrix, occlusion_windows

IOU_MIN = 0.5
TIE_TOL = 1e-9


class CheckError(Exception):
    """An output of the program failed a check."""


def parse_mot(text: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse MOT result lines into ``frame -> (track ids, boxes)``.

    Each line needs ten comma-separated fields: integer frame and id, then
    finite left, top and positive width, height. Track ids must be unique
    within a frame.
    """
    rows: dict[int, list[tuple[int, list[float]]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        if len(fields) != 10:
            raise CheckError(f"line {lineno}: expected 10 fields, got {len(fields)}")
        try:
            frame, track_id = int(fields[0]), int(fields[1])
            box = [float(v) for v in fields[2:6]]
        except ValueError:
            raise CheckError(f"line {lineno}: unparsable record {line!r}") from None
        if not all(math.isfinite(v) for v in box):
            raise CheckError(f"line {lineno}: non-finite box {line!r}")
        if not (box[2] > 0 and box[3] > 0):
            raise CheckError(f"line {lineno}: non-positive box size {line!r}")
        rows.setdefault(frame, []).append((track_id, box))
    out = {}
    for frame, entries in rows.items():
        ids = np.array([i for i, _ in entries], dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise CheckError(f"frame {frame}: duplicate track ids")
        out[frame] = (ids, np.array([b for _, b in entries]).reshape(-1, 4))
    return out


def associate(scene: Scene, tracks: dict) -> list[dict[int, int]]:
    """Per frame, visible object -> track id, one-to-one at IoU >= 0.5.

    Frames are numbered from 1 in the output, from 0 in the scene. Among the
    pairs that clear the IoU floor, the pairing of largest total IoU is kept.
    """
    out = []
    for k in range(scene.n_frames):
        objs = scene.ids[k][scene.visible[k]]
        ids, boxes = tracks.get(k + 1, (np.zeros(0, np.int64), np.zeros((0, 4))))
        assoc = {}
        if len(objs) and len(ids):
            overlap = iou_matrix(scene.boxes[k][scene.visible[k]], boxes)
            overlap[overlap < IOU_MIN] = 0.0
            rows, cols = linear_sum_assignment(overlap, maximize=True)
            for r, c in zip(rows, cols):
                if overlap[r, c] >= IOU_MIN:
                    assoc[int(objs[r])] = int(ids[c])
        out.append(assoc)
    return out


def occlusion_outcomes(scene: Scene, assoc, anti_aging: int) -> tuple[int, int]:
    """``(survived, assessed)`` over the scene's occlusion windows.

    A window is assessed when the object reappears before the scene ends and
    was covered by a track at some frame before the window; it is survived
    when that pre-occlusion track id covers the object again within
    ``anti_aging`` frames of its reappearance.
    """
    survived = assessed = 0
    for obj, start, end in occlusion_windows(scene):
        if end >= scene.n_frames:
            continue
        prior = next((assoc[k][obj] for k in range(start - 1, -1, -1) if obj in assoc[k]), None)
        if prior is None:
            continue
        assessed += 1
        horizon = min(end + anti_aging, scene.n_frames)
        if any(assoc[k].get(obj) == prior for k in range(end, horizon)):
            survived += 1
    return survived, assessed


def identities_kept(scene: Scene, assoc) -> bool:
    """True when every object is covered by one track id all through the scene."""
    seen: dict[int, set[int]] = {}
    for frame in assoc:
        for obj, track_id in frame.items():
            seen.setdefault(obj, set()).add(track_id)
    objects = set().union(*(set(ids.tolist()) for ids in scene.ids))
    if set(seen) != objects or any(len(ids) != 1 for ids in seen.values()):
        return False
    firsts = [next(iter(ids)) for ids in seen.values()]
    return len(set(firsts)) == len(firsts)


def lsa_optimum(s: np.ndarray) -> float:
    """Largest total similarity of a one-to-one assignment."""
    rows, cols = linear_sum_assignment(s, maximize=True)
    return float(s[rows, cols].sum())


def is_one_to_one(table: np.ndarray) -> bool:
    """At most one set bit per row and per column."""
    return bool((table.sum(axis=0) <= 1).all() and (table.sum(axis=1) <= 1).all())


def assignment_energy(s: np.ndarray, table: np.ndarray, c: float) -> float:
    """The assignment cost ``-sum S b + c * penalties`` of a table.

    The shorter side of the matrix (both sides when square) carries the
    squared equality ``(sum b - 1)^2``, the longer side the pairwise product
    ``sum b * (sum b - 1)``. For similarities in [0, 1] and ``c = 1`` its
    minimum over all tables is minus the LSA optimum.
    """
    n_t, n_d = s.shape
    cols = table.sum(axis=0).astype(np.float64)
    rows = table.sum(axis=1).astype(np.float64)
    col_pen = (cols - 1.0) ** 2 if n_t >= n_d else cols * (cols - 1.0)
    row_pen = (rows - 1.0) ** 2 if n_t <= n_d else rows * (rows - 1.0)
    return float(-(s * table).sum() + c * (col_pen.sum() + row_pen.sum()))


def audit_assignments(sims, tables, c_large: float, exact: bool) -> dict:
    """Score the strict tables the tracker acted on against the exact optimum.

    Returns the energy ratio (summed table energy over summed ground-state
    energy ``-optimum``) and the strict optimality (summed matched similarity
    over summed optimum). With ``exact`` (the Hungarian baseline) every table
    must be one-to-one and reach the optimum within the tie tolerance.
    """
    energy = ground = matched = optimum = 0.0
    for k, (s, table) in enumerate(zip(sims, tables)):
        opt = lsa_optimum(s)
        got = float((s * table).sum())
        if exact and (not is_one_to_one(table) or abs(got - opt) > TIE_TOL * max(1.0, s.size)):
            raise CheckError(f"assignment {k}: matched similarity {got!r} != LSA optimum {opt!r}")
        energy += assignment_energy(s, table, c_large)
        ground -= opt
        matched += got
        optimum += opt
    if ground == 0.0:
        raise CheckError("no assignment with positive optimum to score")
    return {"energy_ratio": energy / ground, "strict_optimality": matched / optimum}


def parse_solve_line(line: str, n: int) -> tuple[np.ndarray, float]:
    """Parse ``bits=... energy=...`` as printed by ``flextrack solve-qubo``."""
    fields = dict(part.split("=", 1) for part in line.split())
    bits_text, energy_text = fields.get("bits", ""), fields.get("energy", "")
    if len(bits_text) != n or set(bits_text) - {"0", "1"}:
        raise CheckError(f"bad bits field in {line!r}")
    try:
        energy = float(energy_text)
    except ValueError:
        raise CheckError(f"bad energy field in {line!r}") from None
    return np.frombuffer(bits_text.encode(), dtype=np.uint8) - ord("0"), energy


def check_solve(upper: np.ndarray, planted_energy: float, line: str) -> float:
    """Check one printed solve against ``b^T U b`` and the planted ground state.

    The printed energy carries six significant digits, so it must agree with
    the recomputed energy to within that precision; no solution may beat the
    planted ground state. Returns the recomputed energy.
    """
    bits, printed = parse_solve_line(line, upper.shape[0])
    b = bits.astype(np.float64)
    energy = float(b @ upper @ b)
    if abs(printed - energy) > 1e-5 * max(1.0, abs(energy)):
        raise CheckError(f"printed energy {printed!r} != recomputed {energy!r}")
    if energy < planted_energy - 1e-9 * abs(planted_energy):
        raise CheckError(f"energy {energy!r} below the planted ground state {planted_energy!r}")
    return energy
