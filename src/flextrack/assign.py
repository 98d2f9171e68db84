"""Tracker-detection assignment: QUBO construction, dual-weight solving, arbitration.

Given an ``n_t x n_d`` similarity matrix, the assignment problem is encoded as
a QUBO over binary variables ``b[t, d]`` (1 = matched), flattened row-major so
variable ``t * n_d + d`` corresponds to pair ``(t, d)``. The cost is

    H_cost = H_object + c * (H_penalty1 + H_penalty2)

where ``H_object = -sum S[t, d] * b[t, d]`` rewards similar pairs and the
penalties enforce one-to-one correspondence. Each penalty is a squared
equality ``(sum b - 1)^2`` on the shorter side of the matrix and a pairwise
product term on the longer side, so unmatched trackers (when ``n_t > n_d``) or
unmatched detections (when ``n_t < n_d``) carry no penalty while any double
coincidence does.

``flexible_assign`` solves the QUBO twice, once with a large penalty weight
(strict one-to-one) and once with a small weight that tolerates many-to-one
tables, then arbitrates: trackers matched in the large-weight table are
``MATCH``; of the rest, those holding a bit in the small-weight table on a
detection a ``MATCH`` claimed are ``POTENTIAL_MATCH`` (the hallmark of an
occluded object hiding behind a matched detection); the remainder are
``UNMATCH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ising import QuboProblem, qubo_energy

DEFAULT_C_SMALL = 0.1
DEFAULT_C_LARGE = 1.0
DEFAULT_S_MIN = 0.1

_TIE_TOL = 1e-9


class TrackerState(Enum):
    MATCH = "match"
    POTENTIAL_MATCH = "potentially_match"
    UNMATCH = "unmatch"


@dataclass(frozen=True)
class TrackerDecision:
    """Arbitrated outcome for one tracker; ``detection`` is set unless UNMATCH."""

    state: TrackerState
    detection: int | None = None


@dataclass
class AssignmentResult:
    """Per-tracker decisions plus the raw material they were derived from.

    ``table_large`` is the repaired strict-weight table and ``table_small`` the
    tolerant-weight table as returned by the solver. ``repairs`` counts bits
    cleared to restore at-most-one coincidences in the strict table. The
    energies are the QUBO energies of the two solver outputs (before repair).
    """

    decisions: list[TrackerDecision]
    unmatched_detections: list[int]
    table_large: np.ndarray
    table_small: np.ndarray
    repairs: int = 0
    energy_large: float = float("nan")
    energy_small: float = float("nan")


def _validate_similarity(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
        raise ValueError(f"similarity matrix must be non-empty 2-D, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity matrix contains non-finite entries")
    return s


def _validate_table(b) -> np.ndarray:
    b = np.asarray(b)
    if b.ndim != 2:
        raise ValueError(f"assignment table must be 2-D, got shape {b.shape}")
    if not np.isin(b, (0, 1)).all():
        raise ValueError("assignment table entries must be 0 or 1")
    return b.astype(np.int64)


def build_assignment_qubo(s, c: float) -> tuple[QuboProblem, float]:
    """Build the assignment QUBO for penalty weight ``c``.

    Returns the problem and the constant dropped while expanding the squared
    equality constraints, so that for every table ``b``

        qubo_energy(problem, b.ravel()) + dropped == H_cost(b).
    """
    s = _validate_similarity(s)
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"penalty weight must be finite and non-negative, got {c}")
    n_t, n_d = s.shape
    n = n_t * n_d
    # pairs (t, d) and (t', d') are penalized together when they share exactly
    # one index: the same tracker (blocks) or the same detection (stripes);
    # both also write the diagonal, which fill_diagonal then overwrites
    q = np.zeros((n, n))
    q4 = q.reshape(n_t, n_d, n_t, n_d)
    q4[np.arange(n_t), :, np.arange(n_t), :] = c
    q4[:, np.arange(n_d), :, np.arange(n_d)] = c
    # adding the penalties' zero diagonal turns a -0.0 similarity term into 0.0
    diagonal = -s.ravel() + 0.0
    dropped = 0.0
    # a huge c may overflow here; the finiteness check below rejects the result
    with np.errstate(over="ignore"):
        if n_t >= n_d:
            # squared equality per detection: linear part -c, constant +c each
            diagonal -= c
            dropped += c * n_d
        if n_t <= n_d:
            diagonal -= c
            dropped += c * n_t
    if not np.isfinite(diagonal).all():
        raise ValueError(f"assignment QUBO overflows at penalty weight {c}")
    np.fill_diagonal(q, diagonal)
    # symmetric and finite by construction, so the validating constructor is skipped
    return QuboProblem._from_symmetric(q), dropped


def check_one_to_one(b) -> bool:
    """True iff the table satisfies the one-to-one equality constraints.

    Sums must equal 1 on the shorter side of the matrix and never exceed 1 on
    the longer side, so one-to-zero (surplus trackers) and zero-to-one (surplus
    detections) are allowed while double coincidences are not.
    """
    b = _validate_table(b)
    n_t, n_d = b.shape
    cols = b.sum(axis=0)
    rows = b.sum(axis=1)
    col_ok = (cols == 1).all() if n_t >= n_d else (cols <= 1).all()
    row_ok = (rows == 1).all() if n_t <= n_d else (rows <= 1).all()
    return bool(col_ok and row_ok)


def _optimal_sum(s: np.ndarray) -> float:
    if s.shape[0] == 0 or s.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(s, maximize=True)
    return float(s[rows, cols].sum())


def _optima_without_each(rest: np.ndarray) -> np.ndarray:
    """The optimum of ``rest`` with each column taken out, from one assignment.

    ``rest`` must have no negative entry, so that a partial assignment extends
    to a full one without losing value. Let ``A`` be an optimal assignment of
    ``rest``, of value ``V``. Taking out a column nobody in ``A`` holds costs
    nothing. Taking out the column of row ``h`` costs what ``h`` had on it,
    less ``gain[h]``: the most ``h`` wins back by moving to an unused column,
    to none, or to another holder's column, whose holder then moves on in
    turn. ``A`` is optimal, so no chain of such moves gains by closing a cycle,
    and the gains are longest paths, found by relaxing to a fixpoint.
    """
    n_rows, n_cols = rest.shape
    if n_rows == 0:
        return np.zeros(n_cols)
    rows, cols = linear_sum_assignment(rest, maximize=True)
    held = rest[rows, cols]
    value = float(held.sum())
    unused = np.ones(n_cols, dtype=bool)
    unused[cols] = False
    moves = rest[rows]
    gain = moves[:, unused].max(axis=1, initial=0.0)
    base = gain
    # take[i, j]: row rows[i] takes column cols[j] from its holder, who moves on
    take = moves[:, cols] - held
    for _ in range(rows.size):
        relaxed = np.maximum(base, (take + gain).max(axis=1))
        if np.array_equal(relaxed, gain):
            break
        gain = relaxed
    optima = np.full(n_cols, value)
    optima[cols] = value - held + gain
    return optima


def hungarian(s) -> np.ndarray:
    """Maximum-similarity one-to-one table with min(n_t, n_d) matched pairs.

    Ties between optimal assignments are broken deterministically: trackers are
    fixed in index order, each taking the lowest detection index ``d`` that
    still permits an optimal completion, that is whose ``fixed + s[t, d] +
    R(d)`` reaches ``total - _TIE_TOL``, with ``R(d)`` the optimum of the later
    trackers over the free detections other than ``d``.

    When no entry of ``s`` is negative, one LSA of the later trackers over all
    free detections, of value ``V``, gives ``R(d)`` for every candidate at once
    (:func:`_optima_without_each`): ``R(d) = V`` if nobody in that assignment
    holds ``d``; otherwise ``V - s[h, d] + g <= R(d) <= V`` for its holder
    ``h`` and ``h``'s best entry ``g`` on a free detection the assignment
    leaves unused, and relaxing ``h``'s moves through the other holders closes
    the gap. A candidate whose ``R(d)`` clears the threshold, or misses it, by
    more than a rounding margin is taken or skipped on it. The others, and
    every candidate when ``s`` has a negative entry, take the exact test: a
    fresh LSA over the later trackers and the free detections without ``d``.
    """
    s = _validate_similarity(s)
    n_t, n_d = s.shape
    total = _optimal_sum(s)
    nonnegative = not (s < 0).any()
    # rounding: a sum compared has at most 2 (n_t + n_d + 2) terms, none above max |s|
    slack = 4 * (n_t + n_d + 2) ** 2 * np.finfo(np.float64).eps * float(np.abs(s).max())
    table = np.zeros((n_t, n_d), dtype=np.int64)
    free = np.arange(n_d)
    fixed = 0.0
    for t in range(n_t):
        if free.size == 0:
            break  # every later tracker stays unmatched
        if nonnegative:
            reach = fixed + s[t, free] + _optima_without_each(s[t + 1 :][:, free])
            sure = reach >= total - _TIE_TOL + slack
            possible = reach >= total - _TIE_TOL - slack
        else:
            sure = np.zeros(free.size, dtype=bool)
            possible = np.ones(free.size, dtype=bool)
        first_sure = int(np.argmax(sure)) if sure.any() else free.size
        chosen = first_sure if first_sure < free.size else None
        for i in np.flatnonzero(possible[:first_sure]):
            rest = np.delete(free, i)
            if fixed + s[t, free[i]] + _optimal_sum(s[t + 1 :, rest]) >= total - _TIE_TOL:
                chosen = i
                break
        if chosen is not None:
            d = free[chosen]
            table[t, d] = 1
            fixed += s[t, d]
            free = np.delete(free, chosen)
        # otherwise every optimal assignment leaves tracker t unmatched
    return table


def repair_table(table, s) -> tuple[np.ndarray, int]:
    """Clear double coincidences from a solver table, keeping the best bit.

    For each detection column with several set bits, keep the highest-similarity
    tracker (ties to the lower index) and clear the rest; then the same per
    tracker row. Returns the repaired table and the number of bits cleared.
    Bits are only ever cleared, never added, so rows or columns the solver left
    empty stay empty and are handled by the arbiter as unmatched.
    """
    table = _validate_table(table).copy()
    s = _validate_similarity(s)
    repairs = 0
    for d in range(table.shape[1]):
        hits = np.flatnonzero(table[:, d])
        if len(hits) > 1:
            keep = hits[np.argmax(s[hits, d])]
            table[hits, d] = 0
            table[keep, d] = 1
            repairs += len(hits) - 1
    for t in range(table.shape[0]):
        hits = np.flatnonzero(table[t])
        if len(hits) > 1:
            keep = hits[np.argmax(s[t, hits])]
            table[t, hits] = 0
            table[t, keep] = 1
            repairs += len(hits) - 1
    return table, repairs


def _arbitrate(
    table_large: np.ndarray,
    table_small: np.ndarray,
    s: np.ndarray,
    s_min: float,
) -> tuple[list[TrackerDecision], list[int]]:
    n_t, n_d = s.shape
    decisions: list[TrackerDecision | None] = [None] * n_t
    claimed = np.zeros(n_d, dtype=bool)
    for t in range(n_t):
        hit = np.flatnonzero(table_large[t])
        if len(hit) == 1:
            d = int(hit[0])
            if s[t, d] < s_min:
                # gate weak matches out entirely; gating never promotes
                decisions[t] = TrackerDecision(TrackerState.UNMATCH)
            else:
                decisions[t] = TrackerDecision(TrackerState.MATCH, d)
                claimed[d] = True
    for t in range(n_t):
        if decisions[t] is not None:
            continue
        # park only behind a detection a MATCH claimed; an unclaimed one spawns
        candidates = np.flatnonzero(claimed & (table_small[t] != 0))
        if len(candidates) > 0:
            d = int(candidates[np.argmax(s[t, candidates])])
            decisions[t] = TrackerDecision(TrackerState.POTENTIAL_MATCH, d)
        else:
            decisions[t] = TrackerDecision(TrackerState.UNMATCH)
    unmatched_detections = np.flatnonzero(~claimed).tolist()
    return decisions, unmatched_detections


def flexible_assign(
    s,
    solver,
    c_small: float = DEFAULT_C_SMALL,
    c_large: float = DEFAULT_C_LARGE,
    s_min: float = DEFAULT_S_MIN,
) -> AssignmentResult:
    """Solve the assignment QUBO at two penalty weights and arbitrate.

    ``solver`` maps a :class:`QuboProblem` to a flat bit vector; inject the
    simulated-bifurcation solver for production or the brute-force oracle for
    tests. Matches with similarity below ``s_min`` are demoted to UNMATCH after
    arbitration (``s_min = -inf`` disables gating).
    """
    s = _validate_similarity(s)
    if not c_small < c_large:
        raise ValueError(f"need c_small < c_large, got {c_small} >= {c_large}")
    n_t, n_d = s.shape
    problem_large, _ = build_assignment_qubo(s, c_large)
    problem_small, _ = build_assignment_qubo(s, c_small)
    bits_large = np.asarray(solver(problem_large)).astype(np.int64)
    bits_small = np.asarray(solver(problem_small)).astype(np.int64)
    energy_large = qubo_energy(problem_large, bits_large)
    energy_small = qubo_energy(problem_small, bits_small)
    table_large, repairs = repair_table(bits_large.reshape(n_t, n_d), s)
    table_small = bits_small.reshape(n_t, n_d)
    decisions, unmatched = _arbitrate(table_large, table_small, s, s_min)
    return AssignmentResult(
        decisions=decisions,
        unmatched_detections=unmatched,
        table_large=table_large,
        table_small=table_small,
        repairs=repairs,
        energy_large=energy_large,
        energy_small=energy_small,
    )


def hungarian_assign(s, s_min: float = DEFAULT_S_MIN) -> AssignmentResult:
    """One-shot Hungarian assignment with no potentially-match state.

    The baseline counterpart of :func:`flexible_assign`: trackers matched by
    the Hungarian table (above the gate) are MATCH, everything else UNMATCH.
    """
    s = _validate_similarity(s)
    table = hungarian(s)
    decisions, unmatched = _arbitrate(table, np.zeros_like(table), s, s_min)
    return AssignmentResult(
        decisions=decisions,
        unmatched_detections=unmatched,
        table_large=table,
        table_small=np.zeros_like(table),
    )
