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
tables. It builds, solves and scores one weight completely before it builds
the next, so a frame holds one dense ``(n_t*n_d)^2`` QUBO at a time, plus
that solve's Ising couplings. It then arbitrates: trackers matched in the
large-weight table are ``MATCH``; of the rest, those holding a bit in the
small-weight table on a detection a ``MATCH`` claimed are ``POTENTIAL_MATCH``
(the hallmark of an occluded object hiding behind a matched detection); the
remainder are ``UNMATCH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ising import QuboProblem, qubo_energy

DEFAULT_C_SMALL = 0.1
DEFAULT_C_LARGE = 1.0
DEFAULT_S_MIN = 0.1


class TrackerState(Enum):
    MATCH = "match"
    POTENTIAL_MATCH = "potentially_match"
    UNMATCH = "unmatch"


@dataclass(frozen=True)
class TrackerDecision:
    """Arbitrated outcome for one tracker; ``detection`` is set unless UNMATCH."""

    state: TrackerState
    detection: int | None = None


UNMATCH = TrackerDecision(TrackerState.UNMATCH)
# Like UNMATCH, each (state, detection) decision is one frozen instance, made
# once per process and shared: entry d of a state's list is detection d.
_SHARED = {TrackerState.MATCH: [], TrackerState.POTENTIAL_MATCH: []}


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
    if not ((b == 0) | (b == 1)).all():
        raise ValueError("assignment table entries must be 0 or 1")
    return b.astype(np.int64)


def _validate_s_min(s_min: float) -> None:
    # -inf turns the gate off; +inf would gate every match out, and nan
    # compares false with every similarity
    if not s_min < np.inf:
        raise ValueError(f"s_min must be below inf and not nan, got {s_min}")


def _validate_weight(name: str, c: float) -> None:
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {c}")


def _validate_weights(c_small: float, c_large: float) -> None:
    _validate_weight("c_small", c_small)
    _validate_weight("c_large", c_large)
    if not c_small < c_large:
        raise ValueError(f"need c_small < c_large, got {c_small} >= {c_large}")


def build_assignment_qubo(s, c: float) -> tuple[QuboProblem, float]:
    """Build the assignment QUBO for penalty weight ``c``.

    Returns the problem and the constant dropped while expanding the squared
    equality constraints, so that for every table ``b``

        qubo_energy(problem, b.ravel()) + dropped == H_cost(b).
    """
    s = _validate_similarity(s)
    _validate_weight("penalty weight", c)
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
    # symmetric and finite by construction, so the validating constructor is
    # skipped; the grid lets qubo_to_ising store the coupling in closed form
    return QuboProblem._from_symmetric(q, (n_t, n_d, float(c))), dropped


def hungarian(s) -> np.ndarray:
    """Maximum-similarity one-to-one table with min(n_t, n_d) matched pairs.

    One rectangular LSA (scipy's ``linear_sum_assignment``) gives the table.
    Exact ties between optimal tables are broken however scipy breaks them;
    :func:`hungarian_assign` MATCHes only pairs at or above ``s_min``, so two
    optima give different decisions only where they differ on gated-in pairs.
    """
    from scipy.optimize import linear_sum_assignment
    s = _validate_similarity(s)
    table = np.zeros(s.shape, dtype=np.int64)
    table[linear_sum_assignment(s, maximize=True)] = 1
    return table


def repair_table(table, s) -> tuple[np.ndarray, int]:
    """Clear double coincidences from a solver table, keeping the best bit.

    For each detection column with several set bits, keep the highest-similarity
    tracker (ties to the lower index) and clear the rest; then the same per
    tracker row. Returns the repaired table and the number of bits cleared.
    Bits are only ever cleared, never added, so rows or columns the solver left
    empty stay empty and are handled by the arbiter as unmatched.
    """
    table = _validate_table(table)
    s = _validate_similarity(s)
    if s.shape != table.shape:
        raise ValueError(f"similarity matrix shape {s.shape} does not match table shape {table.shape}")
    n_t, n_d = table.shape
    # the masked argmax of a column is its most similar set bit, the lowest
    # index on ties; a column without one points at a 0 it copies as 0
    keep = np.where(table != 0, s, -np.inf).argmax(axis=0)
    columns = np.zeros_like(table)
    columns[keep, np.arange(n_d)] = table[keep, np.arange(n_d)]
    keep = np.where(columns != 0, s, -np.inf).argmax(axis=1)
    repaired = np.zeros_like(table)
    repaired[np.arange(n_t), keep] = columns[np.arange(n_t), keep]
    return repaired, int(table.sum() - repaired.sum())


def _arbitrate(
    table_large: np.ndarray,
    table_small: np.ndarray,
    s: np.ndarray,
    s_min: float,
) -> tuple[list[TrackerDecision], list[int]]:
    n_t, n_d = s.shape
    large = table_large != 0
    single = large.sum(axis=1) == 1
    d_large = large.argmax(axis=1)
    # gate weak matches out entirely (to UNMATCH); gating never promotes
    match = single & ~(s[np.arange(n_t), d_large] < s_min)
    claimed = np.zeros(n_d, dtype=bool)
    claimed[d_large[match]] = True
    # a row without exactly one strict bit parks only behind a detection a
    # MATCH claimed, the most similar one; an unclaimed detection spawns.
    # The callers validate ``s`` finite, so only non-candidates read -inf.
    candidates = claimed & (table_small != 0)
    park = ~single & candidates.any(axis=1)
    d_small = np.where(candidates, s, -np.inf).argmax(axis=1)
    decisions = [UNMATCH] * n_t
    for state, rows, targets in (
        (TrackerState.MATCH, match, d_large), (TrackerState.POTENTIAL_MATCH, park, d_small)
    ):
        shared = _SHARED[state]
        if len(shared) < n_d:
            # grown as a new list, so a concurrent caller never sees a half-grown one
            shared = _SHARED[state] = shared + [TrackerDecision(state, d) for d in range(len(shared), n_d)]
        for t, d in zip(np.flatnonzero(rows).tolist(), targets[rows].tolist()):
            decisions[t] = shared[d]
    unmatched_detections = np.flatnonzero(~claimed).tolist()
    return decisions, unmatched_detections


def _solve_at(s: np.ndarray, c: float, solver) -> tuple[np.ndarray, float]:
    """Build, solve and score the assignment QUBO at weight ``c``.

    The dense QUBO is a local here, so it is freed on return, before the
    caller builds the next weight's.
    """
    problem, _ = build_assignment_qubo(s, c)
    bits = np.asarray(solver(problem))
    # checked before the cast, which would truncate 0.7 to 0 and 1.9 to 1
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("solver output entries must be 0 or 1")
    bits = bits.astype(np.int64)
    return bits, qubo_energy(problem, bits)


def flexible_assign(
    s,
    solver,
    c_small: float = DEFAULT_C_SMALL,
    c_large: float = DEFAULT_C_LARGE,
    s_min: float = DEFAULT_S_MIN,
) -> AssignmentResult:
    """Solve the assignment QUBO at two penalty weights and arbitrate.

    The weights are built, solved and scored in turn, the large one first,
    and each dense QUBO is freed before the next is built, so a frame holds
    one of them at a time. ``solver`` maps a :class:`QuboProblem` to a flat
    bit vector, and an entry other than 0 or 1 raises ``ValueError``; inject
    the simulated-bifurcation solver for production or the brute-force
    oracle for tests. Matches with similarity below ``s_min`` are demoted to
    UNMATCH after arbitration (``s_min = -inf`` disables gating).
    """
    s = _validate_similarity(s)
    _validate_s_min(s_min)
    _validate_weights(c_small, c_large)
    n_t, n_d = s.shape
    bits_large, energy_large = _solve_at(s, c_large, solver)
    bits_small, energy_small = _solve_at(s, c_small, solver)
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
    _validate_s_min(s_min)
    table = hungarian(s)
    zeros = np.zeros_like(table)
    decisions, unmatched = _arbitrate(table, zeros, s, s_min)
    return AssignmentResult(
        decisions=decisions,
        unmatched_detections=unmatched,
        table_large=table,
        table_small=zeros,
    )
