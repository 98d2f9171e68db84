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


def _column_losses(rest: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """How far the optimum of ``rest`` drops when each column is taken out.

    ``rows, cols`` is an optimal assignment ``A`` of ``rest``, which must have
    no negative entry, so that a partial assignment extends to a full one
    without losing value. Taking out a column nobody in ``A`` holds costs
    nothing. Taking out the column of row ``h`` costs what ``h`` had on it,
    less ``gain[h]``: the most ``h`` wins back by moving to an unused column,
    to none, or to another holder's column, whose holder then moves on in
    turn. ``A`` is optimal, so no chain of such moves gains by closing a cycle,
    and the gains are longest paths, found by relaxing to a fixpoint.
    """
    held = rest[rows, cols]
    unused = np.ones(rest.shape[1], dtype=bool)
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
    losses = np.zeros(rest.shape[1])
    losses[cols] = held - gain
    return losses


def _overlap_components(s: np.ndarray) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """The connected components of the bipartite graph of the pairs with ``s > 0``.

    Returns each row's and each column's component, -1 for one in no such
    pair, then each component's rows and its columns in index order.
    """
    n_t, n_d = s.shape
    rows, cols = np.nonzero(s > 0)
    nodes = rows.tolist() + (cols + n_t).tolist()
    parent = list(range(n_t + n_d))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in zip(nodes[: rows.size], nodes[rows.size :]):
        parent[find(a)] = find(b)
    node_comp = [-1] * (n_t + n_d)
    comp_rows: list[list[int]] = []
    comp_cols: list[list[int]] = []
    for x in sorted(set(nodes)):
        root = find(x)
        if node_comp[root] < 0:
            node_comp[root] = len(comp_rows)
            comp_rows.append([])
            comp_cols.append([])
        c = node_comp[x] = node_comp[root]
        if x < n_t:
            comp_rows[c].append(x)
        else:
            comp_cols[c].append(x - n_t)
    return node_comp[:n_t], node_comp[n_t:], comp_rows, comp_cols


class _LaterOptima:
    """``R(d)`` for every free detection, cached per overlap component.

    For a matrix with no negative entry, the optimum ``V`` of the later
    trackers (those after ``t``) over the free detections is the sum of each
    overlap component's own optimum ``values[c]``, since a pair across
    components is worth 0. Taking detection ``d`` out lowers only its own
    component's optimum, by ``loss[d]``, so ``R(d) = V - loss[d]``. One
    assignment of a component's sub-matrix refreshes its value and the losses
    of its free detections (:func:`_column_losses`). Taking a detection lowers
    its component's value by its loss, which keeps the value exact but leaves
    the component's other losses stale until the next refresh.
    """

    def __init__(self, s: np.ndarray, free: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        # rows, cols: an optimal assignment of all of s, before any tracker is fixed
        self.s = s
        self.free = free
        self.t = -1
        self.row_comp, self.col_comp, self.comp_rows, comp_cols = _overlap_components(s)
        self.comp_cols = [np.array(c) for c in comp_cols]
        self.loss = _column_losses(s, rows, cols)
        # an optimal assignment holds each component's optimum on its pairs there
        held = s[rows, cols]
        inside = held > 0
        comp_of = np.array(self.row_comp, dtype=np.intp)[rows[inside]]
        self.values = np.bincount(comp_of, held[inside], len(self.comp_rows)).tolist()
        self.stale: set[int] = set()

    def refresh(self, c: int) -> list[int]:
        """Re-solve component ``c``; return its free detections in index order."""
        later = [r for r in self.comp_rows[c] if r > self.t]
        cols = self.comp_cols[c][self.free[self.comp_cols[c]]]
        if not later or cols.size == 0:
            self.values[c] = 0.0
            self.loss[cols] = 0.0
        else:
            rest = self.s[later][:, cols]
            if len(later) == 1:
                # one tracker holds its best detection
                held = np.zeros(1, dtype=np.intp), rest.argmax(axis=1)
            else:
                held = linear_sum_assignment(rest, maximize=True)
            self.values[c] = float(rest[held].sum())
            self.loss[cols] = _column_losses(rest, *held)
        self.stale.discard(c)
        return cols.tolist()

    def leave(self, t: int) -> list[int]:
        """Make tracker ``t`` no longer later; return the free detections of its component."""
        self.t = t
        c = self.row_comp[t]
        return self.refresh(c) if c >= 0 else []

    def refresh_stale(self) -> None:
        for c in sorted(self.stale):
            self.refresh(c)

    def take(self, d: int) -> None:
        """Detection ``d``, whose loss is up to date, is no longer free."""
        c = self.col_comp[d]
        # a component with no later tracker is worth 0 with or without d
        if c >= 0 and self.comp_rows[c][-1] > self.t:
            self.values[c] -= float(self.loss[d])
            self.stale.add(c)


def hungarian(s) -> np.ndarray:
    """Maximum-similarity one-to-one table with min(n_t, n_d) matched pairs.

    Ties between optimal assignments are broken deterministically: trackers are
    fixed in index order, each taking the lowest detection index ``d`` that
    still permits an optimal completion, that is whose ``fixed + s[t, d] +
    R(d)`` reaches ``total - _TIE_TOL``, with ``R(d)`` the optimum of the later
    trackers over the free detections other than ``d``.

    When no entry of ``s`` is negative, ``R(d) = V - loss[d]`` comes from
    optima cached per overlap component (:class:`_LaterOptima`), and each
    tracker re-solves only its own component once it is no longer later. If
    ``fixed + V`` then falls short of the threshold by more than a rounding
    margin, no zero-similarity candidate can reach it, and only the free
    detections of the tracker's own component are tested: a tracker alone
    with one detection takes it with no LSA. Otherwise the components that
    earlier trackers took a detection from are re-solved, and every free
    detection is tested. A candidate whose ``reach`` clears the threshold, or
    misses it, by more than the margin is taken or skipped on it. The others,
    and every candidate when ``s`` has a negative entry, take the exact test:
    a fresh LSA over the later trackers and the free detections without ``d``.
    """
    s = _validate_similarity(s)
    n_t, n_d = s.shape
    rows, cols = linear_sum_assignment(s, maximize=True)
    threshold = float(s[rows, cols].sum()) - _TIE_TOL
    # rounding: a sum compared has at most 2 (n_t + n_d + 2) terms, none above max |s|
    slack = 4 * (n_t + n_d + 2) ** 2 * np.finfo(np.float64).eps * float(np.abs(s).max())
    table = np.zeros((n_t, n_d), dtype=np.int64)
    free = np.ones(n_d, dtype=bool)
    n_free = n_d
    later = None if (s < 0).any() else _LaterOptima(s, free, rows, cols)
    fixed = 0.0
    for t in range(n_t):
        if n_free == 0:
            break  # every later tracker stays unmatched
        if later is None:
            candidates = np.flatnonzero(free).tolist()
        else:
            candidates = later.leave(t)
            if fixed + sum(later.values) >= threshold - slack:
                # a zero-similarity candidate may reach the threshold too
                later.refresh_stale()
                candidates = np.flatnonzero(free).tolist()
            value = sum(later.values)
        chosen = None
        for d in candidates:
            if later is None:
                sure, possible = False, True
            else:
                reach = fixed + s[t, d] + (value - later.loss[d])
                sure = reach >= threshold + slack
                possible = reach >= threshold - slack
            if possible and not sure:
                rest = free.copy()
                rest[d] = False
                sure = fixed + s[t, d] + _optimal_sum(s[t + 1 :, rest]) >= threshold
            if sure:
                chosen = d
                break
        if chosen is not None:
            table[t, chosen] = 1
            fixed += s[t, chosen]
            free[chosen] = False
            n_free -= 1
            if later is not None:
                later.take(chosen)
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
