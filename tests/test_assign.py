"""Assignment QUBO construction, feasibility, Hungarian baseline, arbitration."""

import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from flextrack import assign
from flextrack.assign import (
    DEFAULT_C_LARGE,
    DEFAULT_C_SMALL,
    DEFAULT_S_MIN,
    AssignmentResult,
    TrackerDecision,
    TrackerState,
    _arbitrate,
    build_assignment_qubo,
    flexible_assign,
    hungarian,
    hungarian_assign,
    repair_table,
)
from flextrack.sb import SbParams, solve_qubo
from flextrack.ising import IsingProblem, QuboProblem, brute_force_qubo, qubo_energy, qubo_to_ising
from oracles import assignment_grid, check_one_to_one, coupling_arrays, dense_coupling


def direct_cost(s, table, c):
    """Independent evaluation of the assignment cost, straight from its definition."""
    s = np.asarray(s, dtype=float)
    table = np.asarray(table)
    n_t, n_d = s.shape
    objective = -(s * table).sum()
    penalty = 0.0
    for d in range(n_d):
        k = table[:, d].sum()
        penalty += (k - 1) ** 2 if n_t >= n_d else k * (k - 1)
    for t in range(n_t):
        k = table[t].sum()
        penalty += (k - 1) ** 2 if n_t <= n_d else k * (k - 1)
    return objective + c * penalty, c * penalty


def all_tables(n_t, n_d):
    for flat in itertools.product((0, 1), repeat=n_t * n_d):
        yield np.array(flat).reshape(n_t, n_d)


def kron_qubo(s, c):
    """The assignment QUBO assembled from Kronecker products: the builder's oracle."""
    s = np.asarray(s, dtype=np.float64)
    n_t, n_d = s.shape
    n = n_t * n_d
    q = np.diag(-s.ravel())
    same_column = np.kron(np.ones((n_t, n_t)) - np.eye(n_t), np.eye(n_d))
    same_row = np.kron(np.eye(n_t), np.ones((n_d, n_d)) - np.eye(n_d))
    dropped = 0.0
    q += c * same_column
    if n_t >= n_d:
        q -= c * np.eye(n)
        dropped += c * n_d
    q += c * same_row
    if n_t <= n_d:
        q -= c * np.eye(n)
        dropped += c * n_t
    return q, dropped


def broadcast_qubo(s, c):
    """The builder as one boolean broadcast through the validating constructor: its oracle."""
    s = np.asarray(s, dtype=np.float64)
    n_t, n_d = s.shape
    n = n_t * n_d
    same_t = np.eye(n_t, dtype=bool)[:, None, :, None]
    same_d = np.eye(n_d, dtype=bool)[None, :, None, :]
    q = np.multiply(c, (same_t != same_d).reshape(n, n), dtype=np.float64)
    diagonal = -s.ravel() + 0.0
    dropped = 0.0
    if n_t >= n_d:
        diagonal -= c
        dropped += c * n_d
    if n_t <= n_d:
        diagonal -= c
        dropped += c * n_t
    np.fill_diagonal(q, diagonal)
    return QuboProblem(q), dropped


def brute_solver(problem):
    return brute_force_qubo(problem)[0]


def sb_solver(problem):
    return solve_qubo(problem, SbParams())[0]


def sparse_iou_like(rng, n_t, n_d, fill):
    """Mostly zeros, as IOU between predicted boxes and detections is."""
    return np.where(rng.uniform(size=(n_t, n_d)) < fill, rng.uniform(size=(n_t, n_d)), 0.0)


def assert_hungarian_contract(s, s_min=DEFAULT_S_MIN):
    """``hungarian`` gives an optimal one-to-one table and ``hungarian_assign``
    MATCHes exactly its pairs at or above ``s_min``."""
    n_t, n_d = s.shape
    table = hungarian(s)
    assert table.dtype == np.int64
    assert check_one_to_one(table) and table.sum() == min(n_t, n_d)
    total = float((s * table).sum())
    # scipy's sparse matching is an independent optimum: costs shifted to at
    # least 1 keep every pair an edge and order full matchings as -s does
    rows, cols = min_weight_full_bipartite_matching(csr_array(s.max() - s + 1.0))
    assert abs(total - float(s[rows, cols].sum())) <= 1e-9
    if n_t * n_d <= 12:
        best = max(float((s * t).sum()) for t in all_tables(n_t, n_d) if check_one_to_one(t))
        assert abs(total - best) <= 1e-9
    result = hungarian_assign(s, s_min=s_min)
    matched = []
    for t, decision in enumerate(result.decisions):
        d = int(np.flatnonzero(table[t])[0]) if table[t].any() else None
        if d is not None and s[t, d] >= s_min:
            assert decision == TrackerDecision(TrackerState.MATCH, d)
            matched.append(d)
        else:
            assert decision == TrackerDecision(TrackerState.UNMATCH)
    assert len(matched) == len(set(matched))
    assert result.unmatched_detections == sorted(set(range(n_d)) - set(matched))


# small value sets make exact ties and zeros common; the fourth puts sums
# within 1e-9 of each other, and the last holds negatives
_QUANTIZED = (
    (0.0, 0.5, 1.0),
    (0.0, 0.1, 0.2, 0.3),
    (0.3,),
    (0.0, 0.7, 0.7 + 5e-10, 0.7 + 2e-9, 0.7 + 1e-6),
    (-0.5, 0.0, 0.25, 0.5),
)


@st.composite
def similarity_matrices(draw, max_side=None):
    kind = draw(st.sampled_from(["quantized", "sparse", "negative", "normal", "blocks"]))
    n_max = max_side or (40 if kind == "blocks" else 24)
    n_t = draw(st.integers(1, n_max))
    n_d = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "blocks":
        # positive pairs only inside random row and column groups, as in a
        # frame of separate overlap clusters
        groups = draw(st.integers(1, 8))
        inside = rng.integers(groups, size=(n_t, 1)) == rng.integers(groups, size=(1, n_d))
        inside &= rng.uniform(size=(n_t, n_d)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
        if draw(st.booleans()):
            values = rng.choice(draw(st.sampled_from(_QUANTIZED[:-1])), size=(n_t, n_d))
        else:
            values = rng.uniform(size=(n_t, n_d))
        return np.where(inside, values, 0.0)
    if kind == "quantized":
        values = draw(st.sampled_from(_QUANTIZED[:-1]))
        return rng.choice(values, size=(n_t, n_d))
    if kind == "sparse":
        return sparse_iou_like(rng, n_t, n_d, draw(st.sampled_from([0.05, 0.15, 0.4])))
    if kind == "negative":
        return rng.choice(_QUANTIZED[-1], size=(n_t, n_d))
    return rng.normal(size=(n_t, n_d))


class TestBuildAssignmentQubo:
    def test_one_by_one(self):
        problem, dropped = build_assignment_qubo([[0.5]], c=1.0)
        assert problem.q.tolist() == [[-2.5]]
        assert dropped == 2.0
        bits, energy = brute_force_qubo(problem)
        assert np.array_equal(bits, [1])
        assert energy + dropped == pytest.approx(-0.5)  # pure objective at optimum

    def test_two_trackers_one_detection_strict(self):
        problem, dropped = build_assignment_qubo([[0.8], [0.7]], c=1.0)
        bits, energy = brute_force_qubo(problem)
        assert np.array_equal(bits, [1, 0])
        assert energy + dropped == pytest.approx(-0.8)

    def test_two_trackers_one_detection_tolerant(self):
        # at the small weight the constraint-violating table wins
        problem, dropped = build_assignment_qubo([[0.8], [0.7]], c=0.1)
        bits, energy = brute_force_qubo(problem)
        assert np.array_equal(bits, [1, 1])
        assert energy + dropped == pytest.approx(-1.4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_assignment_qubo(np.zeros((0, 3)), c=1.0)
        with pytest.raises(ValueError):
            build_assignment_qubo([[0.5]], c=-0.1)

    @pytest.mark.parametrize("n_t,n_d", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (1, 3), (3, 1)])
    @pytest.mark.parametrize("c", [1.0, 0.1])
    def test_energy_matches_direct_cost(self, n_t, n_d, c):
        rng = np.random.default_rng(n_t * 10 + n_d)
        s = rng.uniform(0, 1, size=(n_t, n_d))
        problem, dropped = build_assignment_qubo(s, c)
        for table in all_tables(n_t, n_d):
            expected, _ = direct_cost(s, table, c)
            got = qubo_energy(problem, table.ravel()) + dropped
            assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n_t,n_d", [(1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (24, 24)])
    @pytest.mark.parametrize("c", [0.0, 0.1, 1.0])
    def test_bit_identical_to_kron_formula(self, n_t, n_d, c):
        # zero similarities included: the sign of a zero diagonal entry must match too
        rng = np.random.default_rng(n_t * 100 + n_d)
        s = np.where(rng.uniform(size=(n_t, n_d)) < 0.5, rng.uniform(size=(n_t, n_d)), 0.0)
        problem, dropped = build_assignment_qubo(s, c)
        q, oracle_dropped = kron_qubo(s, c)
        assert problem.q.tobytes() == QuboProblem(q).q.tobytes()
        assert dropped == oracle_dropped

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(1, 40),
        n_d=st.integers(1, 40),
        fill=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        c=st.sampled_from([0.0, 0.1, 1.0, 2.5]),
        seed=st.integers(0, 2**16),
    )
    @example(n_t=40, n_d=40, fill=0.1, c=1.0, seed=0)
    @example(n_t=40, n_d=1, fill=0.5, c=0.1, seed=0)
    def test_bit_identical_to_oracles_up_to_40(self, n_t, n_d, fill, c, seed):
        rng = np.random.default_rng(seed)
        s = sparse_iou_like(rng, n_t, n_d, fill)
        problem, dropped = build_assignment_qubo(s, c)
        oracle, oracle_dropped = broadcast_qubo(s, c)
        assert problem.q.tobytes() == oracle.q.tobytes()
        assert problem.q.tobytes() == QuboProblem(kron_qubo(s, c)[0]).q.tobytes()
        assert dropped == oracle_dropped

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(1, 30),
        n_d=st.integers(1, 30),
        c=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_unchecked_constructors_match_validating_ones(self, n_t, n_d, c, seed):
        # the builder and the converter skip validation; the public
        # constructors, fed their outputs, must accept them and change nothing
        s = sparse_iou_like(np.random.default_rng(seed), n_t, n_d, 0.3)
        problem, _ = build_assignment_qubo(s, c)
        assert type(problem) is QuboProblem
        assert QuboProblem(problem.q).q.tobytes() == problem.q.tobytes()
        ising = qubo_to_ising(problem)
        # the same matrix without its grid is dense
        untagged = qubo_to_ising(QuboProblem(problem.q))
        # the converter's coupling as first written, -q / 2 with a zeroed diagonal
        j = dense_coupling(problem)
        validated = IsingProblem(j, ising.h, ising.offset)
        assert coupling_arrays(validated.j) == coupling_arrays(untagged.j)
        assert validated.h.tobytes() == ising.h.tobytes() == untagged.h.tobytes()
        assert validated.offset == ising.offset == untagged.offset
        assert coupling_arrays(untagged.j) == coupling_arrays(j)
        if n_t * n_d > 362:
            assert assignment_grid(ising.j) == (n_t, n_d, c * -0.5)
        else:
            assert coupling_arrays(ising.j) == coupling_arrays(untagged.j)

    @pytest.mark.parametrize("c", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_weight(self, c):
        with pytest.raises(ValueError, match="penalty weight"):
            build_assignment_qubo([[0.5, 0.1], [0.2, 0.4]], c)

    def test_rejects_overflowing_diagonal(self):
        # every input finite, but -s - 2c is not
        with pytest.raises(ValueError, match="overflows"):
            build_assignment_qubo([[1e308]], 1e308)

    @pytest.mark.parametrize("n_t,n_d", [(2, 2), (3, 2), (2, 3)])
    def test_penalty_zero_iff_feasible(self, n_t, n_d):
        rng = np.random.default_rng(n_t + n_d)
        s = rng.uniform(0, 1, size=(n_t, n_d))
        for table in all_tables(n_t, n_d):
            _, penalty = direct_cost(s, table, 1.0)
            if check_one_to_one(table):
                assert penalty == 0
            else:
                assert penalty > 0


class TestCheckOneToOne:
    def test_identity_square(self):
        assert check_one_to_one(np.eye(3, dtype=int))

    def test_double_coincidence(self):
        assert not check_one_to_one([[1], [1]])

    def test_one_to_zero_allowed_with_surplus_trackers(self):
        assert check_one_to_one([[1], [0]])

    def test_zero_to_one_allowed_with_surplus_detections(self):
        assert check_one_to_one([[0, 1]])

    def test_missing_match_on_short_side_infeasible(self):
        assert not check_one_to_one([[0], [0]])

    @pytest.mark.parametrize("n_o,expected", [(2, 2), (3, 6)])
    def test_feasible_table_count(self, n_o, expected):
        # exactly n_o! of the 2^(n_o^2) tables satisfy one-to-one
        count = sum(check_one_to_one(t) for t in all_tables(n_o, n_o))
        assert count == expected


class TestHungarian:
    def test_dominant_diagonal(self):
        table = hungarian(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert table.tolist() == [[1, 0], [0, 1]]

    def test_single_pair(self):
        assert hungarian(np.array([[0.4]])).tolist() == [[1]]

    def test_all_equal_ties_to_identity(self):
        assert hungarian(np.full((2, 2), 0.3)).tolist() == [[1, 0], [0, 1]]

    def test_rectangular_more_trackers(self):
        table = hungarian(np.array([[0.9], [0.8], [0.1]]))
        assert table.sum() == 1 and table[0, 0] == 1

    def test_rectangular_more_detections(self):
        table = hungarian(np.array([[0.1, 0.2, 0.9]]))
        assert table.tolist() == [[0, 0, 1]]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(similarity_matrices(max_side=4), similarity_matrices()))
    def test_contract(self, s):
        assert_hungarian_contract(s)

    def test_contract_128(self):
        assert_hungarian_contract(sparse_iou_like(np.random.default_rng(128), 128, 128, 0.05))

    def test_contract_crowd(self):
        # a crowd frame's size: more trackers than detections, 2 % overlapping
        assert_hungarian_contract(sparse_iou_like(np.random.default_rng(72), 72, 60, 0.02))

    def test_exact_tie_decisions(self):
        # both optima pair detection 1 with one tracker and detection 0 with
        # the other; scipy gives detection 1 to tracker 0, and the gate leaves
        # tracker 1 unmatched on its zero pair
        s = np.array([[0.0, 0.3], [0.0, 0.3]])
        result = hungarian_assign(s)
        assert [d.state for d in result.decisions] == [TrackerState.MATCH, TrackerState.UNMATCH]
        assert result.decisions[0].detection == 1
        assert result.unmatched_detections == [0]

    @pytest.mark.parametrize("n_t,n_d", [(4, 4), (3, 6), (6, 3)])
    def test_diagonal_only(self, n_t, n_d):
        # every overlap component is one tracker and one detection
        s = np.zeros((n_t, n_d))
        k = min(n_t, n_d)
        s[np.arange(k), np.arange(k)] = np.linspace(0.2, 0.9, k)
        assert hungarian(s).tolist() == np.eye(n_t, n_d, dtype=np.int64).tolist()

    @pytest.mark.parametrize("n_t,n_d", [(1, 1), (3, 5), (5, 3)])
    def test_all_zero(self, n_t, n_d):
        # no overlap at all: scipy pairs trackers and detections in index order
        table = hungarian(np.zeros((n_t, n_d)))
        assert table.tolist() == np.eye(n_t, n_d, dtype=np.int64).tolist()

    def test_exhaustive_agreement_small(self):
        rng = np.random.default_rng(2)
        for n_t, n_d in [(2, 2), (3, 3), (3, 2), (2, 3)]:
            for _ in range(5):
                s = rng.uniform(0, 1, size=(n_t, n_d))
                best = max(
                    float((s * t).sum())
                    for t in all_tables(n_t, n_d)
                    if check_one_to_one(t)
                )
                table = hungarian(s)
                assert check_one_to_one(table)
                assert float((s * table).sum()) == pytest.approx(best)


class TestInputChecks:
    """Each public entry rejects a non-finite similarity, both assigners a gate
    ``s_min`` that is nan or +inf, and ``repair_table`` a table that is not
    2-D or not 0/1, or a similarity of another shape, with its message."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: build_assignment_qubo(s, 1.0),
            hungarian,
            hungarian_assign,
            lambda s: repair_table(np.eye(2, dtype=np.int64), s),
            lambda s: flexible_assign(s, brute_solver),
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_similarity(self, call, bad):
        s = np.array([[0.5, 0.1], [0.2, bad]])
        with pytest.raises(ValueError, match="^similarity matrix contains non-finite entries$"):
            call(s)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s_min: flexible_assign([[0.05, 0.0], [0.0, 0.9]], brute_solver, s_min=s_min),
            lambda s_min: hungarian_assign([[0.05, 0.0], [0.0, 0.9]], s_min=s_min),
        ],
        ids=["flexible_assign", "hungarian_assign"],
    )
    @pytest.mark.parametrize("s_min", [np.nan, np.inf])
    def test_gate_must_be_below_inf_and_not_nan(self, call, s_min):
        # as TrackConfig rejects them: nan would MATCH the 0.05 pair, and +inf
        # would gate every tracker out
        with pytest.raises(ValueError, match=f"^s_min must be below inf and not nan, got {s_min}$"):
            call(s_min)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (3, 3)])
    def test_similarity_must_have_the_table_shape(self, shape):
        # (1, 3) and (2, 1) would broadcast against the 2 x 3 table
        table = np.array([[1, 1, 0], [0, 1, 0]])
        message = f"^similarity matrix shape {re.escape(str(shape))} does not match table shape \\(2, 3\\)$"
        with pytest.raises(ValueError, match=message):
            repair_table(table, np.ones(shape))

    @pytest.mark.parametrize("table", [np.ones(4), np.ones((1, 2, 2))])
    def test_table_must_be_2d(self, table):
        shape = re.escape(str(table.shape))
        with pytest.raises(ValueError, match=f"^assignment table must be 2-D, got shape {shape}$"):
            repair_table(table, np.ones((2, 2)))

    @pytest.mark.parametrize("entry", [2, -1, 0.5])
    def test_table_entries_must_be_bits(self, entry):
        table = np.array([[1, 0], [0, entry]])
        with pytest.raises(ValueError, match="^assignment table entries must be 0 or 1$"):
            repair_table(table, np.ones((2, 2)))


def loop_repair(table, s):
    """``repair_table`` written as per-column then per-row loops: its reference."""
    table = np.array(table, dtype=np.int64)
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


class TestRepair:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
        st.sampled_from(["zeros", "one_to_one", 0.05, 0.3, 0.7, 1.0]),
        st.sampled_from(((0.0,), (-0.2, 0.0, 0.2), (-1.0, -0.5), "uniform")),
    )
    @example(16, 16, 0, 0.3, (0.0, 0.2))
    @example(24, 24, 1, 0.7, (-0.2, 0.0, 0.2))
    @example(64, 48, 2, 0.3, "uniform")
    def test_identical_to_loop(self, n_t, n_d, seed, kind, values):
        # few distinct, zero or negative similarities make exact ties common
        rng = np.random.default_rng(seed)
        if values == "uniform":
            s = rng.uniform(-1, 1, size=(n_t, n_d))
        else:
            s = rng.choice(values, size=(n_t, n_d))
        table = random_table(rng, n_t, n_d, kind)
        got, repairs = repair_table(table, s)
        want, want_repairs = loop_repair(table, s)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert type(repairs) is int and repairs == want_repairs

    def test_column_conflict_keeps_best(self):
        s = np.array([[0.8], [0.7]])
        table, repairs = repair_table([[1], [1]], s)
        assert table.tolist() == [[1], [0]]
        assert repairs == 1

    def test_row_conflict_keeps_best(self):
        s = np.array([[0.3, 0.9]])
        table, repairs = repair_table([[1, 1]], s)
        assert table.tolist() == [[0, 1]]
        assert repairs == 1

    def test_feasible_table_untouched(self):
        s = np.random.default_rng(1).uniform(0, 1, size=(3, 3))
        table, repairs = repair_table(np.eye(3, dtype=int), s)
        assert table.tolist() == np.eye(3, dtype=int).tolist()
        assert repairs == 0


class TestFlexibleAssign:
    def test_occlusion_structure(self):
        result = flexible_assign(np.array([[0.8], [0.7]]), brute_solver)
        assert result.decisions[0].state is TrackerState.MATCH
        assert result.decisions[0].detection == 0
        assert result.decisions[1].state is TrackerState.POTENTIAL_MATCH
        assert result.decisions[1].detection == 0
        assert result.unmatched_detections == []
        assert result.repairs == 0

    def test_no_occlusion_tables_identical(self):
        s = np.full((3, 3), 0.05) + np.eye(3) * 0.85
        result = flexible_assign(s, brute_solver)
        assert all(d.state is TrackerState.MATCH for d in result.decisions)
        assert [d.detection for d in result.decisions] == [0, 1, 2]
        assert np.array_equal(result.table_large, result.table_small)

    def test_surplus_detection_spawns(self):
        result = flexible_assign(np.array([[0.1, 0.9]]), brute_solver)
        assert result.decisions[0].state is TrackerState.MATCH
        assert result.decisions[0].detection == 1
        assert result.unmatched_detections == [0]

    def test_requires_ordered_weights(self):
        with pytest.raises(ValueError, match="c_small"):
            flexible_assign(np.array([[0.5]]), brute_solver, c_small=1.0, c_large=0.1)

    @pytest.mark.parametrize("key", ["c_small", "c_large"])
    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
    def test_weight_must_be_finite_and_non_negative(self, key, value):
        # the rule TrackConfig applies, with the weight's name, before any solve
        def no_solve(problem):
            raise AssertionError("solved")

        with pytest.raises(ValueError, match=f"^{key} must be finite and non-negative, got {value}$"):
            flexible_assign(np.array([[0.5]]), no_solve, **{key: value})

    def test_repairs_infeasible_solver_output(self):
        # a sloppy heuristic answering the tolerant table for both weights
        def sloppy(problem):
            return np.ones(problem.n, dtype=int)

        result = flexible_assign(np.array([[0.8], [0.7]]), sloppy)
        assert result.repairs == 1
        assert result.decisions[0].state is TrackerState.MATCH
        assert result.decisions[1].state is TrackerState.POTENTIAL_MATCH

    @pytest.mark.parametrize("weight", ["large", "small"])
    @pytest.mark.parametrize(
        "output", [[0.7] * 4, [1.9, 0, 0, 1.2], [1, 0, 0, np.nan], [2, 0, 0, 1], [1, 0, 0, -1]]
    )
    def test_rejects_solver_output_that_is_not_bits(self, weight, output):
        # a cast to integers would read 0.7 as 0 and 1.9 as 1, and NaN as anything
        calls = []

        def solver(problem):
            calls.append(None)
            bad = (len(calls) == 1) == (weight == "large")
            return np.array(output) if bad else np.eye(2).ravel()

        with pytest.raises(ValueError, match="^solver output entries must be 0 or 1$"):
            flexible_assign(np.array([[0.8, 0.1], [0.2, 0.7]]), solver)
        assert len(calls) == (1 if weight == "large" else 2)

    def test_gating_demotes_weak_match(self):
        result = flexible_assign(np.array([[0.05]]), brute_solver, s_min=0.1)
        assert result.decisions[0].state is TrackerState.UNMATCH
        assert result.unmatched_detections == [0]

    def test_gating_never_promotes(self):
        # the gated tracker holds a small-table bit yet must not become potential
        s = np.array([[0.05], [0.04]])
        result = flexible_assign(s, brute_solver, s_min=0.1)
        assert result.table_small[0].any()
        assert result.decisions[0].state is TrackerState.UNMATCH

    def test_potential_match_needs_a_claimed_detection(self):
        # the gated tracker 0 claims nothing, so tracker 1 cannot park on
        # detection 0, which spawns a tracker of its own instead
        result = flexible_assign([[0.09], [0.08]], brute_solver, c_small=0.05)
        assert result.table_small[1, 0] == 1
        assert result.decisions[1].state is TrackerState.UNMATCH
        assert result.unmatched_detections == [0]

    def test_potential_match_parks_on_the_claimed_detection(self):
        # tracker 2 holds tolerant bits on the unclaimed detection 1 (higher
        # similarity) and the claimed detection 0; only the claimed one counts
        table_large = np.array([[1, 0], [0, 0], [0, 0]])
        table_small = np.array([[1, 0], [0, 0], [1, 1]])
        s = np.array([[0.9, 0.0], [0.5, 0.5], [0.4, 0.6]])

        def replay(problem):
            return table_large.ravel() if problem.q[0, 1] == 1.0 else table_small.ravel()

        result = flexible_assign(s, replay)
        assert result.decisions[2].state is TrackerState.POTENTIAL_MATCH
        assert result.decisions[2].detection == 0
        assert result.decisions[1].state is TrackerState.UNMATCH
        assert result.unmatched_detections == [1]

    def test_gating_disabled_with_minus_inf(self):
        result = flexible_assign(np.array([[0.05]]), brute_solver, s_min=float("-inf"))
        assert result.decisions[0].state is TrackerState.MATCH

    def test_arbiter_soundness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n_t = int(rng.integers(1, 4))
            n_d = int(rng.integers(1, 4))
            s = rng.uniform(0, 1, size=(n_t, n_d))
            result = flexible_assign(s, brute_solver, s_min=float("-inf"))
            matched = []
            for t, dec in enumerate(result.decisions):
                if dec.state is TrackerState.MATCH:
                    assert result.table_large[t, dec.detection] == 1
                    matched.append(dec.detection)
                elif dec.state is TrackerState.POTENTIAL_MATCH:
                    assert result.table_small[t, dec.detection] == 1
                    assert not result.table_large[t].any()
                    assert dec.detection not in result.unmatched_detections
            assert len(matched) == len(set(matched))  # no detection matched twice
            assert sorted(matched + result.unmatched_detections) == list(range(n_d))


def both_built_first(s, solver):
    """``flexible_assign`` at the default weights with both QUBOs built before
    either is solved: the reference for its one-weight-at-a-time order."""
    n_t, n_d = s.shape
    problem_large, _ = build_assignment_qubo(s, DEFAULT_C_LARGE)
    problem_small, _ = build_assignment_qubo(s, DEFAULT_C_SMALL)
    bits_large = np.asarray(solver(problem_large)).astype(np.int64)
    bits_small = np.asarray(solver(problem_small)).astype(np.int64)
    table_large, repairs = repair_table(bits_large.reshape(n_t, n_d), s)
    table_small = bits_small.reshape(n_t, n_d)
    decisions, unmatched = _arbitrate(table_large, table_small, s, DEFAULT_S_MIN)
    return AssignmentResult(
        decisions, unmatched, table_large, table_small, repairs,
        qubo_energy(problem_large, bits_large), qubo_energy(problem_small, bits_small),
    )


class TestOneWeightAtATime:
    """``flexible_assign`` builds, solves and scores one weight before it builds
    the next, so a frame holds one dense QUBO at a time."""

    def test_previous_weight_is_freed_before_the_next_solve(self):
        seen = []

        def solver(problem):
            assert all(ref() is None for ref in seen), "the previous weight's QUBO is alive"
            seen.append(weakref.ref(problem))
            return brute_solver(problem)

        flexible_assign(np.array([[0.8], [0.7]]), solver)
        assert len(seen) == 2

    # the 20 x 20 frame needs 2 repairs and parks one tracker; the 24 x 22 parks two
    @pytest.mark.parametrize(
        "n_t,n_d,fill,seed", [(20, 20, 0.05, 1), (24, 22, 0.15, 2), (21, 26, 0.2, 3)]
    )
    def test_same_result_as_building_both_first(self, n_t, n_d, fill, seed):
        rng = np.random.default_rng(seed)
        s = sparse_iou_like(rng, n_t, n_d, fill)
        # the frame is large enough for the assignment coupling's product; the
        # same matrix without its grid would be dense
        problem, _ = build_assignment_qubo(s, DEFAULT_C_LARGE)
        assert assignment_grid(qubo_to_ising(problem).j) == (n_t, n_d, -0.5)
        assert type(qubo_to_ising(QuboProblem(problem.q)).j) is np.ndarray
        got = flexible_assign(s, sb_solver)
        want = both_built_first(s, sb_solver)
        assert np.array_equal(got.table_large, want.table_large)
        assert np.array_equal(got.table_small, want.table_small)
        assert (got.repairs, got.energy_large, got.energy_small) == (
            want.repairs, want.energy_large, want.energy_small
        )
        assert got.decisions == want.decisions
        assert got.unmatched_detections == want.unmatched_detections


def loop_arbitrate(table_large, table_small, s, s_min):
    """``_arbitrate`` written as per-row loops: the vectorized one's reference."""
    n_t, n_d = s.shape
    decisions = [None] * n_t
    claimed = np.zeros(n_d, dtype=bool)
    for t in range(n_t):
        hit = np.flatnonzero(table_large[t])
        if len(hit) == 1:
            d = int(hit[0])
            if s[t, d] < s_min:
                decisions[t] = TrackerDecision(TrackerState.UNMATCH)
            else:
                decisions[t] = TrackerDecision(TrackerState.MATCH, d)
                claimed[d] = True
    for t in range(n_t):
        if decisions[t] is not None:
            continue
        candidates = np.flatnonzero(claimed & (table_small[t] != 0))
        if len(candidates) > 0:
            d = int(candidates[np.argmax(s[t, candidates])])
            decisions[t] = TrackerDecision(TrackerState.POTENTIAL_MATCH, d)
        else:
            decisions[t] = TrackerDecision(TrackerState.UNMATCH)
    return decisions, np.flatnonzero(~claimed).tolist()


def random_table(rng, n_t, n_d, kind):
    if kind == "zeros":
        return np.zeros((n_t, n_d), dtype=np.int64)
    if kind == "one_to_one":
        # a partial matching, as a repaired strict table or ``hungarian`` gives
        table = np.zeros((n_t, n_d), dtype=np.int64)
        k = int(rng.integers(0, min(n_t, n_d) + 1))
        table[rng.permutation(n_t)[:k], rng.permutation(n_d)[:k]] = 1
        return table
    return (rng.uniform(size=(n_t, n_d)) < kind).astype(np.int64)


class TestArbitrate:
    def assert_matches_loop(self, table_large, table_small, s, s_min):
        got = _arbitrate(table_large, table_small, s, s_min)
        assert got == loop_arbitrate(table_large, table_small, s, s_min)
        assert all(type(d.detection) is int for d in got[0] if d.detection is not None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
        st.sampled_from(["zeros", "one_to_one", 0.05, 0.3]),
        st.sampled_from(["zeros", 0.1, 0.5, 1.0]),
        st.sampled_from(_QUANTIZED[:3] + ("uniform",)),
        st.sampled_from([float("-inf"), 0.0, 0.1, 0.3, 0.5]),
    )
    def test_identical_to_loop(self, n_t, n_d, seed, large_kind, small_kind, values, s_min):
        # quantized similarities make exact ties common, gates of 0.3 and up
        # fail many rows, and all-zero tolerant tables park no tracker
        rng = np.random.default_rng(seed)
        if values == "uniform":
            s = rng.uniform(size=(n_t, n_d))
        else:
            s = rng.choice(values, size=(n_t, n_d))
        table_large = random_table(rng, n_t, n_d, large_kind)
        table_small = random_table(rng, n_t, n_d, small_kind)
        self.assert_matches_loop(table_large, table_small, s, s_min)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(16, 64), st.integers(16, 64), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=4,
        ),
        st.sampled_from(["one_to_one", 0.05, 0.3]),
        st.sampled_from(["zeros", 0.1, 0.5]),
    )
    def test_shared_decisions_equal_fresh_ones(self, calls, large_kind, small_kind):
        # decisions are shared instances, grown from none here as the frames
        # widen; each must equal a freshly built one, and a list handed out
        # earlier must not change when later calls grow the shared ones
        handed_out = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assign, "_SHARED", {TrackerState.MATCH: [], TrackerState.POTENTIAL_MATCH: []})
            for n_t, n_d, seed in calls:
                rng = np.random.default_rng(seed)
                s = rng.choice((0.0, 0.2, 0.4, 0.6), size=(n_t, n_d))
                table_large = random_table(rng, n_t, n_d, large_kind)
                table_small = random_table(rng, n_t, n_d, small_kind)
                got = _arbitrate(table_large, table_small, s, 0.1)
                want = loop_arbitrate(table_large, table_small, s, 0.1)
                assert got == want
                handed_out.append((got, want))
        for got, want in handed_out:
            assert got == want

    @pytest.mark.parametrize("seed", range(4))
    def test_large_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        s = rng.choice((0.0, 0.2, 0.4), size=(n, n))
        table_large = random_table(rng, n, n, "one_to_one")
        for table_small in (random_table(rng, n, n, 0.3), random_table(rng, n, n, "zeros")):
            for s_min in (float("-inf"), 0.2):
                self.assert_matches_loop(table_large, table_small, s, s_min)


class TestHungarianAssign:
    def test_no_potential_state(self):
        result = hungarian_assign(np.array([[0.8], [0.7]]))
        states = [d.state for d in result.decisions]
        assert states == [TrackerState.MATCH, TrackerState.UNMATCH]

    def test_gating(self):
        result = hungarian_assign(np.array([[0.05]]), s_min=0.1)
        assert result.decisions[0].state is TrackerState.UNMATCH
        assert result.unmatched_detections == [0]


class TestOracleAgreement:
    def test_feasible_brute_force_matches_hungarian_value(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n_t = int(rng.integers(1, 4))
            n_d = int(rng.integers(1, 4))
            s = rng.uniform(0, 1, size=(n_t, n_d))
            problem, _ = build_assignment_qubo(s, c=1.0)
            bits, _ = brute_force_qubo(problem)
            table = bits.reshape(n_t, n_d)
            if check_one_to_one(table):
                hung = hungarian(s)
                assert float((s * table).sum()) == pytest.approx(float((s * hung).sum()))
