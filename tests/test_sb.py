"""Ballistic simulated-bifurcation dynamics and solver quality."""

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from flextrack import ising, sb
from flextrack.assign import build_assignment_qubo, repair_table
from flextrack.cli import main
from flextrack.ising import (
    IsingProblem,
    QuboProblem,
    brute_force_qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
    spins_to_bits,
)
from flextrack.sb import SbParams, solve_ising, solve_qubo
from oracles import assignment_grid, check_one_to_one, coupling_arrays, dense_coupling, dense_ising

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

def zero_problem(n):
    return IsingProblem(j=np.zeros((n, n)), h=np.zeros(n))


def random_problem(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, size=(n, n))
    j = (raw + raw.T) / 2
    np.fill_diagonal(j, 0.0)
    return IsingProblem(j=j, h=rng.uniform(-1, 1, size=n))


@dataclass(frozen=True)
class SbState:
    """Oscillator positions, momenta, the index of the next step, and whether
    the step that led here took every spin over the wall."""

    x: np.ndarray
    y: np.ndarray
    k: int = 0
    all_over: bool = False


def sb_step(state: SbState, p: IsingProblem, params: SbParams, coupling=None) -> SbState:
    """Advance the oscillator network by one time step: ``solve_ising``'s one-step reference.

    ``x`` holds one restart's positions, or several restarts' as the rows of
    one state. The coupling product is ``coupling @ x`` on one restart and
    the single matrix-matrix product ``x @ coupling`` on rows, with ``p.j``
    unless another form of the couplings is given.
    """
    if state.x.shape[-1:] != (p.n,) or state.y.shape != state.x.shape:
        raise ValueError(
            f"state dimension {state.x.shape} does not match problem size {p.n}"
        )
    j = p.j if coupling is None else coupling
    product = j @ state.x if state.x.ndim == 1 else state.x @ j
    pump = state.k / params.n_steps
    y = state.y + (
        -(1.0 - pump) * state.x - params.eta * p.h + params.c0 * product
    ) * params.dt
    x = state.x + y * params.dt
    over = np.abs(x) > 1.0
    if over.any():
        x = np.where(over, np.sign(x), x)
        y = np.where(over, 0.0, y)
    return SbState(x=x, y=y, k=state.k + 1, all_over=bool(over.all()))


def initial_state(shape, rng: np.random.Generator, init_noise: float) -> SbState:
    """Zero positions with small uniform momentum noise to break symmetry."""
    return SbState(x=np.zeros(shape), y=rng.uniform(-init_noise, init_noise, size=shape), k=0)


def initial_states(p, params):
    """The states the references step, with ``solve_ising``'s initial momenta:
    one per restart, or, for a dense ``J`` with several restarts, one whose
    rows are the restarts, stepped together through one product ``x @ J`` as
    ``solve_ising`` steps them."""
    rng = np.random.default_rng(params.seed)
    if params.restarts > 1 and type(p.j) is np.ndarray:
        return [initial_state((params.restarts, p.n), rng, params.init_noise)]
    return [initial_state(p.n, rng, params.init_noise) for _ in range(params.restarts)]


def sb_step_loop(p, params):
    """``solve_ising`` written as a loop of ``sb_step`` calls: the fused loop's reference.

    The product is ``coupling @ x`` on the form the problem holds ``j`` in, so
    on an assignment coupling it is that coupling's own; several restarts on
    a dense ``j`` step together as
    rows (:func:`initial_states`). It runs
    all ``n_steps`` steps, so it is also the oracle of the fused loop's stop
    once the state is frozen at the wall.

    Returns the spins (``None`` if no restart's energy is finite), the final
    positions of every restart, and the number of steps the fused loop should
    run: up to the first step at which every restart repeats the clipped state
    of the step before, both steps having taken every spin over the wall.
    """
    coupling = p.j
    best_spins, best_energy = None, np.inf
    positions, repeats = [], []
    for state in initial_states(p, params):
        repeated = []
        for _ in range(params.n_steps):
            after = sb_step(state, p, params, coupling)
            repeated.append(after.all_over and state.all_over and np.array_equal(after.x, state.x))
            state = after
        repeats.append(repeated)
        positions.extend(np.atleast_2d(state.x))
    for x in positions:
        spins = np.where(x >= 0.0, 1, -1)
        energy = ising_energy(p, spins)
        if energy < best_energy and np.isfinite(energy):
            best_spins, best_energy = spins, energy
    steps = next((k + 1 for k, rows in enumerate(zip(*repeats)) if all(rows)), params.n_steps)
    return best_spins, positions, steps


def fused_loop(p, params):
    """``solve_ising``'s spins and the final positions of every restart; the
    spins are ``None`` when it raises because no restart's energy is finite."""
    positions = []
    digitize = sb._digitize

    def recording_digitize(x):
        positions.append(x.copy())
        return digitize(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb, "_digitize", recording_digitize)
        try:
            spins = solve_ising(p, params)
        except ValueError as exc:
            assert "no restart reached a finite Ising energy" in str(exc)
            spins = None
    return spins, positions


def per_restart_loop(p, params):
    """The fused loop run once per restart, as ``solve_ising`` ran before its
    restarts became rows of one state: the stacked loop's oracle on any product.
    Several restarts on a dense ``j`` are the exception: they step together as
    rows through one product ``x @ j`` (:func:`initial_states`).

    It runs all ``n_steps`` steps, so it is also the oracle of the fused loop's
    stop once the state is frozen at the wall.

    Returns the spins (``None`` if no restart's energy is finite) and the final
    positions of every restart.
    """
    c0, dt = params.c0, params.dt
    coupling = p.j
    detuning = [-(1.0 - k / params.n_steps) for k in range(params.n_steps)]
    eta_h = params.eta * p.h
    best_spins, best_energy = None, np.inf
    positions = []
    for state in initial_states(p, params):
        x, y = state.x, state.y
        for neg_detune in detuning:
            force = coupling @ x if x.ndim == 1 else x @ coupling
            force *= c0
            kick = neg_detune * x
            kick -= eta_h
            kick += force
            kick *= dt
            y += kick
            x += y * dt
            over = np.abs(x) > 1.0
            np.copysign(1.0, x, out=x, where=over)
            y[over] = 0.0
        positions.extend(np.atleast_2d(x))
    for x in positions:
        spins = sb._digitize(x)
        energy = ising_energy(p, spins)
        if energy < best_energy and np.isfinite(energy):
            best_spins, best_energy = spins, energy
    return best_spins, positions


def assert_same_run(fused, reference):
    assert (fused[0] is None) == (reference[0] is None)
    assert np.array_equal(fused[0], reference[0])
    assert [x.tobytes() for x in fused[1]] == [x.tobytes() for x in reference[1]]


def sparse_similarity(n, density, seed):
    """An n x n IOU-like matrix: a fraction ``density`` of pairs overlap, the rest are 0."""
    rng = np.random.default_rng(seed)
    return np.where(rng.uniform(size=(n, n)) < density, rng.uniform(0.05, 0.95, (n, n)), 0.0)


def ising_in_form(problem, form):
    """``qubo_to_ising(problem)`` with the coupling in a given form: as
    ``build_assignment_qubo`` gives it (``"assignment"`` above 362 spins), or
    ``"dense"``."""
    if form == "assignment":
        return qubo_to_ising(problem)
    return dense_ising(problem)


def strict_outcomes(s, params, form):
    """(repair-free, optimal after repair) for the strict SB table, with the
    coupling in ``form`` (:func:`ising_in_form`)."""
    problem, _ = build_assignment_qubo(s, 1.0)
    p = ising_in_form(problem, form)
    bits = spins_to_bits(solve_ising(p, params))
    table, repairs = repair_table(bits.reshape(s.shape), s)
    rows, cols = linear_sum_assignment(s, maximize=True)
    return repairs == 0, (s * table).sum() >= s[rows, cols].sum() - 1e-9


class TestSbStep:
    def test_hand_evaluated_step(self):
        # single oscillator pulled by a negative bias, defaults
        p = IsingProblem(j=[[0.0]], h=[-1.0])
        state = SbState(x=np.zeros(1), y=np.zeros(1), k=0)
        after = sb_step(state, p, SbParams())
        assert after.y[0] == pytest.approx(0.8 * 0.3, rel=1e-12)  # -eta*h*dt
        assert after.x[0] == pytest.approx(0.8 * 0.3 * 0.3, rel=1e-12)
        assert after.k == 1

    def test_wall_clamps_overshoot(self):
        state = SbState(x=np.array([1.5]), y=np.array([0.0]), k=0)
        after = sb_step(state, zero_problem(1), SbParams())
        assert after.x[0] == 1.0 and after.y[0] == 0.0

    def test_wall_clamps_momentum_overshoot(self):
        state = SbState(x=np.array([0.9]), y=np.array([10.0]), k=0)
        after = sb_step(state, zero_problem(1), SbParams())
        assert after.x[0] == 1.0 and after.y[0] == 0.0

    def test_zero_fixed_point(self):
        state = SbState(x=np.zeros(3), y=np.zeros(3), k=0)
        for _ in range(50):
            state = sb_step(state, zero_problem(3), SbParams())
        assert np.all(state.x == 0.0) and np.all(state.y == 0.0)

    def test_dimension_mismatch(self):
        state = SbState(x=np.zeros(2), y=np.zeros(2), k=0)
        with pytest.raises(ValueError, match="dimension"):
            sb_step(state, zero_problem(3), SbParams())

    def test_wall_invariant_through_run(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-1, 1, size=(12, 12))
        j = (raw + raw.T) / 2
        np.fill_diagonal(j, 0.0)
        p = IsingProblem(j=j, h=rng.uniform(-1, 1, size=12))
        params = SbParams(seed=5)
        state = SbState(x=np.zeros(12), y=rng.uniform(-0.1, 0.1, size=12), k=0)
        for _ in range(params.n_steps):
            state = sb_step(state, p, params)
            assert np.max(np.abs(state.x)) <= 1.0
            # a position sitting exactly on the wall was just clamped
            assert np.all((np.abs(state.x) < 1.0) | (state.y == 0.0))


class TestSolveIsing:
    def test_single_spin_follows_bias(self):
        spins = solve_ising(IsingProblem(j=[[0.0]], h=[-1.0]), SbParams())
        assert np.array_equal(spins, [1])

    def test_ferromagnetic_ground_pair(self):
        p = IsingProblem(j=[[0.0, 1.0], [1.0, 0.0]], h=[0.0, 0.0])
        spins = solve_ising(p, SbParams())
        assert abs(spins.sum()) == 2  # aligned either way
        assert ising_energy(p, spins) == pytest.approx(-1.0)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(-1, 1, size=(10, 10))
        j = (raw + raw.T) / 2
        np.fill_diagonal(j, 0.0)
        p = IsingProblem(j=j, h=rng.uniform(-1, 1, size=10))
        a = solve_ising(p, SbParams(seed=123))
        b = solve_ising(p, SbParams(seed=123))
        assert np.array_equal(a, b)

    def test_restarts_never_worse(self):
        rng = np.random.default_rng(13)
        raw = rng.uniform(-1, 1, size=(10, 10))
        j = (raw + raw.T) / 2
        np.fill_diagonal(j, 0.0)
        p = IsingProblem(j=j, h=rng.uniform(-1, 1, size=10))
        single = ising_energy(p, solve_ising(p, SbParams(seed=1)))
        multi = ising_energy(p, solve_ising(p, SbParams(seed=1, restarts=5)))
        assert multi <= single + 1e-12

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_no_finite_energy_raises(self, restarts):
        # finite couplings and biases whose energies overflow to -inf or nan
        p = IsingProblem(j=[[0.0, 1e308], [1e308, 0.0]], h=[1e308, 1e308])
        with pytest.raises(ValueError, match="no restart reached a finite Ising energy"):
            solve_ising(p, SbParams(restarts=restarts))

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 400])
    def test_overflow_raises_without_a_warning(self, restarts, n):
        # as above, and at n = 3 and 400 (a sparse coupling, stored dense) the coupling product
        # overflows too; a warning would be an error under the test settings
        j = np.zeros((n, n))
        j[:3, :3] = 1e308 if n == 2 else 1.7e308
        np.fill_diagonal(j, 0.0)
        p = IsingProblem(j=j, h=np.full(n, 1e308) if n == 2 else np.zeros(n))
        with pytest.raises(ValueError, match="no restart reached a finite Ising energy"):
            solve_ising(p, SbParams(restarts=restarts))

    def test_quality_invariant_up_to_16_vars(self):
        # never better than the oracle; matches it on at least 90% of instances
        hits = 0
        for i in range(200):
            n = 2 + (i % 15)
            rng = np.random.default_rng(i)
            p = QuboProblem(rng.uniform(-1, 1, size=(n, n)))
            _, best = brute_force_qubo(p)
            _, got = solve_qubo(p, SbParams(seed=i))
            assert got >= best - 1e-9
            hits += abs(got - best) < 1e-9
        assert hits >= 180


class TestSolveQubo:
    def test_single_variable(self):
        bits, energy = solve_qubo(QuboProblem([[-2.5]]), SbParams())
        assert np.array_equal(bits, [1]) and energy == pytest.approx(-2.5)

    def test_all_zero_problem(self):
        _, energy = solve_qubo(QuboProblem(np.zeros((2, 2))), SbParams())
        assert energy == 0.0

    def test_assignment_instance_with_offset(self):
        # two trackers fighting over one detection at the tolerant weight
        problem, dropped = build_assignment_qubo(np.array([[0.8], [0.7]]), c=0.1)
        bits, energy = solve_qubo(problem, SbParams())
        assert np.array_equal(bits, [1, 1])
        assert energy + dropped == pytest.approx(-1.4)

    def test_overflowing_qubo_energy_raises(self):
        # every Ising energy is finite, but the chosen bits 1010 sum three
        # entries to -2e308
        q = np.zeros((4, 4))
        q[0, 0], q[1, 0], q[1, 2], q[2, 0], q[2, 2], q[3, 2] = -8e307, 4e307, 8e307, -8e307, -4e307, 4e307
        with pytest.raises(ValueError, match="QUBO energy overflows"):
            solve_qubo(QuboProblem(q), SbParams())

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            SbParams(dt=0.0)
        with pytest.raises(ValueError):
            SbParams(n_steps=0)
        with pytest.raises(ValueError):
            SbParams(restarts=0)

    @pytest.mark.parametrize("name", ["n_steps", "restarts", "seed"])
    @pytest.mark.parametrize("value", [10.0, 2.0, True, False, "3", None])
    def test_counts_and_seed_must_be_ints(self, name, value):
        # a float would be rejected only inside the solve, and a bool taken as 0 or 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SbParams(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SbParams(seed=-1)

    def test_init_noise_range_must_be_finite(self):
        # the momenta are drawn from [-init_noise, init_noise], a range
        # 2 * init_noise wide, which numpy's uniform draw must represent
        half = np.finfo(np.float64).max / 2
        for bad in (1e308, np.nextafter(half, np.inf)):
            with pytest.raises(ValueError, match="init_noise"):
                SbParams(init_noise=bad)
        spins = solve_ising(IsingProblem(j=[[0.0]], h=[-1.0]), SbParams(init_noise=half, seed=1))
        assert spins.shape == (1,)


def exponent_entries(rng, shape, exponent):
    """Entries of random sign and magnitude between 10**(exponent - 3) and 10**exponent."""
    return rng.choice((-1.0, 1.0), shape) * 10.0 ** (exponent - rng.uniform(0, 3, shape))


class TestErrorState:
    """A solve ignores floating-point errors whatever the caller's NumPy error
    state, so the state changes neither its spins nor its error, and it never
    warns (a warning is an error under the test settings)."""

    @staticmethod
    def outcome(p, params, **state):
        with np.errstate(**state):
            try:
                return solve_ising(p, params).tolist()
            except ValueError as exc:
                return str(exc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        j_exp=st.integers(-300, 308),
        h_exp=st.integers(-300, 308),
        dt=st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 7.0, 100.0, 1e150]),
        scale=st.sampled_from([1e-300, 1e-10, 0.8, 1.0, 40.0]),
        noise=st.sampled_from([0.0, 0.1, 1e300, 1e307]),
        restarts=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    # couplings and biases near 1e-300 with tiny c0 and eta: every force underflows
    @example(n=2, j_exp=-300, h_exp=-300, dt=0.3, scale=1e-10, noise=0.1, restarts=1, seed=0)
    # steps far from the float range, energies past it: tiny c0 and eta, huge h
    @example(n=12, j_exp=0, h_exp=308, dt=0.3, scale=1e-300, noise=0.1, restarts=1, seed=1)
    # couplings whose product overflows
    @example(n=12, j_exp=308, h_exp=0, dt=0.3, scale=0.8, noise=0.1, restarts=2, seed=0)
    # momenta drawn near the float range, moved by a long step
    @example(n=4, j_exp=0, h_exp=0, dt=100.0, scale=0.8, noise=1e307, restarts=1, seed=0)
    def test_same_outcome_under_any_error_state(self, n, j_exp, h_exp, dt, scale, noise, restarts, seed):
        rng = np.random.default_rng(seed)
        raw = exponent_entries(rng, (n, n), j_exp)
        j = np.triu(raw, 1) + np.triu(raw, 1).T
        p = IsingProblem(j=j, h=exponent_entries(rng, n, h_exp))
        params = SbParams(c0=scale, eta=-scale, dt=dt, init_noise=noise, seed=seed, restarts=restarts)
        assert self.outcome(p, params, all="raise") == self.outcome(p, params)


class TestFusedLoop:
    @pytest.mark.parametrize(
        "n,params",
        [
            (1, SbParams(seed=1)),
            (6, SbParams(seed=6, restarts=3, n_steps=150)),
            (12, SbParams(seed=12, c0=0.5, eta=1.3, dt=0.35, init_noise=0.3)),
            (30, SbParams(seed=30, restarts=2, n_steps=150)),
            # short runs end with positions off the wall, where rounding shows
            (12, SbParams(seed=4, c0=0.5, eta=1.3, dt=0.35, n_steps=30)),
            (30, SbParams(seed=7, restarts=2, n_steps=20)),
            # three rows of 256 spins, an odd row count, through one product
            (256, SbParams(seed=3, restarts=3, n_steps=20)),
        ],
    )
    def test_bit_identical_to_sb_step_loop(self, n, params):
        p = random_problem(n, seed=n)
        assert_same_run(fused_loop(p, params), sb_step_loop(p, params))

    @pytest.mark.parametrize("c", [0.1, 1.0])
    def test_bit_identical_on_dense_assignment_coupling(self, c):
        s = sparse_similarity(12, 0.2, seed=12)
        p = qubo_to_ising(build_assignment_qubo(s, c)[0])
        params = SbParams(seed=5, restarts=2, n_steps=60)
        assert_same_run(fused_loop(p, params), sb_step_loop(p, params))


class TestStackedRestarts:
    """Restarts run as the rows of one state, bit for bit as when run one by one
    on the assignment coupling, and as rows stepped together through one
    product ``x @ J`` on a dense ``J``."""

    @pytest.mark.parametrize("m,restarts", [(20, 3), (24, 4), (28, 3)])
    def test_assignment_rows_bit_identical_to_per_restart_loop(self, m, restarts):
        s = sparse_similarity(m, 0.1, seed=m)
        p = qubo_to_ising(build_assignment_qubo(s, 1.0)[0])
        assert assignment_grid(p.j) == (m, m, -0.5)
        params = SbParams(seed=m, restarts=restarts, n_steps=120)
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    @pytest.mark.parametrize("n,restarts", [(5, 1), (5, 3), (256, 4)])
    def test_dense_rows_bit_identical_to_per_restart_loop(self, n, restarts):
        p = qubo_to_ising(QuboProblem(np.random.default_rng(n).normal(size=(n, n))))
        params = SbParams(seed=n, restarts=restarts, n_steps=60)
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    def test_earliest_restart_wins_a_tie(self):
        # both aligned states are ground states; the seeds land restarts on either
        p = IsingProblem(j=[[0.0, 1.0], [1.0, 0.0]], h=[0.0, 0.0])
        split = 0
        for seed in range(6):
            spins, positions = fused_loop(p, SbParams(seed=seed, restarts=3))
            rows = [sb._digitize(x) for x in positions]
            assert {ising_energy(p, r) for r in rows} == {-1.0}
            assert np.array_equal(spins, rows[0])
            split += any(not np.array_equal(r, rows[0]) for r in rows[1:])
        assert split >= 3


# SbParams at and past both ends of the float range, for TestFloatRange; the
# exponents favour the ends, where forces and biases overflow or underflow
EXPONENTS = st.sampled_from([308, 300, -300]) | st.integers(-300, 308)
EXTREME_PARAMS = dict(
    j_exp=EXPONENTS,
    h_exp=EXPONENTS,
    dt=st.sampled_from([1e-300, 1e-3, 0.3, 7.0, 1e150]),
    c0=st.sampled_from([1e300, 1e150, 0.8, 1e-300]),
    eta=st.sampled_from([1e300, -1e300, 1e150, -0.8, 0.8, 1e-300]),
    noise=st.sampled_from([0.0, 0.1, 1e300]),
    n_steps=st.sampled_from([7, 60, 400]),
    restarts=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)


class TestFloatRange:
    """The fused loop against its oracles at both ends of the float range, on
    trajectories that overflow to inf and NaN or underflow: the same spins, or
    the same "no finite energy" error, and the same final positions byte for byte.
    Couplings and biases have random signs and magnitudes within three decades
    below ``10**j_exp`` and ``10**h_exp``."""

    @staticmethod
    def assert_same_as(oracle, raw, h_exp, c0, eta, dt, noise, n_steps, restarts, seed, rng):
        j = np.triu(raw, 1) + np.triu(raw, 1).T
        p = IsingProblem(j=j, h=exponent_entries(rng, j.shape[0], h_exp))
        params = SbParams(c0=c0, eta=eta, dt=dt, n_steps=n_steps, restarts=restarts, seed=seed,
                          init_noise=noise)
        with np.errstate(all="ignore"):
            fused, reference = fused_loop(p, params), oracle(p, params)[:2]
        assert_same_run(fused, reference)
        return p

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), **EXTREME_PARAMS)
    # forces and biases past the float range: kicks of inf - inf leave NaN spins
    @example(n=12, j_exp=308, h_exp=308, dt=0.3, c0=40.0, eta=40.0, noise=0.1, n_steps=400,
             restarts=2, seed=0)
    # a long step throws every position past the float range at once
    @example(n=5, j_exp=0, h_exp=0, dt=1e150, c0=0.8, eta=0.8, noise=0.1, n_steps=7,
             restarts=1, seed=0)
    # couplings and biases that underflow in every product
    @example(n=12, j_exp=-300, h_exp=-300, dt=1e-300, c0=1e-300, eta=1e-300, noise=0.1,
             n_steps=60, restarts=3, seed=0)
    def test_dense_equals_sb_step_loop(self, n, j_exp, **params):
        rng = np.random.default_rng(params["seed"])
        p = self.assert_same_as(sb_step_loop, exponent_entries(rng, (n, n), j_exp), rng=rng, **params)
        assert type(p.j) is np.ndarray

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_t=st.integers(20, 24), n_d=st.integers(20, 24), **EXTREME_PARAMS)
    @example(n_t=20, n_d=24, j_exp=308, h_exp=308, dt=0.3, c0=40.0, eta=40.0, noise=0.1,
             n_steps=60, restarts=3, seed=0)
    @example(n_t=20, n_d=20, j_exp=0, h_exp=0, dt=1e150, c0=0.8, eta=0.8, noise=1e300,
             n_steps=60, restarts=1, seed=0)
    @example(n_t=24, n_d=21, j_exp=-300, h_exp=-300, dt=1e-300, c0=1e-300, eta=1e-300,
             noise=0.1, n_steps=60, restarts=2, seed=0)
    def test_assignment_shaped_dense_equals_per_restart_loop(self, n_t, n_d, j_exp, **params):
        # an assignment-shaped coupling above 362 spins: pairs that share a
        # tracker or a detection, given without a grid, so stored dense
        rng = np.random.default_rng(params["seed"])
        t, d = np.divmod(np.arange(n_t * n_d), n_d)
        shared = (t[:, None] == t) | (d[:, None] == d)
        raw = np.where(shared, exponent_entries(rng, shared.shape, j_exp), 0.0)
        p = self.assert_same_as(per_restart_loop, raw, rng=rng, **params)
        assert type(p.j) is np.ndarray

    @pytest.mark.parametrize("layout", ["row", "stacked", "transposed"])
    def test_wall_clip_is_copysign_on_special_floats(self, layout):
        # the loop's wall (clip by minimum and maximum, zero momenta by putmask)
        # against the sign copy onto the spins over the wall, on the layouts
        # the loop steps, one row and stacked rows, and on transposed rows
        nan_bits = np.array([0x7FF8000000000123, 0xFFF8000000000000], dtype=np.uint64)
        big = np.nextafter(1.0, 2.0)
        values = np.r_[-0.0, 0.0, 1.0, -1.0, big, -big, 1e308, -1e308, np.inf, -np.inf,
                       np.nan, -np.nan, nan_bits.view(np.float64), 0.5, -5e-324]

        def laid_out(v):
            if layout == "row":
                return v.copy()
            if layout == "stacked":
                return np.stack([v, v[::-1]])
            return np.stack([v, v[::-1]]).T

        x, y = laid_out(values), laid_out(np.arange(1.0, values.size + 1))
        want_x, want_y = x.copy(), y.copy()
        over = np.abs(x) > 1.0
        np.copysign(1.0, want_x, out=want_x, where=over)
        want_y[over] = 0.0
        one, minus_one, zero = np.array(1.0), np.array(-1.0), np.array(0.0)
        np.minimum(x, one, out=x)
        np.maximum(x, minus_one, out=x)
        np.putmask(y, over, zero)
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


def counted_solve(p, params):
    """``solve_ising``'s spins and the number of steps it ran, counted by
    wrapping the product entry it chose (:func:`entry_solve`)."""
    spins, _, steps, _ = entry_solve(p, params)
    return spins, steps


def entry_solve(p, params):
    """``solve_ising``'s spins, final positions, the number of steps it ran and
    the name of the product entry it chose, with that entry left in place.

    The entries are ``assignment_product`` (an assignment coupling), ``dot``
    (a dense ``J``, one restart) and ``dot_rows`` (a dense ``J``, several
    restarts). Every form must get one C-contiguous state: ``(n,)`` for one
    restart, else ``(restarts, n)`` rows.
    """
    names, steps = [], []
    choose = sb._product
    shape = (p.n,) if params.restarts == 1 else (params.restarts, p.n)

    def counting(coupling, x):
        assert x.shape == shape and x.flags.c_contiguous
        product = choose(coupling, x)
        names.append(product.__name__)

        def counted(x):
            steps.append(None)
            return product(x)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb, "_product", counting)
        spins, positions = fused_loop(p, params)
    return spins, positions, len(steps), names[0]


def laid_out(p, layout):
    """``p`` with its dense couplings in C order or in Fortran order, stored
    unchecked (the validating constructor would copy them to C order). An
    assignment coupling has no layout and is returned as it is."""
    if layout == "C" or type(p.j) is not np.ndarray:
        return p
    return IsingProblem._from_symmetric(np.asfortranarray(p.j), p.h, p.offset)


class TestFrozenStop:
    """``solve_ising`` stops once two steps in a row took every spin over the wall
    to the same clipped state; it must return what the full ``n_steps`` run returns."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        frame=st.sampled_from([None, 16, 24]),
        n=st.integers(1, 40),
        c=st.sampled_from([0.1, 1.0]),
        density=st.sampled_from([0.1, 0.3]),
        restarts=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(frame=16, n=1, c=1.0, density=0.3, restarts=1, seed=0)
    @example(frame=24, n=1, c=1.0, density=0.1, restarts=4, seed=0)
    @example(frame=24, n=1, c=0.1, density=0.3, restarts=2, seed=0)
    def test_byte_equal_to_full_length_oracle(self, frame, n, c, density, restarts, seed):
        # frame None: a random dense problem of n spins; 16 and 24: an m x m
        # assignment frame at weight c (256 spins dense, 576 spins the
        # assignment coupling)
        if frame is None:
            p = random_problem(n, seed)
        else:
            s = sparse_similarity(frame, density, seed)
            p = qubo_to_ising(build_assignment_qubo(s, c)[0])
        params = SbParams(seed=seed, restarts=restarts)
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    def test_wall_crossing_flip(self):
        # an antiferromagnetic pair kicked over the wall together: every step
        # takes both spins over, to the opposite wall each time, so the state
        # never repeats and the solve runs to the end (an odd step count ends on +1)
        p = IsingProblem(j=[[0.0, -100.0], [-100.0, 0.0]], h=[-20.0, -20.0])
        params = SbParams(n_steps=41)
        spins, steps = counted_solve(p, params)
        assert steps == 41 and np.array_equal(spins, [1, 1])
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    def test_outward_kick_too_small_to_move_the_wall(self):
        # one free spin thrown over the wall at step 0; at step 1 its outward
        # kick is one ulp of the detuning, and 1 + kick * dt rounds to 1.0: the
        # spin is not over and keeps that momentum, so steps 2 and 3 are the
        # first two all-over steps
        params = SbParams(eta=1.0, init_noise=10.0, seed=4)
        assert np.random.default_rng(params.seed).uniform(-10.0, 10.0) > 3.5
        neg_detune = -(1.0 - 1 / params.n_steps)
        h = np.nextafter(neg_detune, -np.inf)
        kick = (neg_detune - h) * params.dt
        assert kick > 0.0 and 1.0 + kick * params.dt == 1.0
        p = IsingProblem(j=[[0.0]], h=[h])
        spins, steps = counted_solve(p, params)
        assert steps == 4 and np.array_equal(spins, [1])
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    def test_spin_landing_on_the_wall_keeps_its_momentum(self):
        # step 0 lands the spin exactly on x = 1.0 with y = 2, not over; its
        # momentum carries it over at step 1 against the bias, which then pulls
        # it to -1. Counting |x| == 1 as over would stop on +1 after step 1.
        params = SbParams(eta=1.0, dt=0.5, init_noise=5.0, seed=5)
        y0 = np.random.default_rng(params.seed).uniform(-5.0, 5.0)
        assert 2.0 < y0 < 3.5
        h = 2.0 * (y0 - 2.0)  # so that y0 - h * dt == 2.0 and 2.0 * dt == 1.0 exactly
        p = IsingProblem(j=[[0.0]], h=[h])
        spins, steps = counted_solve(p, params)
        assert steps == 5 and np.array_equal(spins, [-1])
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    def test_stop_fires_on_a_strict_paper_frame(self):
        rng = np.random.default_rng(0)
        overlaps = np.where(rng.uniform(size=(5, 5)) < 0.2, rng.uniform(0.05, 0.3, (5, 5)), 0.0)
        s = 0.7 * np.eye(5) + overlaps
        p = qubo_to_ising(build_assignment_qubo(s, 1.0)[0])
        params = SbParams()
        spins, steps = counted_solve(p, params)
        assert steps < params.n_steps
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))
        assert np.array_equal(spins_to_bits(spins).reshape(5, 5), np.eye(5))


class TestProductEntries:
    """``solve_ising`` calls the coupling product through one of three entries:
    the assignment coupling's own product into the solve's buffers; ``J.dot``
    for a dense ``J`` with one restart; one matrix-matrix product into the
    solve's buffer for the rows of several restarts on a dense ``J``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        layout=st.sampled_from(["C", "F"]),
        frame=st.sampled_from([None, (19, 19), (19, 20), (20, 20)]),
        form=st.sampled_from(["assignment", "dense"]),
        n=st.integers(1, 40),
        restarts=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    @example(layout="C", frame=None, form="dense", n=25, restarts=1, seed=0)
    @example(layout="F", frame=None, form="dense", n=25, restarts=1, seed=0)
    @example(layout="F", frame=(19, 19), form="assignment", n=1, restarts=1, seed=0)
    @example(layout="C", frame=(20, 20), form="dense", n=1, restarts=4, seed=0)
    @example(layout="C", frame=(19, 20), form="assignment", n=1, restarts=1, seed=0)
    @example(layout="C", frame=(20, 20), form="assignment", n=1, restarts=4, seed=0)
    def test_spins_and_stop_step_equal_the_reference(self, layout, frame, form, n, restarts, seed):
        # frame None: a random dense problem of n spins; otherwise an n_t x n_d
        # assignment frame at c = 1: 361 spins dense, 380 and 400 spins in
        # ``form`` (the assignment coupling, or dense)
        if frame is None:
            p = random_problem(n, seed)
        else:
            rng = np.random.default_rng(seed)
            s = np.where(rng.uniform(size=frame) < 0.1, rng.uniform(0.05, 0.95, frame), 0.0)
            p = ising_in_form(build_assignment_qubo(s, 1.0)[0], form)
        p = laid_out(p, layout)
        large = frame is not None and frame != (19, 19)
        params = SbParams(seed=seed, restarts=restarts)
        spins, positions, steps, entry = entry_solve(p, params)
        want_spins, want_positions, want_steps = sb_step_loop(p, params)
        assert_same_run((spins, positions), (want_spins, want_positions))
        assert steps == want_steps
        if large and form == "assignment":
            assert entry == "assignment_product"
        else:
            assert entry == ("dot_rows" if restarts > 1 else "dot")

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_dense_dot_is_matmul_bit_for_bit(self, layout):
        p = laid_out(random_problem(25, seed=3), layout)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, p.n)
            product = sb._product(p.j, x)
            assert product.__name__ == "dot"
            assert product(x).tobytes() == (p.j @ x).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 400), rows=st.integers(2, 8), seed=st.integers(0, 2**16))
    @example(n=256, rows=4, seed=0)
    @example(n=256, rows=3, seed=0)
    @example(n=400, rows=8, seed=0)
    @example(n=1, rows=2, seed=0)
    def test_dense_rows_stay_independent_trajectories(self, n, rows, seed):
        # the rows of several restarts on a C-ordered dense J take one
        # matrix-matrix product: the bits of x @ J, where each row's bits
        # depend on that row alone, and where a zero position against an
        # infinite coupling gives NaN as the one-row product J @ x does
        rng = np.random.default_rng(seed)
        j = random_problem(n, seed).j
        assert j.flags.c_contiguous
        x = rng.uniform(-1.5, 1.5, (rows, n))
        x[rng.uniform(size=x.shape) < 0.3] = rng.choice((-1.0, 1.0))
        product = sb._product(j, x)
        assert product.__name__ == "dot_rows"
        got = product(x).copy()
        assert got.tobytes() == (x @ j).tobytes()
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e308])
        with np.errstate(all="ignore"):
            for i in range(rows):
                others = rng.uniform(-1.5, 1.5, x.shape)
                others[rng.uniform(size=x.shape) < 0.2] = rng.choice(specials)
                others[i] = x[i]
                assert product(others)[i].tobytes() == got[i].tobytes()
            k, m = rng.integers(n, size=2)
            j[k, m] = j[m, k] = np.inf
            x[:, k] = 0.0
            stepped = sb._product(j, x)(x)
            one_by_one = np.stack([j @ row for row in x])
        assert np.isnan(stepped[:, m]).all()
        assert np.array_equal(np.isnan(stepped), np.isnan(one_by_one))

    def test_schedule_is_built_once_per_length(self):
        assert sb._schedule(400) is sb._schedule(400)
        # only the last length is kept: a long schedule is large
        sb._schedule(7)
        sb._schedule(400)
        assert sb._schedule.cache_info().currsize == 1
        assert sb._schedule(3) == (-1.0, -(1.0 - 1 / 3), -(1.0 - 2 / 3))
        # read-only 0-d float64 entries, as built after solves that throw every
        # position to inf before the wall, and solves whose steps underflow
        p = random_problem(6, seed=6)
        solve_ising(p, SbParams(n_steps=7, c0=1e300, eta=1e300, dt=1e150, restarts=3))
        solve_ising(p, SbParams(c0=1e-300, eta=1e-300, dt=1e-300))
        for n in (3, 7, 400):
            schedule = sb._schedule(n)
            assert len(schedule) == n
            for k, entry in enumerate(schedule):
                assert type(entry) is np.ndarray and entry.shape == () and entry.dtype == np.float64
                assert not entry.flags.writeable
                assert entry.tobytes() == np.float64(-(1.0 - k / n)).tobytes()


class TestCouplingProduct:
    @pytest.mark.parametrize("m,closed_form", [(5, False), (19, False), (20, True), (24, True)])
    def test_assignment_coupling(self, m, closed_form):
        # above 362 spins the assignment coupling, dense below; the same matrix
        # without its grid is dense at every size
        problem, _ = build_assignment_qubo(sparse_similarity(m, 0.1, seed=m), 1.0)
        product = qubo_to_ising(problem).j
        assert (assignment_grid(product) == (m, m, -0.5)) == closed_form
        assert (type(product) is np.ndarray) != closed_form
        untagged = qubo_to_ising(QuboProblem(problem.q)).j
        assert type(untagged) is np.ndarray
        j = dense_coupling(problem)
        x = np.random.default_rng(m).uniform(-1, 1, j.shape[0])
        for got in (product, untagged):
            assert np.allclose(got @ x, j @ x, rtol=0, atol=1e-12)

    def test_crowd_scenario_takes_the_sparse_product(self, tmp_path, monkeypatch):
        # the scene the byte-identity check runs at crowd scale must reach the
        # assignment coupling: each of its 43 assigned frames (all but the
        # first of 44) is above 362 spins
        prefix = str(tmp_path / "crowd")
        spec = str(SCENARIOS / "crowd24_overtakes.txt")
        assert main(["simulate", spec, "--seed", "1", "-o", prefix]) == 0
        kinds = []
        choose = sb._product

        def recording(coupling, x):
            kinds.append(type(coupling).__name__)
            return choose(coupling, x)

        monkeypatch.setattr(sb, "_product", recording)
        assert main(["track", prefix + ".det.txt", "-o", prefix + ".out.txt"]) == 0
        assert kinds == ["_AssignmentCoupling"] * (2 * 43)

    def test_dense_coupling_stays_dense(self):
        p = random_problem(400, seed=1)
        assert type(p.j) is np.ndarray


def assert_same_coupling(problem, seed):
    """Both constructors store a QUBO without a grid as its dense coupling,
    type, dtype and bytes, at every size and fill."""
    want = dense_coupling(problem)
    h = problem.q.sum(axis=1) / 2.0
    for got in (qubo_to_ising(problem).j, IsingProblem(want, h).j):
        assert coupling_arrays(got) == coupling_arrays(want)
        x = np.random.default_rng(seed).uniform(-1, 1, want.shape[0])
        assert np.array_equal(got @ x, want @ x)


def symmetric_with_nonzeros(n, pairs, seed, tiny=0):
    """An n x n symmetric coupling, zero diagonal, with ``2 * pairs`` nonzero
    entries and ``2 * tiny`` more of magnitude the smallest subnormal."""
    rng = np.random.default_rng(seed)
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    at = rng.choice(upper, size=pairs + tiny, replace=False)
    j = np.zeros(n * n)
    j[at[:pairs]] = rng.uniform(0.1, 1.0, pairs) * rng.choice((-1.0, 1.0), pairs)
    j[at[pairs:]] = np.finfo(np.float64).smallest_subnormal * rng.choice((-1.0, 1.0), tiny)
    j = j.reshape(n, n)
    return j + j.T


class TestCouplingOracle:
    """``qubo_to_ising`` and ``IsingProblem`` build a 64-byte-aligned dense
    ``q * -0.5`` with a zero diagonal; ``qubo_to_ising`` gives an assignment
    QUBO above 362 spins, ``c = 0`` included, the assignment coupling instead."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(1, 40),
        n_d=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.05, 0.15, 0.5, 1.0]),
        c=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @example(n_t=40, n_d=40, density=0.1, c=1.0, seed=0)
    @example(n_t=19, n_d=19, density=0.1, c=1.0, seed=0)
    @example(n_t=20, n_d=19, density=0.1, c=1.0, seed=0)
    def test_assignment_couplings(self, n_t, n_d, density, c, seed):
        rng = np.random.default_rng(seed)
        s = np.where(rng.uniform(size=(n_t, n_d)) < density, rng.uniform(size=(n_t, n_d)), 0.0)
        problem = build_assignment_qubo(s, c)[0]
        # the same matrix without its grid is dense
        assert_same_coupling(QuboProblem(problem.q), seed)
        got = qubo_to_ising(problem).j
        if n_t * n_d > 362:
            assert assignment_grid(got) == (n_t, n_d, c * -0.5)
        else:
            assert coupling_arrays(got) == coupling_arrays(dense_coupling(problem))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([362, 363, 364, 400]),
        offset=st.integers(-3, 3),
        tiny=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    # about one in eight off-diagonal entries nonzero at n = 363, with and
    # without entries that halve to zero
    @example(n=363, offset=0, tiny=0, seed=0)
    @example(n=363, offset=1, tiny=0, seed=0)
    @example(n=363, offset=0, tiny=1, seed=0)
    @example(n=363, offset=1, tiny=3, seed=0)
    def test_random_symmetric_around_the_thresholds(self, n, offset, tiny, seed):
        # around the size threshold of the assignment coupling, a QUBO without
        # a grid is dense whatever its fill: 2 * pairs entries that halve to
        # nonzeros (about one in eight), 2 * tiny that halve to zero, and a
        # diagonal, which the coupling drops
        pairs = n * n // 16 + offset
        q = symmetric_with_nonzeros(n, pairs, seed, tiny)
        np.fill_diagonal(q, np.random.default_rng(seed).uniform(-1, 1, n))
        assert_same_coupling(QuboProblem(q), seed)

    @pytest.mark.parametrize("n", [1, 25, 256, 362, 363, 400])
    def test_dense_is_the_halved_qubo_aligned(self, n):
        # a QUBO without a grid is dense above 362 variables too
        problem = QuboProblem(np.random.default_rng(n).normal(size=(n, n)))
        j = problem.q * -0.5
        np.fill_diagonal(j, 0.0)
        for got in (qubo_to_ising(problem).j, IsingProblem(j, np.zeros(n)).j):
            assert type(got) is np.ndarray and got.flags.c_contiguous
            assert got.ctypes.data % 64 == 0
            assert got.dtype == np.float64 and got.tobytes() == j.tobytes()


class TestAssignmentCoupling:
    """The assignment coupling against its dense matrix ``-q / 2``.

    Rounding bound: each entry of the product is ``-c/2`` times two sums of
    at most ``max(n_t, n_d)`` terms, formed from prefix sums and one
    subtraction, and the dense product sums the same terms in another order.
    So the two differ by at most ``2 * (n_t + n_d + 4) * eps * |c/2|`` times
    the sum of ``|x|`` over the entry's row and column of the grid, plus
    ``n_t + n_d`` of the smallest subnormal for the dense products that
    underflow.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(1, 40),
        n_d=st.integers(1, 40),
        c=st.sampled_from([0.0, 1e-300, 0.1, 1.0, 1e300]),
        seed=st.integers(0, 2**16),
    )
    @example(n_t=1, n_d=1, c=1.0, seed=0)
    @example(n_t=40, n_d=40, c=1e300, seed=0)
    @example(n_t=1, n_d=40, c=1e-300, seed=0)
    def test_product_within_rounding_of_dense(self, n_t, n_d, c, seed):
        rng = np.random.default_rng(seed)
        problem, _ = build_assignment_qubo(sparse_similarity(max(n_t, n_d), 0.1, seed)[:n_t, :n_d], c)
        coupling = ising._AssignmentCoupling(n_t, n_d, c)
        j = dense_coupling(problem)
        for _ in range(3):
            # SB positions: inside the wall, on it, and a few zeros
            x = rng.uniform(-1.0, 1.0, n_t * n_d)
            x[rng.uniform(size=x.size) < 0.3] = rng.choice((-1.0, 0.0, 1.0))
            got, want = coupling @ x, j @ x
            grid = np.abs(x).reshape(n_t, n_d)
            around = grid.sum(axis=1)[:, None] + grid.sum(axis=0)
            eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
            bound = 2 * (n_t + n_d + 4) * eps * (c / 2) * around.ravel() + (n_t + n_d) * tiny
            assert np.isfinite(got[np.isfinite(want)]).all()
            assert (np.abs(got - want) <= bound).all()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(19, 24),
        n_d=st.integers(20, 24),
        c=st.sampled_from([0.0, 1e-300, 0.1, 1.0, 1e300]),
        restarts=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    @example(n_t=24, n_d=24, c=1e300, restarts=4, seed=0)
    @example(n_t=19, n_d=20, c=1e-300, restarts=2, seed=0)
    def test_stacked_restarts_bit_identical_to_per_row_solves(self, n_t, n_d, c, restarts, seed):
        s = sparse_similarity(max(n_t, n_d), 0.1, seed)[:n_t, :n_d]
        p = qubo_to_ising(build_assignment_qubo(s, c)[0])
        assert assignment_grid(p.j) == (n_t, n_d, c * -0.5)
        params = SbParams(seed=seed, restarts=restarts, n_steps=60)
        assert_same_run(fused_loop(p, params), per_restart_loop(p, params))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(19, 40),
        n_d=st.integers(20, 40),
        c=st.sampled_from([0.0, 1e-300, 0.1, 1.0, 1e300]),
        fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @example(n_t=19, n_d=20, c=1.0, fill=0.05, seed=0)
    def test_energy_reconciles_with_the_qubo(self, n_t, n_d, c, fill, seed):
        # the north star: ising_energy(qubo_to_ising(p), 2b - 1) + offset is
        # qubo_energy(p, b), to 1e-9 of the offset's scale (1e-9 at unit scale)
        rng = np.random.default_rng(seed)
        problem, _ = build_assignment_qubo(sparse_similarity(max(n_t, n_d), 0.1, seed)[:n_t, :n_d], c)
        p = qubo_to_ising(problem)
        assert assignment_grid(p.j) == (n_t, n_d, c * -0.5)
        for _ in range(3):
            bits = (rng.uniform(size=p.n) < fill).astype(np.int64)
            got = ising_energy(p, 2 * bits - 1) + p.offset
            assert got == pytest.approx(qubo_energy(problem, bits), rel=0, abs=1e-9 * max(1.0, abs(p.offset)))


class TestSparseProductQuality:
    """Each form of the coupling rounds its product differently, so strict
    tables differ between the assignment coupling and the dense product; over
    seeded instances the assignment coupling must be no worse.

    The assignment coupling sums each row and column of the grid by position
    (prefix sums). The form ``row sum + column sum - 2 x`` rounds every spin
    of a tied row alike, keeps tied spins (equal similarities, e.g. zero-IOU
    pairs) in step and fails the repair-free comparison at density 0.1. On
    sparser instances (density 0.05 to 0.07, most trackers overlapping
    nothing) the assignment coupling's table is repair-free more often than
    the dense one; the repaired tables are optimal equally often.
    """

    INSTANCES = 40
    FORMS = ("assignment", "dense")

    @classmethod
    @functools.cache
    def counts(cls, n, density):
        """(repair-free, optimal after repair) counts per form, computed once."""
        totals = {form: np.zeros(2, dtype=int) for form in cls.FORMS}
        for i in range(cls.INSTANCES):
            s = sparse_similarity(n, density, seed=1000 * n + i)
            params = SbParams(seed=i)
            for form in cls.FORMS:
                totals[form] += strict_outcomes(s, params, form)
        return totals

    @pytest.mark.parametrize("n", [20, 24])
    def test_repair_free_as_often_as_dense(self, n):
        totals = self.counts(n, 0.1)
        assert (totals["assignment"] >= totals["dense"]).all()

    @pytest.mark.parametrize("n", [20, 24])
    def test_optimal_after_repair_as_often_as_dense_when_sparser(self, n):
        totals = self.counts(n, 0.05)
        assert totals["assignment"][1] >= totals["dense"][1]

    # (repair-free, optimal after repair) per form, as measured when pinned;
    # the assignment coupling leads the dense product on repair-free tables.
    # A change may raise these, never lower them
    PINNED_GAP = {
        (20, 0.05): {"assignment": (28, 33), "dense": (15, 33)},
        (20, 0.07): {"assignment": (32, 31), "dense": (22, 31)},
        (24, 0.05): {"assignment": (32, 32), "dense": (12, 32)},
        (24, 0.07): {"assignment": (28, 26), "dense": (19, 26)},
    }

    @pytest.mark.parametrize("n,density", sorted(PINNED_GAP))
    def test_gap_when_sparser_is_pinned(self, n, density):
        totals = self.counts(n, density)
        for form, floor in self.PINNED_GAP[n, density].items():
            assert (totals[form] >= floor).all(), (form, totals[form])


class TestStrictTableCurve:
    """How often the strict SB table comes out right beyond 4 x 4, pinned as measured.

    Twenty seeded IOU-like matrices per size (15 % of pairs overlap), default
    ``SbParams``. Counted: strict tables one-to-one as the solver returns them,
    and tables optimal after ``repair_table`` against the exact LSA optimum.
    8 x 8 and 16 x 16 take the dense product, 24 x 24 the assignment coupling.
    A change may raise these counts, never lower them.
    """

    PINNED = {8: (20, 19), 16: (20, 14), 24: (17, 8)}

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_curve(self, n):
        one_to_one = optimal = 0
        for i in range(20):
            s = sparse_similarity(n, 0.15, seed=1000 * n + i)
            problem, _ = build_assignment_qubo(s, 1.0)
            bits, _ = solve_qubo(problem, SbParams())
            raw = bits.reshape(s.shape)
            table, _ = repair_table(raw, s)
            rows, cols = linear_sum_assignment(s, maximize=True)
            one_to_one += check_one_to_one(raw)
            optimal += (s * table).sum() >= s[rows, cols].sum() - 1e-9
        floor_one_to_one, floor_optimal = self.PINNED[n]
        assert one_to_one >= floor_one_to_one
        assert optimal >= floor_optimal
