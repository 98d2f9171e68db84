"""Ballistic simulated-bifurcation solver.

Each spin is represented by a nonlinear oscillator with position ``x_i`` and
momentum ``y_i``. One step of the ballistic variant updates momenta from the
current positions, then positions from the new momenta, and finally applies a
perfectly inelastic wall at ``x = +/-1``:

    y_i += [-(1 - k / n_steps) * x_i - eta * h_i + c0 * sum_j J_ij * x_j] * dt
    x_i += y_i * dt
    if |x_i| > 1:  x_i = sign(x_i), y_i = 0

``k / n_steps`` at step ``k`` is the pump, ramped linearly from zero towards 1
over a fixed schedule (Goto et al., Sci. Adv. 7:eabe7953, 2021). Their pump
amplitude ``a0`` is fixed at 1 because it adds no dynamics: from the same
initial momenta, a step with ``(a0, c0, eta, dt)`` is, in exact arithmetic,
the step with ``(1, c0 / a0, eta / a0, a0 * dt)``. After ``n_steps`` steps
the positions are digitized to spins by sign (with sign(0) taken as +1).

Initialization: positions start at zero and momenta are drawn uniformly from
``[-init_noise, +init_noise]`` with numpy's default generator seeded from
``SbParams.seed``, so a solve is fully deterministic for a fixed seed.

:func:`solve_ising` runs one fused loop over in-place ``x`` and ``y``
arrays: no state object per step, the detuning of every step index built once
per ``n_steps`` and kept (:func:`_schedule`, the last length only), and
``eta * h`` computed once per solve. It performs the floating-point
operations of the step above in the order written, so with a dense coupling
its spins are bit-identical to iterating a one-step reference (``sb_step`` in
the tests) on the same coupling product.

The loop stops early once the state is frozen at the wall: after two
consecutive steps in which every spin of every restart row ended strictly
beyond the wall (``|x| > 1``) and the second step's clipped ``x`` equals the
first's. The positions it returns are then exactly those of the full
``n_steps`` run, because every later step repeats the second one:

- after the first of the two steps every spin enters at ``(+/-1, 0)``, so the
  coupling product ``J x`` is the same at every later step;
- the detuning ``-(1 - k / n_steps)`` only weakens as ``k`` grows, so for a
  spin at ``+1`` the term ``neg_detune * x`` only grows (only shrinks at
  ``-1``), and it is exact since ``x = +/-1``;
- each rounded operation of the kick and of ``x + y * dt`` (subtracting
  ``eta * h``, adding the fixed force, multiplying by ``dt > 0``, adding to 0
  and to ``x``) is monotone in that term, so a later step lands each spin at
  least as far beyond the same wall as the second step did, and clips it to
  the same place with ``y = 0`` again.

The rule steps around two traps. A spin on the wall whose outward kick is
too small to move it (``1 + y * dt`` rounds to ``1.0``), or one that lands
exactly on ``1.0`` from inside, is not over: it keeps its nonzero ``y``, so an
unchanged ``x`` is not yet a frozen state, and such a step does not count.
And a large inward kick can take a spin from ``+1`` past ``-1`` in one step,
over the wall both times; requiring the two clipped states to be equal rules
that out. The argument needs a finite problem, which ``IsingProblem`` checks.

Restarts are independent trajectories, so they are the rows of one
``(restarts, n)`` state and the loop steps them all at once; one restart is
one ``(n,)`` row. One draw of ``(restarts, n)`` momenta gives the numbers
per-restart draws would give, in the same order, and every operation but the
coupling product is elementwise. The product dominates a step at large ``n``
(Goto, Tatsumura & Dixon, Sci. Adv. 5:eaav2372, 2019). ``J`` comes in the
form the ``ising`` module chose once (the assignment coupling or dense), and
before its loop each solve picks one of three entries of the product
(:func:`_product`):

- the assignment coupling: its own product into buffers of this solve, one
  sequential prefix sum along each axis of the ``(n_t, n_d)`` grid of every
  row, so each row gets the bits it gets alone;
- dense ``J``, one restart: ``J.dot(x)`` in C order (as both constructors
  store it), the ``dgemv`` call of ``J @ x`` at less dispatch;
- dense ``J``, several restarts: one matrix-matrix product of the rows,
  ``np.dot(x, J, out=...)`` into a buffer of this solve, with the bits of
  ``x @ J`` in every layout. BLAS computes each output row from its own row
  of ``x``, so the rows stay independent trajectories, but ``dgemm`` sums in
  another order than ``dgemv``: a row differs in the last bits from the same
  restart solved alone.

A step's operands are made once per solve (README "Solver notes" has what
each saves): ``c0``, ``dt``, the wall's ``1``, ``-1`` and ``0`` and each
step's detuning (once per ``n_steps``) as read-only 0-d float64 arrays, and
two buffers that the kick, ``y * dt``, ``|x|`` and the over-wall mask are
written into. ``c0`` is not folded into ``J``, nor ``dt`` into another term,
because either rounds differently. The wall clips ``x`` in place with
``np.minimum(x, 1)`` then ``np.maximum(x, -1)``, and ``np.putmask`` zeroes
the momenta of the spins over. The clip changes exactly the spins over the
wall (``|x| > 1`` is false for a NaN, which the clip leaves as it is), so it
gives the bits of ``np.copysign(1, x, where=over)`` on every float, signed
zeros and infinities included.

The loop and the restart scoring run under one ``np.errstate(all="ignore")``,
which changes no arithmetic, only whether NumPy reports an error. The spins
are digitized and scored row by row, and the earliest restart wins a tie.
Each form of ``J`` sums a row in its own order, so trajectories and energies
differ between the forms in the last bits. The assignment coupling sums by
position along each row and column of the grid; the exactly symmetric
``row sum + column sum - 2 x`` would round the spins of a tied row alike and
keep them in step through the wall (README "Solver notes" has what that cost
the strict tables).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingProblem, QuboProblem, ising_energy, qubo_energy, qubo_to_ising, spins_to_bits
from .ising import _AssignmentCoupling, _check_integers


@dataclass(frozen=True)
class SbParams:
    """Solver parameters. The defaults are the operating point used throughout.

    ``n_steps`` is the length of the pump schedule: step ``k`` pumps at
    ``k / n_steps``. A solve may end before ``n_steps`` steps, once its state
    is frozen at the wall, and then returns what the full schedule returns.
    """

    c0: float = 0.8
    eta: float = 0.8
    dt: float = 0.3
    n_steps: int = 400
    seed: int = 0
    restarts: int = 1
    init_noise: float = 0.1

    def __post_init__(self):
        _check_integers(self, "n_steps", "restarts", "seed")
        for name in ("c0", "eta", "dt", "init_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c0 <= 0 or self.dt <= 0:
            raise ValueError("c0 and dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.init_noise < 0:
            raise ValueError("init_noise must be non-negative")
        if self.init_noise > np.finfo(np.float64).max / 2:
            # the momenta are drawn from a range 2 * init_noise wide
            raise ValueError(
                f"init_noise must be at most half the largest float, got {self.init_noise}"
            )


def _digitize(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1, -1).astype(np.int64)


def _constant(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: a step's operand (module docstring)."""
    constant = np.array(value, dtype=np.float64)
    constant.flags.writeable = False
    return constant


@functools.lru_cache(maxsize=1)
def _schedule(n_steps: int) -> tuple[np.ndarray, ...]:
    """The term ``-(1 - k / n_steps)`` of every step ``k`` as a :func:`_constant`,
    built once per ``n_steps``."""
    return tuple(_constant(-(1.0 - k / n_steps)) for k in range(n_steps))


def _product(coupling, x: np.ndarray):
    """The coupling product of the state ``x``, one row or the rows of several
    restarts, as a one-argument call (the module docstring lists the entries)."""
    if type(coupling) is _AssignmentCoupling:
        # one restart or several, into buffers that belong to this solve
        return coupling.product(x)
    if x.ndim == 2:
        # the rows of several restarts on a dense J, one matrix-matrix product into a buffer
        dot, out = np.dot, np.empty_like(x)

        def dot_rows(x):
            return dot(x, coupling, out=out)

        return dot_rows
    return coupling.dot


def solve_ising(p: IsingProblem, params: SbParams = SbParams()) -> np.ndarray:
    """Run the solver and return a +/-1 spin vector.

    With ``restarts > 1``, runs that many independent trajectories (drawing all
    initial momenta from one seeded generator) and keeps the lowest-energy
    digitized result, preferring the earliest run on ties. Raises
    ``ValueError`` when no run's energy is finite, as on a problem whose
    energies overflow. The solve ignores floating-point errors, whatever the
    caller's NumPy error state, so it never warns or raises on overflow: an
    overflowing position is clipped at the wall, and a non-finite energy loses.
    The module docstring describes the loop that steps every restart at once.
    """
    rng = np.random.default_rng(params.seed)
    c0, dt, one, minus_one, zero = map(_constant, (params.c0, params.dt, 1.0, -1.0, 0.0))
    # one draw gives every restart's momenta in the order per-restart draws would
    x_rows = np.zeros((params.restarts, p.n))
    y_rows = rng.uniform(-params.init_noise, params.init_noise, size=x_rows.shape)
    # one restart steps as one row, several as the rows of one state
    x, y = (x_rows[0], y_rows[0]) if params.restarts == 1 else (x_rows, y_rows)
    with np.errstate(all="ignore"):
        eta_h = params.eta * p.h
        product = _product(p.j, x)
        # each step's temporaries: the kick, then y * dt and |x| in its place; the mask
        kick, over = np.empty_like(x), np.empty_like(x, dtype=bool)
        walled = None  # x after the last step that took every spin over the wall
        for neg_detune in _schedule(params.n_steps):
            force = product(x)
            force *= c0
            np.multiply(neg_detune, x, out=kick)
            kick -= eta_h
            kick += force
            kick *= dt
            y += kick
            x += np.multiply(y, dt, out=kick)
            np.greater(np.abs(x, out=kick), one, out=over)
            n_over = np.count_nonzero(over)
            if n_over:
                # clips exactly the spins that are over: a NaN is never over and stays
                np.minimum(x, one, out=x)
                np.maximum(x, minus_one, out=x)
                np.putmask(y, over, zero)
            if n_over < x.size:
                walled = None
            elif walled is not None and np.array_equal(x, walled):
                break  # frozen: every later step clips the same spins to the same walls
            else:
                walled = x.copy()
        best_spins = None
        best_energy = np.inf
        for row in x_rows:
            spins = _digitize(row)
            energy = ising_energy(p, spins)
            if energy < best_energy and math.isfinite(energy):
                best_energy = energy
                best_spins = spins
        if best_spins is None:
            raise ValueError("no restart reached a finite Ising energy: the problem overflows")
        return best_spins


def solve_qubo(p: QuboProblem, params: SbParams = SbParams()) -> tuple[np.ndarray, float]:
    """Solve a QUBO by converting to Ising form and digitizing the result.

    Returns ``(bits, energy)`` with ``energy == qubo_energy(p, bits)``, and
    raises ``ValueError`` when that energy overflows.
    """
    bits = spins_to_bits(solve_ising(qubo_to_ising(p), params))
    with np.errstate(over="ignore", invalid="ignore"):
        energy = qubo_energy(p, bits)
    if not math.isfinite(energy):
        raise ValueError("the solution's QUBO energy overflows")
    return bits, energy
