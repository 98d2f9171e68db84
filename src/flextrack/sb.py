"""Ballistic simulated-bifurcation solver.

Each spin is represented by a nonlinear oscillator with position ``x_i`` and
momentum ``y_i``. One step of the ballistic variant updates momenta from the
current positions, then positions from the new momenta, and finally applies a
perfectly inelastic wall at ``x = +/-1``:

    y_i += [-(a0 - a_k) * x_i - eta * h_i + c0 * sum_j J_ij * x_j] * dt
    x_i += a0 * y_i * dt
    if |x_i| > 1:  x_i = sign(x_i), y_i = 0

``a_k`` is the pump, ramped linearly from zero towards ``a0`` over a fixed
schedule, ``a_k = a0 * k / n_steps`` (Goto et al., Sci. Adv. 7:eabe7953, 2021).
After ``n_steps`` steps the positions are digitized to spins by sign (with
sign(0) taken as +1).

Initialization: positions start at zero and momenta are drawn uniformly from
``[-init_noise, +init_noise]`` with numpy's default generator seeded from
``SbParams.seed``, so a solve is fully deterministic for a fixed seed.

:func:`solve_ising` runs one fused loop over in-place ``x`` and ``y``
arrays: no state object per step, the detuning evaluated once per step index
before the loop, and ``eta * h`` computed once. It performs the floating-point
operations of the step above in the order written, so with a dense coupling
its spins are bit-identical to iterating a one-step reference (``sb_step`` in
the tests).

Restarts are independent trajectories, so they are the rows of one
``(restarts, n)`` state and the loop steps them all at once. One draw of
``(restarts, n)`` momenta gives the numbers per-restart draws would give, in
the same order. Each row then sees exactly the arithmetic it would see alone;
only the coupling product needs care, and its form depends on the case:

- one restart: ``J @ x`` on the single row; a stacked product with one row
  made the solves of 5 x 5 and 24 x 24 tracking frames 15 to 17 % slower;
- dense ``J``, several restarts: ``J`` against each row as a matrix-vector
  product (``matmul`` on an ``(restarts, n, 1)`` view), which BLAS computes
  as it computes ``J @ x`` per row; ``x @ J`` and ``J @ x.T`` are
  matrix-matrix products, and neither was bit-identical on 256 spins;
- CSR ``J``, several restarts: ``J @ x.T``, scipy's multi-vector kernel,
  which sums each row's products in the single-vector order.

The spins are digitized and scored row by row, and the earliest restart wins
a tie.

The coupling product ``J @ x`` dominates a step at large ``n`` (Goto,
Tatsumura & Dixon, Sci. Adv. 5:eaav2372, 2019). The assignment coupling has
only ``n_t + n_d - 2`` nonzeros per row, so when ``J`` has more than 2**17
entries (``n > 362``) and at most one in eight of them is nonzero, the solve
multiplies by a ``scipy.sparse`` CSR copy built once per solve; otherwise it
keeps the dense BLAS product. The CSR arrays come straight from one nonzero
mask of ``J`` (see :func:`_coupling`) rather than from scipy's conversion of
the dense matrix through COO, which took 2 ms of a solve at 31 x 21 against
0.6 ms. Measured per product with one BLAS thread on a two-core Xeon host
(assignment couplings, square ``m x m`` grids):

    m    n      dense     CSR
    5    25     1.8 us    5.5 us
    15   225    9.3 us    10.9 us
    19   361    23 us     16 us
    24   576    96 us     18 us
    32   1024   360 us    38 us

Whole 200-step solves were within 10 % of each other at 19 x 19, and the CSR
solve was 2x faster at 24 x 24. With random sparsity patterns CSR lost to
dense above a fill of about 1/8 at ``n = 400`` and about 1/4 at ``n = 1024``.
CSR sums a row in another order than BLAS, so its trajectories differ from the
dense ones in the last bits. An exactly symmetric product (the assignment
coupling's closed form from row and column sums) is deliberately not used: it
keeps tied spins (equal similarities, such as zero-IOU pairs) in step through
the wall, and strict tables came out one-to-one less often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ising import IsingProblem, QuboProblem, ising_energy, qubo_energy, qubo_to_ising, spins_to_bits


@dataclass(frozen=True)
class SbParams:
    """Solver parameters. The defaults are the operating point used throughout."""

    a0: float = 1.0
    c0: float = 0.8
    eta: float = 0.8
    dt: float = 0.3
    n_steps: int = 400
    seed: int = 0
    restarts: int = 1
    init_noise: float = 0.1

    def __post_init__(self):
        for name in ("a0", "c0", "eta", "dt", "init_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.a0 <= 0 or self.c0 <= 0 or self.dt <= 0:
            raise ValueError("a0, c0 and dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.init_noise < 0:
            raise ValueError("init_noise must be non-negative")


# thresholds of the product rule in _coupling; 2**17 entries are 1 MiB of float64
_DENSE_MAX_ENTRIES = 1 << 17
_CSR_MAX_FILL = 8


def _digitize(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1, -1).astype(np.int64)


def _coupling(j: np.ndarray):
    """``j`` itself, or a CSR copy of it when the sparse product is cheaper.

    The rule reads only the size and the nonzero count of ``j``: CSR when
    ``j`` has more than ``_DENSE_MAX_ENTRIES`` entries and at most one in
    ``_CSR_MAX_FILL`` of them is nonzero. Smaller problems skip the count.

    One ``j != 0`` mask gives both the count and the CSR arrays: row pointers
    from the cumulative row counts, column indices and values from the flat
    nonzero positions in row-major order. That is the canonical CSR (sorted
    indices, no duplicates, int32 indices) that ``sparse.csr_array(j)``
    builds by way of COO, so the product is the same bit for bit.
    """
    n = j.shape[0]
    if n * n <= _DENSE_MAX_ENTRIES:
        return j
    nonzero = j != 0.0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
    if _CSR_MAX_FILL * int(indptr[-1]) > n * n:
        return j
    flat = np.flatnonzero(nonzero)
    indices = (flat % n).astype(np.int32)
    return sparse.csr_array((j.ravel()[flat], indices, indptr), shape=j.shape)


def solve_ising(p: IsingProblem, params: SbParams = SbParams()) -> np.ndarray:
    """Run the solver and return a +/-1 spin vector.

    With ``restarts > 1``, runs that many independent trajectories (drawing all
    initial momenta from one seeded generator) and keeps the lowest-energy
    digitized result, preferring the earliest run on ties.

    All trajectories are the rows of one state, stepped together by the fused
    loop described in the module docstring.
    """
    rng = np.random.default_rng(params.seed)
    a0, c0, dt = params.a0, params.c0, params.dt
    coupling = _coupling(p.j)
    detuning = [-(a0 - a0 * k / params.n_steps) for k in range(params.n_steps)]
    # one draw gives every restart's momenta in the order per-restart draws would
    x_rows = np.zeros((params.restarts, p.n))
    y_rows = rng.uniform(-params.init_noise, params.init_noise, size=x_rows.shape)
    # views of the rows shaped so that ``coupling @ x`` is the product the
    # module docstring picks: one row, one gemv per row, or one CSR multivector
    if params.restarts == 1:
        x, y, eta_h = x_rows[0], y_rows[0], params.eta * p.h
    elif sparse.issparse(coupling):
        x, y, eta_h = x_rows.T, y_rows.T, params.eta * p.h[:, None]
    else:
        x, y, eta_h = x_rows[:, :, None], y_rows[:, :, None], params.eta * p.h[:, None]
    for neg_detune in detuning:
        force = coupling @ x
        force *= c0
        kick = neg_detune * x
        kick -= eta_h
        kick += force
        kick *= dt
        y += kick
        drift = a0 * y
        drift *= dt
        x += drift
        over = np.abs(x) > 1.0
        np.copysign(1.0, x, out=x, where=over)
        y[over] = 0.0
    best_spins = None
    best_energy = np.inf
    for row in x_rows:
        spins = _digitize(row)
        energy = ising_energy(p, spins)
        if energy < best_energy:
            best_energy = energy
            best_spins = spins
    return best_spins


def solve_qubo(p: QuboProblem, params: SbParams = SbParams()) -> tuple[np.ndarray, float]:
    """Solve a QUBO by converting to Ising form and digitizing the result.

    Returns ``(bits, energy)`` with ``energy == qubo_energy(p, bits)``.
    """
    bits = spins_to_bits(solve_ising(qubo_to_ising(p), params))
    return bits, qubo_energy(p, bits)
