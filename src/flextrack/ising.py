"""QUBO and Ising problem encodings, energy evaluation, and exact conversion.

A QUBO minimizes ``sum_ij q[i,j] * b_i * b_j`` over bits ``b_i in {0, 1}``.
An Ising problem minimizes ``-1/2 * sum_ij j[i,j] * s_i * s_j + sum_i h[i] * s_i``
over spins ``s_i in {-1, +1}``. The two are interchangeable through the
substitution ``s = 2b - 1``; :func:`qubo_to_ising` carries the constant that the
substitution produces in an explicit ``offset`` so both sides reconcile
exactly:

    qubo_energy(p, b) == ising_energy(qubo_to_ising(p), 2b - 1) + offset

The public constructors validate their input: ``QuboProblem`` checks shape
and finiteness and symmetrizes, ``IsingProblem`` checks shapes, symmetry and a
zero diagonal. The private ``_from_symmetric`` constructors store the arrays as
given, unchecked and uncopied, and trust the caller for all of that: float64,
square, non-empty, finite, exactly symmetric, and a zero Ising diagonal. Only
``build_assignment_qubo`` and :func:`qubo_to_ising` use them, on matrices that
are so by construction; file input and the CLI go through the public ones.

The module also provides :func:`brute_force_qubo`, an exhaustive minimizer used
as the test oracle throughout the package (capped at 24 variables).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_VARS = 24
_ENUM_CHUNK = 1 << 18


@dataclass(frozen=True)
class QuboProblem:
    """A quadratic unconstrained binary optimization problem.

    The coefficient matrix is stored symmetrized: the constructor replaces any
    raw square matrix ``q`` with ``(q + q.T) / 2``, which leaves every energy
    ``b @ q @ b`` unchanged.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {q.shape}")
        if q.shape[0] == 0:
            raise ValueError("QUBO needs at least one variable")
        if not np.all(np.isfinite(q)):
            raise ValueError("coefficient matrix contains non-finite entries")
        with np.errstate(over="ignore"):
            q = (q + q.T) / 2.0
        if not np.all(np.isfinite(q)):
            raise ValueError("coefficient matrix overflows when symmetrized")
        object.__setattr__(self, "q", q)

    @classmethod
    def _from_symmetric(cls, q: np.ndarray) -> QuboProblem:
        """Wrap a matrix the package built symmetric and finite, unchecked (module docstring)."""
        p = object.__new__(cls)
        object.__setattr__(p, "q", q)
        return p

    @property
    def n(self) -> int:
        """Number of binary variables."""
        return self.q.shape[0]


@dataclass(frozen=True)
class IsingProblem:
    """An Ising problem with couplings ``j``, biases ``h``, and an energy offset.

    ``offset`` is not part of the Ising energy itself; it records the constant
    dropped by a QUBO conversion so callers can compare energies across the two
    encodings.
    """

    j: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {j.shape}")
        if h.shape != (j.shape[0],):
            raise ValueError(
                f"bias vector length {h.shape} does not match {j.shape[0]} spins"
            )
        if not np.array_equal(j, j.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)

    @classmethod
    def _from_symmetric(cls, j: np.ndarray, h: np.ndarray, offset: float) -> IsingProblem:
        """Wrap couplings the package built symmetric with a zero diagonal, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "j", j)
        object.__setattr__(p, "h", h)
        object.__setattr__(p, "offset", offset)
        return p

    @property
    def n(self) -> int:
        """Number of spins."""
        return self.j.shape[0]


def qubo_energy(p: QuboProblem, bits) -> float:
    """Evaluate ``sum_ij q[i,j] * b_i * b_j`` for a bit vector."""
    b = np.asarray(bits, dtype=np.float64)
    if b.shape != (p.n,):
        raise ValueError(f"expected {p.n} bits, got shape {b.shape}")
    return float(b @ p.q @ b)


def ising_energy(p: IsingProblem, spins) -> float:
    """Evaluate the Ising energy for a +/-1 spin vector.

    The problem's ``offset`` is not added; add it explicitly when comparing
    against QUBO energies.
    """
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != (p.n,):
        raise ValueError(f"expected {p.n} spins, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins must be -1 or +1")
    return float(-0.5 * s @ p.j @ s + p.h @ s)


def bits_to_spins(bits) -> np.ndarray:
    """Map bits {0, 1} to spins {-1, +1} via ``s = 2b - 1``."""
    return 2 * np.asarray(bits, dtype=np.int64) - 1


def spins_to_bits(spins) -> np.ndarray:
    """Map spins {-1, +1} to bits {0, 1}."""
    return (np.asarray(spins, dtype=np.int64) + 1) // 2


def qubo_to_ising(p: QuboProblem) -> IsingProblem:
    """Convert a QUBO into the equivalent Ising problem.

    Uses ``s = 2b - 1``, giving ``j = -q/2`` off the diagonal and
    ``h[i] = sum_j q[i,j] / 2``. The constant produced by the substitution,
    ``sum(q)/4 + trace(q)/4``, is stored in ``offset`` so that
    ``qubo_energy(p, b) == ising_energy(result, 2b - 1) + result.offset``
    holds exactly for every bit vector.
    """
    q = p.q
    # one pass: a product with -0.5 rounds exactly as -q / 2 does
    j = q * -0.5
    np.fill_diagonal(j, 0.0)
    h = q.sum(axis=1) / 2.0
    offset = float(q.sum() + np.trace(q)) / 4.0
    # j is symmetric because q is, and its diagonal was just zeroed
    return IsingProblem._from_symmetric(j, h, offset)


def _enumerate_bits(n: int, start: int, stop: int) -> np.ndarray:
    """Bit patterns for integers ``start..stop-1`` with bit 0 most significant."""
    vs = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((vs[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def brute_force_qubo(p: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustively minimize a QUBO; the test oracle for every solver path.

    Returns the globally optimal bit vector and its energy. Ties are broken
    toward the lowest unsigned integer value of the bit vector read big-endian
    (bit 0 most significant), so the result is deterministic.
    """
    if p.n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_MAX_VARS} variables, got {p.n}"
        )
    total = 1 << p.n
    best_energy = np.inf
    best_value = 0
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        bits = _enumerate_bits(p.n, start, stop)
        energies = np.einsum("bi,ij,bj->b", bits, p.q, bits)
        i = int(np.argmin(energies))
        if energies[i] < best_energy:
            best_energy = float(energies[i])
            best_value = start + i
    bits = _enumerate_bits(p.n, best_value, best_value + 1)[0].astype(np.int64)
    return bits, best_energy


def read_qubo_file(path) -> QuboProblem:
    """Read the QUBO text format: first line ``n``, then ``i j value`` lines.

    Indices are 0-based and unlisted entries are zero. When an entry is listed
    more than once, the last listing wins; the matrix is then symmetrized, so
    a file may list either triangle or both. Text after ``#`` is a comment,
    and blank lines are skipped. A malformed file raises ``ValueError`` naming
    the file and the offending line.

    A well-formed file whose first line is the count is parsed in one
    vectorized pass; any other file goes through the line-by-line reader,
    which reports errors and accepts the spellings only Python's ``int`` and
    ``float`` take (such as ``1_0``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    q = _parse_well_formed(text)
    if q is None:
        # the lines fh.readlines() gives: split at "\n" only, unlike str.splitlines
        q = _parse_lines(path, io.StringIO(text).readlines())
    return QuboProblem(q)


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_well_formed(text: str) -> np.ndarray | None:
    """The matrix of a file with a bare count on its first line and valid entries, else None."""
    header, _, body = text.partition("\n")
    try:
        n = int(header)
    except ValueError:
        return None
    if n < 1:
        return None
    try:
        # a warning here (no entries at all) also hands the file to the line reader
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = np.loadtxt(io.StringIO(body), dtype=_ENTRY, comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    i, j = entries["i"], entries["j"]
    if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
        return None
    q = np.zeros((n, n))
    # a 1-D index into a 1-D view is written in order, so the last duplicate wins
    q.reshape(-1)[i * n + j] = entries["v"]
    return q


def _parse_lines(path, lines: list[str]) -> np.ndarray:
    """The line-by-line reader: the matrix, or a ``ValueError`` naming the line."""
    n = None
    q = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"{path}:{lineno}: expected variable count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad variable count {fields[0]!r}") from None
            if n < 1:
                raise ValueError(f"{path}:{lineno}: variable count must be positive")
            q = np.zeros((n, n))
            continue
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j value', got {raw!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
            value = float(fields[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad entry {raw!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}:{lineno}: index out of range for n={n}")
        q[i, j] = value
    if n is None:
        raise ValueError(f"{path}: empty QUBO file")
    return q
