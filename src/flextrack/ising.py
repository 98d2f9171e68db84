"""QUBO and Ising problem encodings, energy evaluation, and exact conversion.

A QUBO minimizes ``sum_ij q[i,j] * b_i * b_j`` over bits ``b_i in {0, 1}``.
An Ising problem minimizes ``-1/2 * sum_ij j[i,j] * s_i * s_j + sum_i h[i] * s_i``
over spins ``s_i in {-1, +1}``. The two are interchangeable through the
substitution ``s = 2b - 1``; :func:`qubo_to_ising` carries the constant that the
substitution produces in an explicit ``offset`` so both sides reconcile
exactly:

    qubo_energy(p, b) == ising_energy(qubo_to_ising(p), 2b - 1) + offset

The public constructors validate their input: ``QuboProblem`` checks shape
and finiteness and symmetrizes, ``IsingProblem`` checks shapes, finiteness
(of ``offset`` too), symmetry and a zero diagonal. The private
``_from_symmetric`` constructors store the arrays as given, unchecked and
uncopied, and trust the caller for all of that: float64, square, non-empty,
finite, exactly symmetric, a zero Ising diagonal, and a dense Ising coupling
C-ordered, as ``_coupling`` writes it. Only
``build_assignment_qubo`` and :func:`qubo_to_ising` use them, on matrices that
are so by construction; file input and the CLI go through the public ones.
Construction alone does not make the Ising biases and offset finite: they are
sums of entries of a finite ``q``, and those can overflow. So
:func:`qubo_to_ising` checks them itself, and raises ``ValueError`` before it
wraps them.

The coupling's form is decided here, once: :func:`qubo_to_ising` and the
validating ``IsingProblem`` constructor store ``j`` as the SB solver multiplies
by it, and :func:`ising_energy` takes both of its forms:

- the assignment coupling. ``build_assignment_qubo`` records its grid
  ``(n_t, n_d, c)`` on the problem it returns, and above 2**17 entries
  (``n > 362``), :func:`qubo_to_ising` stores ``j`` in closed form: ``-c/2``
  between two pairs that share a tracker or a detection, zero elsewhere (at
  ``c = 0`` every entry of its product is a signed zero). Its product costs
  O(n), from prefix sums along each axis of the grid
  (:class:`_AssignmentCoupling`), with no ``n x n`` array;
- every other coupling, and every one ``IsingProblem`` is given, as a dense
  array, C-ordered and 64-byte aligned (README "Solver notes" has what the
  alignment changes: the product's speed, not its bits). SB is defined on a
  dense all-to-all coupling, and :func:`read_qubo_file` gives a dense
  ``n x n`` matrix anyway.

:func:`read_qubo_file` reads the QUBO text format: it parses the count line
once, then reads the entries in one ``np.loadtxt`` pass by name or, for every
file that pass cannot take or rejects, in one line loop. Its comment-skipping
line iterator also serves the config and scenario readers, and
:func:`_check_integers` serves the parameter classes of the other modules.

The module also provides :func:`brute_force_qubo`, an exhaustive minimizer used
as the test oracle throughout the package (capped at 24 variables).
"""

from __future__ import annotations

import os
import re
import stat
import warnings
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_VARS = 24
_ENUM_CHUNK = 1 << 18
# assignment QUBOs above this many entries take the closed-form coupling
_DENSE_MAX_ENTRIES = 1 << 17


@dataclass(frozen=True)
class QuboProblem:
    """A quadratic unconstrained binary optimization problem.

    The coefficient matrix is stored symmetrized: the constructor replaces any
    raw square matrix ``q`` with ``(q + q.T) / 2``, which leaves every energy
    ``b @ q @ b`` unchanged.
    """

    q: np.ndarray
    # (n_t, n_d, c) of an assignment QUBO, set by build_assignment_qubo only
    _assignment = None

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
    def _from_symmetric(cls, q: np.ndarray, assignment: tuple[int, int, float]) -> QuboProblem:
        """Wrap an assignment QUBO the package built symmetric and finite,
        unchecked (module docstring), with its grid ``assignment``, ``(n_t, n_d, c)``."""
        p = object.__new__(cls)
        object.__setattr__(p, "q", q)
        object.__setattr__(p, "_assignment", assignment)
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
    encodings. The constructor takes a dense ``j`` and stores it dense, as
    the solver multiplies by it (module docstring).
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
        if not (np.all(np.isfinite(j)) and np.all(np.isfinite(h)) and np.isfinite(self.offset)):
            raise ValueError("couplings, biases and offset must be finite")
        if not np.array_equal(j, j.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        object.__setattr__(self, "j", _coupling(j, 1.0))
        object.__setattr__(self, "h", h)

    @classmethod
    def _from_symmetric(cls, j: np.ndarray, h: np.ndarray, offset: float) -> IsingProblem:
        """Wrap couplings the package built symmetric with a zero diagonal and,
        when dense, C-ordered, as :func:`_coupling` writes it; unchecked."""
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
    """Evaluate the Ising energy for a +/-1 spin vector, on ``j`` in any of its forms.

    The problem's ``offset`` is not added; add it explicitly when comparing
    against QUBO energies.

    An assignment ``j`` defines only ``j @ v``, so it multiplies ``-0.5 * s``
    from the right.
    """
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != (p.n,):
        raise ValueError(f"expected {p.n} spins, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins must be -1 or +1")
    if type(p.j) is np.ndarray:
        return float(-0.5 * s @ p.j @ s + p.h @ s)
    return float(s @ (p.j @ (-0.5 * s)) + p.h @ s)


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

    ``j`` comes in the solver's form: the assignment coupling for a large
    assignment QUBO, else dense (module docstring).

    Raises ``ValueError`` when ``h`` or ``offset`` overflows, as sums of a
    finite ``q`` can.
    """
    q = p.q
    with np.errstate(over="ignore", invalid="ignore"):
        h = q.sum(axis=1) / 2.0
        offset = float(q.sum() + np.trace(q)) / 4.0
    if not (np.isfinite(h).all() and np.isfinite(offset)):
        raise ValueError("QUBO overflows in its Ising form: a row sum or the offset is not finite")
    grid = p._assignment
    if grid is not None and q.size > _DENSE_MAX_ENTRIES:
        return IsingProblem._from_symmetric(_AssignmentCoupling(*grid), h, offset)
    # a product with -0.5 rounds exactly as -q / 2 does; j is symmetric because
    # q is, has a zero diagonal, and halving a finite q keeps it finite
    return IsingProblem._from_symmetric(_coupling(q, -0.5), h, offset)


class _AssignmentCoupling:
    """The coupling ``-q / 2`` of an ``n_t x n_d`` assignment QUBO at weight
    ``c`` in closed form: spin ``(t, d)`` couples at ``-c/2`` to the other
    spins of row ``t`` and of column ``d`` of the grid, so ``(J x)[t, d]`` is
    ``-c/2`` times (row ``t`` of ``x`` without column ``d`` plus column ``d``
    without row ``t``). Each exclusion is the exclusive prefix sum plus (the
    total less the inclusive prefix sum) along its axis, so it rounds by
    position (the ``sb`` docstring says why). Read-only: :meth:`product`
    gives each solve buffers of its own, and ``@`` on one vector makes new ones.
    """

    __slots__ = ("shape", "grid", "half")

    def __init__(self, n_t: int, n_d: int, c: float):
        self.shape = (n_t * n_d, n_t * n_d)
        self.grid = (n_t, n_d)
        self.half = np.array(c * -0.5)
        self.half.flags.writeable = False

    def product(self, x: np.ndarray):
        """``self @ x`` as a one-argument call on arrays shaped like ``x``, one
        row ``(n,)`` or the rows ``(restarts, n)``: each call overwrites and
        returns one buffer."""
        n_t, n_d = self.grid
        lead = x.shape[:-1]
        grid = lead + self.grid
        # prefix sums along each axis after a zero: exclusive, inclusive, total
        rows, cols = np.zeros(lead + (n_t, n_d + 1)), np.zeros(lead + (n_t + 1, n_d))
        row_ex, row_in, row_total = rows[..., :-1], rows[..., 1:], rows[..., -1:]
        col_ex, col_in, col_total = cols[..., :-1, :], cols[..., 1:, :], cols[..., -1:, :]
        out, col = np.empty(grid), np.empty(grid)
        result = out.reshape(x.shape)
        half, add, subtract, multiply = self.half, np.add, np.subtract, np.multiply
        accumulate = np.add.accumulate
        first, first_grid = x, x.reshape(grid)

        def assignment_product(x):
            g = first_grid if x is first else x.reshape(grid)
            accumulate(g, axis=-1, out=row_in)
            accumulate(g, axis=-2, out=col_in)
            subtract(row_total, row_in, out=out)
            add(out, row_ex, out=out)
            subtract(col_total, col_in, out=col)
            add(col, col_ex, out=col)
            add(out, col, out=out)
            multiply(out, half, out=out)
            return result

        return assignment_product

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.product(x)(x)


def _coupling(m: np.ndarray, scale: float) -> np.ndarray:
    """``m * scale`` with a zero diagonal, in one pass into a C-ordered buffer
    whose data starts on a 64-byte boundary."""
    n = m.shape[0]
    buf = np.empty(n * n + 8)
    start = -buf.ctypes.data % 64 // 8
    j = buf[start : start + n * n].reshape(n, n)
    np.multiply(m, scale, out=j)
    np.fill_diagonal(j, 0.0)
    return j


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
    """Read the QUBO text format: a count line ``n``, then ``i j value`` lines.

    Indices are 0-based and unlisted entries are zero. When an entry is listed
    more than once, the last listing wins; the matrix is then symmetrized, so
    a file may list either triangle or both. Text after ``#`` is a comment,
    and blank lines are skipped. A malformed file raises ``ValueError`` naming
    the file and the offending line.

    The file is read into text, and its count line (the first with text
    outside a comment) is parsed once. A regular file named by a ``str`` or a
    path object that numpy's DataSource opens as a plain file (not a URL, and
    no suffix it decompresses) is then read a second time, by name, for its
    entries: one ``np.loadtxt`` pass after the count line, which numpy parses
    in chunks. Every other file, and any that pass rejects, goes through the
    line loop on the text already read, which reports errors and accepts the
    spellings only Python's ``int`` and ``float`` take (such as ``1_0``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    # the lines fh.readlines() gives: split at "\n" only, unlike str.splitlines
    lines = _content_lines(m.group() for m in _LINE.finditer(text))
    count = next(lines, None)
    if count is None:
        raise ValueError(f"{path}: empty QUBO file")
    lineno, raw, line = count
    fields = line.split()
    if len(fields) != 1:
        raise ValueError(f"{path}:{lineno}: expected variable count, got {raw!r}")
    try:
        n = int(fields[0])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad variable count {fields[0]!r}") from None
    if n < 1:
        raise ValueError(f"{path}:{lineno}: variable count must be positive")
    # numpy's DataSource opens a name as a plain file unless it is a URL or
    # has a suffix it decompresses
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    q = None
    if regular and isinstance(name, str) and "://" not in name:
        if not name.lower().endswith((".gz", ".bz2", ".xz", ".lzma")):
            q = _entries_by_name(name, lineno, n)
    if q is None:
        q = np.zeros((n, n))
        for lineno, raw, line in lines:
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i j value', got {raw!r}")
            try:
                i, j, value = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad entry {raw!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{path}:{lineno}: index out of range for n={n}")
            q[i, j] = value
    return QuboProblem(q)


_LINE = re.compile(r"[^\n]*\n|[^\n]+")
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _content_lines(lines):
    """``(lineno, raw, text)`` for each of ``lines`` with text outside a ``#``
    comment, numbered from 1; ``text`` is that text, stripped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def _check_integers(obj, *names: str) -> None:
    """Raise ``ValueError`` unless each attribute ``names`` of ``obj`` is an
    ``int`` and not a ``bool``."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is bool or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _entries_by_name(name: str, skip: int, n: int) -> np.ndarray | None:
    """The matrix of the valid entries after the first ``skip`` lines of file
    ``name``, read in one ``np.loadtxt`` pass, else None."""
    try:
        # a warning here (no entries at all) also hands the file to the line loop;
        # numpy opens the name in text mode, so it counts the skipped lines as
        # the text read with CR, LF and CRLF ends does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = np.loadtxt(
                name, dtype=_ENTRY, comments="#", skiprows=skip, ndmin=1, encoding="utf-8"
            )
    except (ValueError, Warning):
        return None
    i, j = entries["i"], entries["j"]
    if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
        return None
    q = np.zeros((n, n))
    # a 1-D index into a 1-D view is written in order, so the last duplicate wins
    q.reshape(-1)[i * n + j] = entries["v"]
    return q
