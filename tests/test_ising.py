"""QUBO/Ising encodings: energies, conversion identity, brute-force oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flextrack import ising
from flextrack.ising import (
    BRUTE_FORCE_MAX_VARS,
    IsingProblem,
    QuboProblem,
    bits_to_spins,
    brute_force_qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
    read_qubo_file,
    spins_to_bits,
)


def all_bit_vectors(n):
    """Exhaustive enumeration oracle, bit 0 most significant."""
    return [
        np.array([(v >> (n - 1 - i)) & 1 for i in range(n)])
        for v in range(1 << n)
    ]


class TestQuboEnergy:
    def test_single_term(self):
        p = QuboProblem([[-2.5]])
        assert qubo_energy(p, [1]) == -2.5

    def test_all_zero_bits(self):
        p = QuboProblem(np.random.default_rng(0).normal(size=(5, 5)))
        assert qubo_energy(p, np.zeros(5)) == 0.0

    def test_pair(self):
        p = QuboProblem([[1.0, 0.5], [0.5, 0.0]])
        assert qubo_energy(p, [1, 1]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        p = QuboProblem([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="bits"):
            qubo_energy(p, [1, 0, 1])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            QuboProblem(np.zeros((2, 3)))

    def test_rejects_overflow_when_symmetrizing(self):
        with pytest.raises(ValueError, match="overflows when symmetrized"):
            QuboProblem([[0.0, 1.7e308], [1.7e308, 0.0]])


class TestIsingEnergy:
    def test_ferromagnetic_pair(self):
        p = IsingProblem(j=[[0.0, 1.0], [1.0, 0.0]], h=[0.0, 0.0])
        assert ising_energy(p, [1, 1]) == pytest.approx(-1.0)

    def test_single_bias(self):
        p = IsingProblem(j=[[0.0]], h=[-1.0])
        assert ising_energy(p, [1]) == pytest.approx(-1.0)

    def test_antiparallel_pair(self):
        p = IsingProblem(j=[[0.0, 1.0], [1.0, 0.0]], h=[0.0, 0.0])
        assert ising_energy(p, [1, -1]) == pytest.approx(1.0)

    def test_invalid_spin(self):
        p = IsingProblem(j=[[0.0]], h=[0.0])
        with pytest.raises(ValueError, match="spins"):
            ising_energy(p, [0])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            IsingProblem(j=[[1.0]], h=[0.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            IsingProblem(j=[[0.0, 1.0], [0.5, 0.0]], h=[0.0, 0.0])


class TestConversion:
    def test_diagonal_example(self):
        p = QuboProblem(np.diag([2.0, -4.0]))
        ising = qubo_to_ising(p)
        assert np.allclose(ising.h, [1.0, -2.0])
        assert np.all(ising.j == 0.0)
        assert ising.offset == pytest.approx(-1.0)
        # the substitution identity at one corner of the cube
        assert qubo_energy(p, [0, 1]) == pytest.approx(-4.0)
        assert ising_energy(ising, [-1, 1]) + ising.offset == pytest.approx(-4.0)

    def test_all_zero(self):
        ising = qubo_to_ising(QuboProblem(np.zeros((3, 3))))
        assert np.all(ising.j == 0.0)
        assert np.all(ising.h == 0.0)
        assert ising.offset == 0.0

    def test_argmin_correspondence(self):
        rng = np.random.default_rng(7)
        p = QuboProblem(rng.uniform(-1, 1, size=(6, 6)))
        ising = qubo_to_ising(p)
        qubo_energies = [qubo_energy(p, b) for b in all_bit_vectors(6)]
        ising_energies = [
            ising_energy(ising, bits_to_spins(b)) for b in all_bit_vectors(6)
        ]
        assert int(np.argmin(qubo_energies)) == int(np.argmin(ising_energies))

    @pytest.mark.parametrize("n", range(1, 13, 2))
    def test_energy_identity_exhaustive(self, n):
        rng = np.random.default_rng(n)
        p = QuboProblem(rng.uniform(-2, 2, size=(n, n)))
        ising = qubo_to_ising(p)
        for b in all_bit_vectors(n):
            lhs = qubo_energy(p, b)
            rhs = ising_energy(ising, bits_to_spins(b)) + ising.offset
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_energy_identity_sampled_n20(self):
        rng = np.random.default_rng(20)
        p = QuboProblem(rng.uniform(-2, 2, size=(20, 20)))
        ising = qubo_to_ising(p)
        for _ in range(200):
            b = rng.integers(0, 2, size=20)
            lhs = qubo_energy(p, b)
            rhs = ising_energy(ising, bits_to_spins(b)) + ising.offset
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_spin_bit_maps_roundtrip(self):
        b = np.array([0, 1, 1, 0])
        assert np.array_equal(bits_to_spins(b), [-1, 1, 1, -1])
        assert np.array_equal(spins_to_bits(bits_to_spins(b)), b)


class TestSymmetrization:
    def test_preserves_energy(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(5, 5))  # deliberately asymmetric
        p = QuboProblem(raw)
        assert np.array_equal(p.q, p.q.T)
        for b in all_bit_vectors(5):
            assert qubo_energy(p, b) == pytest.approx(float(b @ raw @ b), abs=1e-9)


class TestBruteForce:
    def test_single_negative(self):
        bits, energy = brute_force_qubo(QuboProblem([[-2.5]]))
        assert np.array_equal(bits, [1]) and energy == -2.5

    def test_positive_diagonal_prefers_zero(self):
        bits, energy = brute_force_qubo(QuboProblem([[1.0]]))
        assert np.array_equal(bits, [0]) and energy == 0.0

    def test_tie_breaks_to_lowest_integer(self):
        bits, energy = brute_force_qubo(QuboProblem([[0.0, 5.0], [5.0, 0.0]]))
        assert np.array_equal(bits, [0, 0]) and energy == 0.0

    def test_cap(self):
        n = BRUTE_FORCE_MAX_VARS + 1
        with pytest.raises(ValueError, match="capped"):
            brute_force_qubo(QuboProblem(np.zeros((n, n))))

    def test_lower_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = QuboProblem(rng.uniform(-1, 1, size=(8, 8)))
            _, best = brute_force_qubo(p)
            for _ in range(20):
                b = rng.integers(0, 2, size=8)
                assert best <= qubo_energy(p, b) + 1e-12


class TestQuboFile:
    def test_load_symmetrizes(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("2\n0 0 -2.5\n0 1 1.0\n")
        p = read_qubo_file(path)
        assert p.n == 2
        assert p.q[0, 1] == p.q[1, 0] == 0.5
        assert p.q[0, 0] == -2.5
        assert p.q[1, 1] == 0.0  # unlisted entries are zero

    def test_bad_entry_names_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("2\n0 0 -2.5\n0 x 1.0\n")
        with pytest.raises(ValueError, match="3"):
            read_qubo_file(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("2\n0 2 1.0\n")
        with pytest.raises(ValueError, match="out of range"):
            read_qubo_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_qubo_file(path)


def loop_read_qubo(path) -> QuboProblem:
    """The line-by-line reader ``read_qubo_file`` had before its vectorized pass: its oracle."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
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
    return QuboProblem(q)


def read_outcome(read, path):
    """The matrix's shape and bytes, or the error message."""
    try:
        q = read(path).q
    except ValueError as exc:
        return str(exc)
    return q.shape, q.tobytes()


# separators inside a line: ASCII and non-ASCII whitespace, among them
# characters str.splitlines (but not a text file's readlines) breaks at,
# which pin the line numbering
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
ODD_INDICES = ["-1", "1.0", "1_0", "x", "99999999999999999999"]
ODD_VALUES = ["1_0.5", "0x10", "x", "1,5"]
BLANKS = ["", "   ", "\t", "\x0c", "# comment", "  # 0 1 2"]


@st.composite
def qubo_texts(draw):
    """The text of a QUBO file: every line well formed, or some lines not."""
    n = draw(st.integers(1, 12))
    odd = draw(st.booleans())
    sep = st.sampled_from(SEPARATORS)
    index = st.integers(0, n - 1).flatmap(lambda k: st.sampled_from([str(k), f"+{k}", f"0{k}"]))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-10, 10).map(repr),
        st.sampled_from(["1e-3", "-2.5E+2", "+0.5", "-0.0", ".5", "5.", "inf", "-inf", "nan"]),
    )
    arity = st.just(3)
    header = st.sampled_from([str(n), f" {n} ", f"+{n}"])
    if odd:
        index = st.one_of(index, st.sampled_from(ODD_INDICES))
        value = st.one_of(value, st.sampled_from(ODD_VALUES))
        arity = st.sampled_from([3, 3, 2, 4])
        header = st.one_of(header, st.sampled_from([f"{n} # count", "0", "-2", "1_0", "x", "1 1"]))
    comment = st.sampled_from(["", " # note", "#", "\t# 0 1 2"])

    @st.composite
    def entry(draw):
        fields = [draw(index), draw(index), draw(value), draw(value)][: draw(arity)]
        line = "".join(f + draw(sep) for f in fields[:-1]) + fields[-1]
        return draw(st.sampled_from(["", " "])) + line + draw(comment)

    blank = st.sampled_from(BLANKS)
    before = draw(st.lists(blank, max_size=2)) if odd else []
    body = draw(st.lists(st.one_of(entry(), entry(), entry(), blank), max_size=12))
    lines = before + [draw(header)] + body
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@pytest.fixture(scope="module")
def qubo_path(tmp_path_factory):
    return tmp_path_factory.mktemp("qubo") / "q.txt"


class TestQuboFileOracle:
    """``read_qubo_file`` gives the line reader's matrix bit for bit, or its exact error."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=qubo_texts())
    @example(text="3\n0 1 1.5\n1 0 2.5\n2 2 -1\n0 1 7\n")  # both triangles, a duplicate
    @example(text="# c\n\n2\n\n# c\n0 1 1\n\n")  # comments and blanks around the header
    @example(text="2\r\n+0 +1 1e5\r\n1 1 -inf\r\n")  # CRLF, signs, exponent, inf
    @example(text="2\n0 0 nan\n")
    @example(text="4\n")  # header only
    @example(text="4\n# only a comment\n\n")
    @example(text="3\n0 1 2\x0b9\n1 x 2\n")  # \x0b inside a line, then a bad line
    @example(text="3\n0 1\x0c2\n0 1 2 3\n")
    @example(text="3\n0\x1c1 2\n0 3 1\n")
    @example(text="3\n1.0 1 2\n")
    @example(text="12\n1_0 1 2\n")  # accepted by int(): the line reader's spelling
    @example(text="3\n1_0 1 2\n")
    @example(text="3\n0 1\n")
    @example(text="3\n-1 1 2\n")
    @example(text="0\n")
    @example(text="2\n0 1 1.7e308\n1 0 1.7e308\n")  # finite entries that overflow once symmetrized
    def test_matches_the_line_reader(self, qubo_path, text):
        qubo_path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_qubo_file, qubo_path) == read_outcome(loop_read_qubo, qubo_path)

    @pytest.mark.parametrize(
        "text",
        [
            "3\n0 1 1.5\n1 0 2.5\n0 1 7\n",
            "3\r\n\n# c\n+0 2 1e5 # c\r\n2 2 -inf\r\n",
            "2\n0 0 nan\n",
        ],
    )
    def test_well_formed_files_take_the_vectorized_pass(self, qubo_path, text, monkeypatch):
        qubo_path.write_bytes(text.encode())
        expected = read_outcome(loop_read_qubo, qubo_path)

        def no_line_reader(path, lines):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(ising, "_parse_lines", no_line_reader)
        assert read_outcome(read_qubo_file, qubo_path) == expected

    @pytest.mark.parametrize("text", ["2\n", "2\n# nothing\n\n", "2"])
    def test_header_only_is_a_zero_matrix_without_warnings(self, qubo_path, text):
        qubo_path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = read_qubo_file(qubo_path)
        assert caught == []
        assert np.array_equal(p.q, np.zeros((2, 2)))

    def test_line_numbers_count_newlines_only(self, qubo_path):
        qubo_path.write_bytes("2\n0 1\x0c1\n0 1\x1c2\x853\n".encode())
        with pytest.raises(ValueError, match=r":3: expected 'i j value'"):
            read_qubo_file(qubo_path)
