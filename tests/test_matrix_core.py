import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonpaving import (
    MatrixParseError,
    build_nonpavable_general,
    col_square_sums,
    column_orthogonality_defect,
    dft_matrix,
    gram,
    read_matrix_csv,
    row_square_sums,
    scale_columns,
    write_matrix_csv,
)
from nonpaving import matrix_core
from nonpaving.constructions import doubled_family

from oracles import dft_by_loops, jacobi_hermitian_eigenvalues, matrix_csv_by_entries


# ---------------------------------------------------------------------------
# dft_matrix
# ---------------------------------------------------------------------------

def test_dft_one_is_scalar_one():
    npt.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)


def test_dft_two_matches_hand_value():
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[s, s], [s, -s]], dtype=complex)
    npt.assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_four_unitary_by_direct_multiplication():
    u = dft_matrix(4)
    product = u @ u.conj().T
    assert np.max(np.abs(product - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16, 257, 512])
def test_dft_unitary(n):
    u = dft_matrix(n)
    assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
def test_dft_entries_unimodular_over_sqrt_n(n):
    u = dft_matrix(n)
    assert np.max(np.abs(np.abs(u) - 1.0 / math.sqrt(n))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
def test_dft_matches_scalar_loop_construction(n):
    npt.assert_allclose(dft_matrix(n), dft_by_loops(n), atol=1e-13)


def test_dft_rejects_zero_size():
    with pytest.raises(ValueError):
        dft_matrix(0)


# ---------------------------------------------------------------------------
# scale_columns
# ---------------------------------------------------------------------------

def test_scale_columns_identity_weights_is_noop():
    a = dft_matrix(3)
    npt.assert_array_equal(scale_columns(a, [1.0, 1.0, 1.0]), a)


def test_scale_columns_sqrt2_and_zero_on_dft2():
    """Column square-sums scale by the squared weights; rows stay at 1.

    With every |entry|^2 = 1/2 the row sums come out at (1/2)*(2 + 0) = 1
    and the column sums at 2*(1/2)*weight^2.
    """
    b = scale_columns(dft_matrix(2), [math.sqrt(2.0), 0.0])
    npt.assert_allclose(col_square_sums(b), [2.0, 0.0], atol=1e-14)
    npt.assert_allclose(row_square_sums(b), [1.0, 1.0], atol=1e-14)


def test_scale_columns_rejects_length_mismatch():
    with pytest.raises(ValueError):
        scale_columns(dft_matrix(2), [1.0])


def test_scale_columns_rejects_negative_weight():
    with pytest.raises(ValueError):
        scale_columns(dft_matrix(2), [1.0, -0.5])


def test_scale_columns_preserves_column_orthogonality():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    weights = [0.3, 1.7, 0.0, 2.5]
    before = column_orthogonality_defect(a)
    after = column_orthogonality_defect(scale_columns(a, weights))
    assert after <= before * max(w * w for w in weights) + 1e-12


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

def test_gram_of_identity_rows():
    npt.assert_allclose(gram(np.eye(3, dtype=complex)), np.eye(3), atol=1e-15)


def test_gram_of_repeated_unit_row():
    f = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    npt.assert_allclose(gram(f), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_gram_of_dft_rows_is_identity():
    g = gram(dft_matrix(5))
    npt.assert_allclose(g, np.eye(5), atol=1e-13)
    spectrum = jacobi_hermitian_eigenvalues(g)
    assert abs(spectrum[0] - 1.0) <= 1e-12
    assert abs(spectrum[-1] - 1.0) <= 1e-12


def test_gram_positive_semidefinite_on_random_input():
    rng = np.random.default_rng(23)
    for rows, cols in [(4, 2), (7, 7), (3, 9)]:
        f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert jacobi_hermitian_eigenvalues(gram(f))[0] >= -1e-10


def _random_40x7():
    rng = np.random.default_rng(40)
    return rng.normal(size=(40, 7)) + 1j * rng.normal(size=(40, 7))


def _random_with_zero_rows(m):
    """m x 5 with a row of -0.0 and a half-zero row: signed zeros in G."""
    rng = np.random.default_rng(m)
    f = rng.normal(size=(m, 5)) + 1j * rng.normal(size=(m, 5))
    f[0] = -0.0
    f[m // 2, 1:] = 0.0
    return f


@pytest.mark.parametrize("make", [
    lambda: build_nonpavable_general(2, 3).vectors,
    lambda: build_nonpavable_general(3, 2).vectors,
    lambda: build_nonpavable_general(8, 16).vectors / math.sqrt(8),
    _random_40x7,
    *(lambda m=m: _random_with_zero_rows(m) for m in (1, 127, 128, 129, 300)),
], ids=["build-r2-n3", "build-r3-n2", "build-r8-n16-over-sqrt8", "random-40x7",
        *(f"zeros-{m}x5" for m in (1, 127, 128, 129, 300))])
def test_gram_bits_equal_two_sided_hermitization(make):
    """tobytes() tells -0.0 from 0.0; the m x 5 cases are below, at and past
    gram's 128-row block."""
    f = make()
    g = f @ f.conj().T
    expected = 0.5 * (g + g.conj().T)
    out = gram(f)
    assert out.tobytes() == expected.tobytes()
    assert out.flags.c_contiguous
    assert not out.flags.writeable


def test_gram_peak_memory_is_near_its_output(traced_peak):
    """G, Hermitized in place, and the conjugate of f during the product:
    about 1.13 output sizes, where a second Hermitized buffer held 2.1 and
    0.5 * (G + G^*) about 3.1."""
    f = build_nonpavable_general(8, 16).vectors
    out_bytes = gram(f).nbytes
    assert traced_peak(lambda: gram(f)) <= 1.25 * out_bytes


def test_gram_of_no_rows_is_empty():
    out = gram(np.zeros((0, 3)))
    assert out.shape == (0, 0) and out.dtype == np.complex128


def test_gram_leaves_its_input_unchanged():
    f = np.array(build_nonpavable_general(2, 3).vectors)
    before = f.copy()
    gram(f)
    assert f.tobytes() == before.tobytes()
    assert f.flags.writeable


# ---------------------------------------------------------------------------
# column_orthogonality_defect
# ---------------------------------------------------------------------------

def test_defect_of_unitary_matrix():
    assert column_orthogonality_defect(dft_matrix(6)) <= 1e-12


def test_defect_of_equal_unit_columns():
    a = np.array([[1.0], [0.0]])
    assert column_orthogonality_defect(np.hstack([a, a])) == pytest.approx(1.0, abs=1e-15)


def test_defect_of_single_column_is_zero():
    assert column_orthogonality_defect(np.array([[3.0], [4.0]])) == 0.0


# ---------------------------------------------------------------------------
# row/column square sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_dft_square_sums_are_one(n):
    u = dft_matrix(n)
    npt.assert_allclose(row_square_sums(u), np.ones(n), atol=1e-13)
    npt.assert_allclose(col_square_sums(u), np.ones(n), atol=1e-13)


def test_column_pass_of_huge_entry_does_not_overflow():
    with np.errstate(all="raise"):
        lo, hi, defect, sums = matrix_core._column_pass(np.array([[1e154 + 0j]]))
    assert (lo, hi, defect, sums.tolist()) == (1e308, 1e308, 0.0, [1e308])


def test_column_pass_scaling_is_exact():
    # scaling V by a power of two moves no bit of bounds or defect
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, d = rng.integers(1, 10, size=2)
        V = (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))) * 10.0 ** rng.integers(-6, 7)
        S = V.conj().T @ V
        w = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
        np.fill_diagonal(S, 0.0)
        assert matrix_core._column_pass(V)[:3] == (w[0], w[-1], np.max(np.abs(S)))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    back = read_matrix_csv(path)
    npt.assert_array_equal(back, a)


def test_csv_round_trip_negative_zero_and_integers(tmp_path):
    a = np.array([[1.0 + 0.0j, -0.0 - 2.0j], [0.0 + 0.0j, -1.5 + 0.25j]])
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    npt.assert_array_equal(read_matrix_csv(path), a)


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("no header here\n1+0j\n")
    with pytest.raises(MatrixParseError):
        read_matrix_csv(path)


@pytest.mark.parametrize("head", ["1_0 1", "+2 1", "\u0663 1", "1 1_0", "-1 1"])
def test_csv_rejects_dimensions_other_than_ascii_digits(tmp_path, head):
    """int() takes '1_0', '+2' and Arabic-Indic digits; the header does not."""
    path = tmp_path / "bad.csv"
    path.write_text(f"# {head}\n" + "1+0j\n" * 10, encoding="utf-8")
    with pytest.raises(MatrixParseError, match="non-integer dimensions in header"):
        read_matrix_csv(path)


def test_csv_header_allows_surrounding_space(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("#  2   1 \n1+0j\n0-1j\n")
    npt.assert_array_equal(read_matrix_csv(path), [[1 + 0j], [-1j]])


def test_csv_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"# 2 2\r\n1+0j, 0.5-2j\r\n0-1j,-0+0j\r\n")
    npt.assert_array_equal(read_matrix_csv(path), [[1 + 0j, 0.5 - 2j], [-1j, 0j]])


def test_csv_rejects_non_ascii_entry(tmp_path):
    """complex() takes fullwidth digits and strips U+2003; the reader does not."""
    token = "\uff11+0j\u2003"
    path = tmp_path / "m.csv"
    path.write_bytes(f"# 1 2\n1+0j,{token}\n".encode("utf-8"))
    with pytest.raises(MatrixParseError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: bad entry {token!r} at (0, 1)"


@pytest.mark.parametrize("text,message", [
    ("# 2 2\nbad,1+0j\n1+0j\n", "bad entry 'bad' at (0, 0)"),
    ("# 2 2\n1+0j\nbad,1+0j\n", "row 0 has 1 entries, expected 2"),
], ids=["entry-first", "width-first"])
def test_csv_reports_first_problem_in_row_major_order(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_csv_names_a_refused_entry_inside_its_row(tmp_path):
    """The refused token is found among its row's stripped tokens: ' 1+0j '
    is the cached 1+0j, so 'bad' is the first one missing."""
    path = tmp_path / "bad.csv"
    path.write_text("# 2 3\n1+0j,2+0j,3+0j\n2+0j, 1+0j ,bad\n")
    with pytest.raises(MatrixParseError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: bad entry 'bad' at (1, 2)"


def test_csv_read_peak_memory_is_about_two_file_sizes(tmp_path, traced_peak):
    """The file's bytes and its UTF-8 check make two file sizes; the lines
    replace the bytes, and each row's text goes once it is parsed. Holding
    the bytes, the lines and the token splits together took 3.3."""
    path = tmp_path / "fam.csv"
    write_matrix_csv(build_nonpavable_general(8, 16).vectors, path)
    assert traced_peak(lambda: read_matrix_csv(path)) <= 2.25 * path.stat().st_size


def test_csv_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# 2 2\n1+0j,1+0j\n1+0j\n")
    with pytest.raises(MatrixParseError):
        read_matrix_csv(path)


def test_csv_rejects_garbage_entry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# 1 2\n1+0j,spam\n")
    with pytest.raises(MatrixParseError):
        read_matrix_csv(path)


def test_csv_rejects_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# 0 3\n")
    with pytest.raises(MatrixParseError, match="bad dimensions 0 x 3"):
        read_matrix_csv(path)


def test_csv_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_csv(np.array([[np.inf + 0j]]), tmp_path / "never.csv")
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_csv_write_rejects_empty_shape(tmp_path, shape):
    # read_matrix_csv refuses a '# 0 3' header, so the writer must not make one
    with pytest.raises(ValueError, match="at least 1 x 1"):
        write_matrix_csv(np.zeros(shape), tmp_path / "never.csv")
    assert not (tmp_path / "never.csv").exists()


# Both zeros, a subnormal, the largest decades and a few repeated phases: the
# values whose bit patterns a distinct-value writer could merge or mangle.
_PARTS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0, -0.5, 1 / 3]
_PHASES = [np.exp(2j * np.pi * k / 8) / math.sqrt(8) for k in range(8)]
_ENTRIES = st.one_of(st.builds(complex, st.sampled_from(_PARTS), st.sampled_from(_PARTS)),
                     st.sampled_from(_PHASES))


@st.composite
def _pooled_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.complex128).reshape(rows, cols)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(a=_pooled_matrices())
def test_csv_bytes_match_entrywise_writer(tmp_path, a):
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    assert path.read_bytes() == matrix_csv_by_entries(a).encode("utf-8")
    with np.errstate(over="ignore"):
        squares = np.abs(a) ** 2
        finite = all(np.all(np.isfinite(squares.sum(axis=k))) for k in (0, 1))
    if finite:
        assert read_matrix_csv(path).tobytes() == a.tobytes()
    else:
        with pytest.raises(MatrixParseError, match="is not finite"):
            read_matrix_csv(path)


@pytest.mark.parametrize("make,distinct", [
    (lambda: doubled_family(build_nonpavable_general(2, 4), 6).vectors, 54),
    (lambda: build_nonpavable_general(8, 16).vectors, 1923),
], ids=["double-r2-n4-k6", "build-r8-n16"])
def test_csv_write_formats_each_distinct_entry_once(tmp_path, monkeypatch, make, distinct):
    matrix = make()
    calls = []
    original = matrix_core.format_complex
    monkeypatch.setattr(matrix_core, "format_complex", lambda z: calls.append(z) or original(z))
    write_matrix_csv(matrix, tmp_path / "m.csv")
    assert len(calls) == distinct
    assert read_matrix_csv(tmp_path / "m.csv").tobytes() == matrix.tobytes()


def test_csv_write_of_a_transposed_view_matches_its_copy(tmp_path):
    a = _random_40x7()
    a[3, 2] = -0.0 + 5e-324j
    view = a.T
    assert not view.flags.c_contiguous
    write_matrix_csv(view, tmp_path / "view.csv")
    write_matrix_csv(np.ascontiguousarray(view), tmp_path / "copy.csv")
    assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


def test_csv_write_peak_memory_is_a_few_matrix_sizes(tmp_path, traced_peak):
    """One sorted copy of the halves and the int64 slot arrays: about 1.5
    matrix sizes, where a validated copy of the matrix took it to 2.5 and a
    16-byte-record unique to 4.6."""
    matrix = doubled_family(build_nonpavable_general(2, 4), 6).vectors
    peak = traced_peak(lambda: write_matrix_csv(matrix, tmp_path / "m.csv"))
    assert peak <= 2 * matrix.nbytes


def test_csv_write_formats_before_opening(tmp_path, monkeypatch):
    def failing(z):
        raise ValueError("cannot format")

    monkeypatch.setattr(matrix_core, "format_complex", failing)
    with pytest.raises(ValueError, match="cannot format"):
        write_matrix_csv(dft_matrix(4), tmp_path / "never.csv")
    assert not (tmp_path / "never.csv").exists()
