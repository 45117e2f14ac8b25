import math

import numpy as np
import numpy.testing as npt
import pytest

from nonpaving import (
    MatrixParseError,
    col_square_sums,
    column_orthogonality_defect,
    dft_matrix,
    gram,
    hermitian_extremal_eig,
    read_matrix_csv,
    row_square_sums,
    scale_columns,
    write_matrix_csv,
)

from oracles import dft_by_loops, jacobi_hermitian_eigenvalues


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
    assert abs(hermitian_extremal_eig(g, "min") - 1.0) <= 1e-12
    assert abs(hermitian_extremal_eig(g, "max") - 1.0) <= 1e-12


def test_gram_positive_semidefinite_on_random_input():
    rng = np.random.default_rng(23)
    for rows, cols in [(4, 2), (7, 7), (3, 9)]:
        f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert hermitian_extremal_eig(gram(f), "min") >= -1e-10


# ---------------------------------------------------------------------------
# hermitian_extremal_eig
# ---------------------------------------------------------------------------

def test_extremal_eig_of_diagonal():
    h = np.diag([0.25, 0.75]).astype(complex)
    assert hermitian_extremal_eig(h, "min") == pytest.approx(0.25, abs=1e-14)
    assert hermitian_extremal_eig(h, "max") == pytest.approx(0.75, abs=1e-14)


def test_extremal_eig_of_all_ones():
    h = np.ones((2, 2), dtype=complex)
    assert hermitian_extremal_eig(h, "min") == pytest.approx(0.0, abs=1e-14)
    assert hermitian_extremal_eig(h, "max") == pytest.approx(2.0, abs=1e-14)


def test_extremal_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_extremal_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), "min")


def test_extremal_eig_rejects_bad_which():
    with pytest.raises(ValueError):
        hermitian_extremal_eig(np.eye(2), "median")


@pytest.mark.parametrize("dim", list(range(1, 17)))
def test_extremal_eig_against_jacobi_oracle(dim):
    """Production eigenvalues vs the hand-written Jacobi solver in oracles.py."""
    rng = np.random.default_rng(1000 + dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    spectrum = jacobi_hermitian_eigenvalues(h)
    assert abs(hermitian_extremal_eig(h, "min") - spectrum[0]) <= 1e-9
    assert abs(hermitian_extremal_eig(h, "max") - spectrum[-1]) <= 1e-9


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
