import math

import numpy as np
import numpy.testing as npt
import pytest

from nonpaving import (
    FrameFamily,
    InternalInconsistencyError,
    ProjectionMatrix,
    StackedDftFrame,
    build_nonpavable_general,
    complement_duality_check,
    dft_matrix,
    frame_bounds,
    gram,
    is_tight_frame,
    projection_from_tight_frame,
)
from nonpaving.frame_ops import _classify_tightness

from oracles import jacobi_hermitian_eigenvalues


def two_ones():
    # the smallest interesting tight family: {1, 1} in dimension 1
    return FrameFamily(np.array([[1.0], [1.0]], dtype=complex))


# ---------------------------------------------------------------------------
# frame_bounds
# ---------------------------------------------------------------------------

def test_bounds_of_orthonormal_rows():
    lo, hi = frame_bounds(FrameFamily(np.eye(4, dtype=complex)))
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(1.0, abs=1e-14)


def test_bounds_of_two_ones():
    assert frame_bounds(two_ones()) == pytest.approx((2.0, 2.0), abs=1e-14)


def test_bounds_of_non_spanning_family():
    f = FrameFamily(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
    lo, hi = frame_bounds(f)
    assert lo == pytest.approx(0.0, abs=1e-14)
    assert hi == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_bounds_of_built_families(r, n):
    lo, hi = frame_bounds(build_nonpavable_general(r, n))
    assert abs(lo - r) <= 1e-8
    assert abs(hi - r) <= 1e-8


def test_frame_operator_shares_nonzero_spectrum_with_gram():
    """The M x M Gram and the d x d frame operator agree off zero."""
    fam = build_nonpavable_general(2, 2)  # M = 8, d = 4
    gram_eigs = jacobi_hermitian_eigenvalues(gram(fam.vectors))
    nonzero = sorted(x for x in gram_eigs if abs(x) > 1e-8)
    lo, hi = frame_bounds(fam)
    assert len(nonzero) == fam.dim
    assert abs(nonzero[0] - lo) <= 1e-8
    assert abs(nonzero[-1] - hi) <= 1e-8


# ---------------------------------------------------------------------------
# the tightness rule on built families
# ---------------------------------------------------------------------------

def test_non_tight_stacked_family_is_rejected():
    fam = build_nonpavable_general(2, 2)
    vectors = np.array(fam.vectors)
    vectors[0] *= 1.01
    with pytest.raises(ValueError, match="not 2.0-tight"):
        StackedDftFrame(vectors, fam.layout)


def test_vectors_are_read_only():
    fam = two_ones()
    with pytest.raises(ValueError):
        fam.vectors[0, 0] = 5.0


# ---------------------------------------------------------------------------
# is_tight_frame
# ---------------------------------------------------------------------------

def test_dft_rows_are_one_tight():
    assert is_tight_frame(FrameFamily(dft_matrix(5))) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (3, 3), (4, 2)])
def test_built_families_are_r_tight(r, n):
    assert is_tight_frame(build_nonpavable_general(r, n)) == pytest.approx(r, abs=1e-8)


def test_non_tight_family_returns_none():
    f = FrameFamily(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
    assert is_tight_frame(f) is None
    # equal (zero) frame bounds, but a zero family spans nothing
    assert is_tight_frame(FrameFamily(np.zeros((3, 2)))) is None


def test_tol_must_be_positive():
    for tol in (0.0, float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            is_tight_frame(two_ones(), tol=tol)


def column_pass(lo, hi, defect, sums):
    # a _column_pass result: frame bounds, orthogonality defect, column square sums
    return lo, hi, defect, np.array(sums)


def test_classify_tightness_agreeing_verdicts():
    tight = column_pass(2.0 - 5e-13, 2.0 + 5e-13, 1e-12, [2.0, 2.0])
    assert _classify_tightness(tight, 1e-8) == pytest.approx(2.0, abs=1e-12)
    assert _classify_tightness(column_pass(1.75, 2.25, 0.4, [2.0, 2.0]), 1e-8) is None


def test_classify_tightness_split_verdict_within_slack():
    # one side barely over tol: tolerated, classified not tight
    assert _classify_tightness(column_pass(2.0, 2.0 + 5e-8, 1e-12, [2.0, 2.0]), 1e-8) is None
    assert _classify_tightness(column_pass(2.0, 2.0, 0.0, [2.0, 2.0 + 5e-8]), 1e-8) is None


def test_classify_tightness_split_verdict_beyond_slack():
    with pytest.raises(InternalInconsistencyError):
        _classify_tightness(column_pass(2.0, 2.001, 1e-12, [2.0, 2.0]), 1e-8)


def test_classify_tightness_constant_disagreement():
    with pytest.raises(InternalInconsistencyError):
        _classify_tightness(column_pass(2.0, 2.0, 1e-12, [2.1, 2.1]), 1e-8)


@pytest.mark.parametrize("d", [5, 10, 11, 12, 20])
def test_near_tight_family_with_split_verdicts_is_not_tight(d):
    """V^*V = I + 0.99e-8 (J - I): every column entry is within tol, while
    the eigenvalue spread 0.99e-8 d is not once d > 1. The two norms differ
    by up to a factor 2d, so this is not tight, and not an inconsistency."""
    S = np.eye(d) + 0.99e-8 * (np.ones((d, d)) - np.eye(d))
    family = FrameFamily(np.linalg.cholesky(S).conj().T)
    assert is_tight_frame(family) is None
    with pytest.raises(ValueError, match="not 1.0-tight"):
        projection_from_tight_frame(family, 1.0)


def test_is_tight_frame_forms_one_column_product(column_passes):
    fam = build_nonpavable_general(3, 2)
    column_passes.clear()
    assert is_tight_frame(fam) == pytest.approx(3.0, abs=1e-8)
    assert column_passes == [(18, 6)]
    assert frame_bounds(fam) == pytest.approx((3.0, 3.0), abs=1e-8)
    assert column_passes == [(18, 6), (18, 6)]


# ---------------------------------------------------------------------------
# projection_from_tight_frame
# ---------------------------------------------------------------------------

def test_projection_of_two_ones():
    proj = projection_from_tight_frame(two_ones(), 2.0)
    npt.assert_allclose(proj.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
    assert proj.rank == 1
    assert proj.diag_constant == pytest.approx(0.5)


def test_projection_of_r2_family():
    fam = build_nonpavable_general(2, 2)
    proj = projection_from_tight_frame(fam, 2.0)
    assert proj.matrix.shape == (8, 8)
    assert proj.rank == 4
    assert proj.diag_constant == pytest.approx(0.5, abs=1e-10)
    assert float(np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix))) <= 1e-8


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
def test_projection_of_general_family(r, n):
    proj = projection_from_tight_frame(build_nonpavable_general(r, n), float(r))
    assert proj.matrix.shape == (r * r * n, r * r * n)
    assert proj.rank == r * n
    assert proj.diag_constant == pytest.approx(1.0 / r, abs=1e-10)
    assert abs(float(np.trace(proj.matrix).real) - r * n) <= 1e-6


def test_projection_rejects_non_tight_family():
    f = FrameFamily(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        projection_from_tight_frame(f, 2.0)


def test_projection_rejects_wrong_constant():
    with pytest.raises(ValueError):
        projection_from_tight_frame(two_ones(), 3.0)


def test_projection_matrix_validates_idempotency():
    with pytest.raises(ValueError):
        ProjectionMatrix(np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex), 1)


def test_projection_matrix_validates_diag_constant():
    with pytest.raises(ValueError):
        ProjectionMatrix(np.diag([1.0, 0.0]).astype(complex), 1, diag_constant=0.5)


def test_projection_matrix_validates_rank_range():
    # the rank must be in range and match the trace
    for matrix, rank in [(np.eye(2), 3), (np.eye(3), 0), (np.zeros((2, 2)), 2)]:
        with pytest.raises(ValueError):
            ProjectionMatrix(matrix.astype(complex), rank)


# ---------------------------------------------------------------------------
# complement_duality_check
# ---------------------------------------------------------------------------

def half_projection():
    return ProjectionMatrix(
        np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), 1, diag_constant=0.5
    )


def test_duality_on_full_subset():
    riesz, paving = complement_duality_check(half_projection(), [0, 1])
    assert riesz == pytest.approx(0.0, abs=1e-12)
    assert paving == pytest.approx(1.0, abs=1e-12)


def test_duality_on_singleton():
    riesz, paving = complement_duality_check(half_projection(), [0])
    assert riesz == pytest.approx(0.5, abs=1e-12)
    assert paving == pytest.approx(0.5, abs=1e-12)


def test_duality_rejects_empty_subset():
    with pytest.raises(ValueError):
        complement_duality_check(half_projection(), [])


def test_duality_rejects_out_of_range():
    with pytest.raises(ValueError):
        complement_duality_check(half_projection(), [0, 2])


def test_duality_rejects_duplicates():
    with pytest.raises(ValueError):
        complement_duality_check(half_projection(), [1, 1])


def test_duality_sums_to_one_on_random_subsets():
    proj = projection_from_tight_frame(build_nonpavable_general(2, 3), 2.0)
    rng = np.random.default_rng(42)
    dim = proj.dim
    for _ in range(50):
        size = int(rng.integers(1, dim + 1))
        subset = rng.choice(dim, size=size, replace=False)
        riesz, paving = complement_duality_check(proj, subset)
        assert abs(riesz + paving - 1.0) <= 1e-8
