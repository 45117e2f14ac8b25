"""Finite frame operations.

A frame family is a list of M vectors in C^d, stored as the rows of an
M x d matrix. Frame bounds are the extreme eigenvalues of the frame operator
S = sum_i f_i f_i^*; a family is A-tight when both bounds equal A, which is
the same as saying its matrix has orthogonal columns whose square sums all
equal A. Tightness is decided from one product V^*V of the family's matrix
V, which gives both the frame bounds and the column characterization
(`matrix_core._column_pass`). Scaling an M x d unit-norm A-tight family by
1/sqrt(A) turns its Gram matrix into a rank-d orthogonal projection with
constant diagonal 1/A.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError
from .matrix_core import (
    _as_int,
    _column_pass,
    _hermitian_deviation,
    as_complex_matrix,
    gram,
    row_square_sums,
)

__all__ = [
    "FrameFamily",
    "ProjectionMatrix",
    "frame_bounds",
    "is_tight_frame",
    "projection_from_tight_frame",
]

# Absolute deviation max|P - P^*| a ProjectionMatrix allows.
HERMITIAN_TOL = 1e-12

# Tolerance of the one tightness rule (`_require_tight`), and of
# eigenvalue-based checks generally.
FRAME_CONFIRM_TOL = 1e-8

# Tolerance of construction checks: unit rows and a projection's diagonal.
CONSTRUCT_TOL = 1e-10

# Bytes of one row panel of P^2 - P in projection_numbers: 256 rows of the
# 1024 x 1024 projection of the (8, 16) family.
_PANEL_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """M vectors in C^d as rows of a matrix, with no tightness claim.

    Tightness has one rule, `_require_tight`; a built StackedDftFrame and
    `projection_from_tight_frame` both apply it.
    """

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", as_complex_matrix(self.vectors))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """A Hermitian idempotent matrix with its rank and optional constant diagonal.

    Construction validates a square Hermitian matrix of at least 1 x 1
    (max|P - P^*| at most HERMITIAN_TOL), idempotency (max|P^2 - P| below
    1e-8), a trace within 1e-6 of the rank, and, when diag_constant is
    given, that every diagonal entry matches it within 1e-10.
    """

    matrix: np.ndarray
    rank: int
    diag_constant: float | None = None

    def __post_init__(self):
        P = as_complex_matrix(self.matrix)
        if P.shape[0] != P.shape[1]:
            raise ValueError(f"matrix is not square: shape {P.shape}")
        if not P.size:
            raise ValueError("cannot hold a 0 x 0 projection: need at least 1 x 1")
        dev = _hermitian_deviation(P)
        if dev > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {HERMITIAN_TOL:.3e}")
        object.__setattr__(self, "matrix", P)
        object.__setattr__(self, "rank", _as_int(self.rank, "rank"))
        if self.diag_constant is not None:
            object.__setattr__(self, "diag_constant", float(self.diag_constant))
        numbers = projection_numbers(P, self.diag_constant)
        failed = projection_failures(numbers, self.rank, FRAME_CONFIRM_TOL, CONSTRUCT_TOL)
        if failed:
            raise ValueError(f"not a rank-{self.rank} projection: {', '.join(failed)} {numbers}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def projection_numbers(P: np.ndarray, diag_target: float | None) -> dict:
    """How far a Hermitian P (at least 1 x 1) is from a projection.

    Returns idempotency_residual (max|P^2 - P|), diag (mean diagonal entry),
    diag_deviation (max|P_ii - diag_target|, None without a target), rank
    (the integer nearest the trace) and trace.

    P^2 - P is formed one panel of rows at a time, Q = P[I] @ P - P[I], so
    beside P the call holds one panel of about _PANEL_BYTES (at least two
    rows, at most one row more) and its moduli, never a second M x M array;
    for the 1024 x 1024 P of the (8, 16) family that is 6 MiB beside 16 MiB.
    Each entry, and so the maximum, has the bits of the whole product's.
    """
    diag = np.diag(P).real
    trace = float(np.trace(P).real)
    deviation = None if diag_target is None else float(np.max(np.abs(diag - diag_target)))
    # numpy takes a one-row product by another BLAS routine, whose bits can
    # differ, so no panel has one row unless P has: the last one takes up
    # to step + 1 rows.
    m = P.shape[0]
    step = max(2, _PANEL_BYTES // (16 * m))
    starts = range(0, max(m - 1, 1), step)
    panel = np.empty((min(m, step + 1), m), dtype=np.complex128)
    panel_maxima = []
    for i, j in zip(starts, [*starts[1:], m]):
        Q = np.matmul(P[i:j], P, out=panel[: j - i])
        Q -= P[i:j]
        panel_maxima.append(np.max(np.abs(Q)))
    return {
        "idempotency_residual": float(np.max(panel_maxima)),
        "diag": float(np.mean(diag)),
        "diag_deviation": deviation,
        "rank": round(trace),
        "trace": trace,
    }


def projection_failures(numbers: dict, rank: int, idem_tol: float, diag_tol: float) -> list[str]:
    """Names of the checks failed by `numbers`, a projection_numbers result.

    The trace must lie within 1e-6 of `rank`; the diagonal is checked only
    when projection_numbers was given a target.
    """
    deviation = numbers["diag_deviation"]
    checks = {
        "projection-idempotency": numbers["idempotency_residual"] > idem_tol,
        "projection-diagonal": deviation is not None and deviation > diag_tol,
        "projection-rank": abs(numbers["trace"] - rank) > 1e-6,
    }
    return [name for name, bad in checks.items() if bad]


def frame_bounds(family: FrameFamily) -> tuple[float, float]:
    """(lower, upper) frame bounds: extreme eigenvalues of the frame operator.

    The lower bound is positive exactly when the family spans C^d. The frame
    operator's nonzero spectrum coincides with the Gram matrix's, so these
    agree with extremes computed from gram() whenever the family spans.
    """
    return _column_pass(family.vectors)[:2]


def _classify_tightness(column_pass, tol):
    """Tightness constant within tol from a `_column_pass` result, else None.

    The spectral verdict is a frame-bound spread at most tol, with constant
    the bounds' midpoint; the column verdict is a defect and a spread of
    the column square sums about their mean (together col_dev) both at most
    tol. Both pass -> tight, return the spectral constant (the constants
    must agree within 10*tol), unless it is not positive: a zero family
    spans nothing and is not tight. Otherwise not tight.

    The two measure different norms of S = V^*V - aI, so one verdict may
    pass while the other fails; what holds for every S is
    col_dev <= spread <= 2 d col_dev (Gershgorin for the upper bound; the
    lower one because |S_ij| <= spread/2 off the diagonal and the diagonal
    lies in [lo, hi]). Measurements that break either inequality by more
    than 10*tol are a numerical bug: InternalInconsistencyError.
    """
    lo, hi, defect, sums = column_pass
    spread, a_spec = hi - lo, 0.5 * lo + 0.5 * hi
    a_col = float(np.mean(sums))
    col_dev = max(defect, float(np.max(np.abs(sums - a_col))))
    if spread > 2 * len(sums) * col_dev + 10 * tol or col_dev > spread + 10 * tol:
        raise InternalInconsistencyError(
            "tightness characterizations disagree: "
            f"eigenvalue spread {spread:.3e}, column deviation {col_dev:.3e}, tol {tol:.3e}"
        )
    if spread > tol or col_dev > tol:
        return None
    if abs(a_spec - a_col) > 10 * tol:
        raise InternalInconsistencyError(
            f"tightness constants disagree: spectral {a_spec} vs columns {a_col}"
        )
    return a_spec if a_spec > 0 else None


def is_tight_frame(family: FrameFamily, tol: float = FRAME_CONFIRM_TOL) -> float | None:
    """Return the tightness constant if the family is tight within tol, else None.

    The constant is always positive: the zero family is not tight.

    Tightness is decided spectrally (frame-bound spread <= tol) and
    cross-checked against the column characterization (orthogonal columns,
    equal column square sums). Their measurements must be consistent; see
    _classify_tightness.
    """
    if not 0 < tol < math.inf:  # also rejects NaN
        raise ValueError("tol must be positive and finite")
    return _classify_tightness(_column_pass(family.vectors), tol)


def _require_tight(family: FrameFamily, tightness: float) -> None:
    """The tightness rule: raise ValueError unless the family is tight within
    FRAME_CONFIRM_TOL (`is_tight_frame`) with constant within it of `tightness`."""
    a = is_tight_frame(family, FRAME_CONFIRM_TOL)
    if a is None or abs(a - tightness) > FRAME_CONFIRM_TOL:
        raise ValueError(
            f"family is not {tightness}-tight within {FRAME_CONFIRM_TOL}"
            + (f" (measured constant {a})" if a is not None else "")
        )


def projection_from_tight_frame(family: FrameFamily, tightness: float) -> ProjectionMatrix:
    """Orthogonal projection spanned by a tight family: gram of rows / sqrt(tightness).

    Requires the family to be tight with the given constant within 1e-8.
    The result has rank d (ProjectionMatrix raises ValueError when the trace
    is not within 1e-6 of d); when the family is unit-norm the diagonal is
    the constant 1/tightness.
    """
    if not tightness > 0:
        raise ValueError("tightness must be positive")
    _require_tight(family, tightness)
    P = gram(family.vectors / math.sqrt(tightness))
    unit_rows = float(np.max(np.abs(row_square_sums(family.vectors) - 1.0))) <= CONSTRUCT_TOL
    diag_constant = 1.0 / tightness if unit_rows else None
    return ProjectionMatrix(P, family.dim, diag_constant)

