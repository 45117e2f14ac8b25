"""Finite frame operations.

A frame family is a list of M vectors in C^d, stored as the rows of an
M x d matrix. Frame bounds are the extreme eigenvalues of the frame operator
S = sum_i f_i f_i^*; a family is A-tight when both bounds equal A, which is
the same as saying its matrix has orthogonal columns whose square sums all
equal A. Scaling an M x d unit-norm A-tight family by 1/sqrt(A) turns its
Gram matrix into a rank-d orthogonal projection with constant diagonal 1/A.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistencyError
from .matrix_core import (
    as_complex_matrix,
    col_square_sums,
    column_orthogonality_defect,
    gram,
    hermitian_extremal_eig,
    require_hermitian,
    row_square_sums,
)

__all__ = [
    "FRAME_CONFIRM_TOL",
    "FrameFamily",
    "ProjectionMatrix",
    "frame_bounds",
    "is_tight_frame",
    "projection_numbers",
    "projection_failures",
    "projection_from_tight_frame",
    "complement_duality_check",
]

# Tolerance used when a family's claimed tightness is confirmed, and by
# eigenvalue-based checks generally.
FRAME_CONFIRM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """M vectors in C^d as rows of a matrix, with an optional tightness claim.

    When claimed_tightness is set, construction confirms that both frame
    bounds equal the claim within 1e-8 (which also forces M >= d, since a
    tight family spans).
    """

    vectors: np.ndarray
    claimed_tightness: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "vectors", as_complex_matrix(self.vectors))
        if self.claimed_tightness is not None:
            a = float(self.claimed_tightness)
            if not (math.isfinite(a) and a > 0):
                raise ValueError("claimed_tightness must be positive and finite")
            object.__setattr__(self, "claimed_tightness", a)
            if self.count < self.dim:
                raise ValueError(
                    f"a tight family must span: {self.count} vectors in dimension {self.dim}"
                )
            lo, hi = frame_bounds(self)
            if abs(lo - a) > FRAME_CONFIRM_TOL or abs(hi - a) > FRAME_CONFIRM_TOL:
                raise ValueError(
                    f"claimed tightness {a} not confirmed: frame bounds ({lo}, {hi})"
                )

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """A Hermitian idempotent matrix with its rank and optional constant diagonal.

    Construction validates Hermitian structure, idempotency (max|P^2 - P|
    below 1e-8), a trace within 1e-6 of the rank, and, when diag_constant is
    given, that every diagonal entry matches it within 1e-10.
    """

    matrix: np.ndarray
    rank: int
    diag_constant: float | None = None

    def __post_init__(self):
        P = require_hermitian(self.matrix)
        object.__setattr__(self, "matrix", P)
        object.__setattr__(self, "rank", int(self.rank))
        if self.diag_constant is not None:
            object.__setattr__(self, "diag_constant", float(self.diag_constant))
        numbers = projection_numbers(P, self.diag_constant)
        failed = projection_failures(numbers, self.rank, 1e-8, 1e-10)
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
    """
    diag = np.diag(P).real
    trace = float(np.trace(P).real)
    deviation = None if diag_target is None else float(np.max(np.abs(diag - diag_target)))
    return {
        "idempotency_residual": float(np.max(np.abs(P @ P - P))),
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
    V = family.vectors
    if V.shape[1] < 1:
        raise ValueError("ambient dimension must be >= 1")
    S = V.conj().T @ V
    S = 0.5 * (S + S.conj().T)
    w = np.linalg.eigvalsh(S)
    return float(w[0]), float(w[-1])


def _classify_tightness(spread, a_spec, col_dev, a_col, tol):
    """Combine the spectral and column tightness verdicts.

    Both pass -> tight, return the spectral constant (the constants must
    agree within 10*tol). Both fail -> not tight. Split verdicts are
    tolerated while the failing side is within 10*tol, beyond which the two
    mathematically equivalent characterizations have genuinely diverged and
    an InternalInconsistencyError is raised.
    """
    tight_spec = spread <= tol
    tight_col = col_dev <= tol
    if tight_spec and tight_col:
        if abs(a_spec - a_col) > 10 * tol:
            raise InternalInconsistencyError(
                f"tightness constants disagree: spectral {a_spec} vs columns {a_col}"
            )
        return a_spec
    if tight_spec != tight_col:
        if max(spread, col_dev) > 10 * tol:
            raise InternalInconsistencyError(
                "tightness characterizations disagree: "
                f"eigenvalue spread {spread:.3e}, column deviation {col_dev:.3e}, tol {tol:.3e}"
            )
    return None


def is_tight_frame(family: FrameFamily, tol: float = FRAME_CONFIRM_TOL) -> float | None:
    """Return the tightness constant if the family is tight within tol, else None.

    Tightness is decided spectrally (frame-bound spread <= tol) and
    cross-checked against the column characterization (orthogonal columns,
    equal column square sums). The two must agree; see _classify_tightness.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = frame_bounds(family)
    spread = hi - lo
    a_spec = 0.5 * (lo + hi)
    defect = column_orthogonality_defect(family.vectors)
    sums = col_square_sums(family.vectors)
    a_col = float(np.mean(sums))
    col_dev = max(defect, float(np.max(np.abs(sums - a_col))))
    return _classify_tightness(spread, a_spec, col_dev, a_col, tol)


def projection_from_tight_frame(family: FrameFamily, tightness: float) -> ProjectionMatrix:
    """Orthogonal projection spanned by a tight family: gram of rows / sqrt(tightness).

    Requires the family to be tight with the given constant within 1e-8.
    The result has rank d (ProjectionMatrix raises ValueError when the trace
    is not within 1e-6 of d); when the family is unit-norm the diagonal is
    the constant 1/tightness.
    """
    if not tightness > 0:
        raise ValueError("tightness must be positive")
    a = is_tight_frame(family, FRAME_CONFIRM_TOL)
    if a is None or abs(a - tightness) > FRAME_CONFIRM_TOL:
        raise ValueError(
            f"family is not {tightness}-tight within {FRAME_CONFIRM_TOL}"
            + (f" (measured constant {a})" if a is not None else "")
        )
    P = gram(family.vectors / math.sqrt(tightness))
    unit_rows = float(np.max(np.abs(row_square_sums(family.vectors) - 1.0))) <= 1e-10
    diag_constant = 1.0 / tightness if unit_rows else None
    return ProjectionMatrix(P, family.dim, diag_constant)


def _validate_subset(subset, dim: int) -> list[int]:
    idx = sorted(int(i) for i in subset)
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= dim:
        raise ValueError(f"subset indices must lie in [0, {dim})")
    if len(set(idx)) != len(idx):
        raise ValueError("subset indices must be distinct")
    return idx


def complement_duality_check(proj: ProjectionMatrix, subset) -> tuple[float, float]:
    """(lambda_min of P on the subset, lambda_max of I-P on the subset).

    For an orthogonal projection P and any principal subset A, compressing
    P and its complement to A gives lambda_min(P|_A) + lambda_max((I-P)|_A)
    = 1. The identity is asserted to 1e-8 before returning; a violation
    means an eigensolver bug, not a property of the input.
    """
    idx = _validate_subset(subset, proj.dim)
    sub = proj.matrix[np.ix_(idx, idx)]
    riesz_side = hermitian_extremal_eig(sub, "min")
    comp = np.eye(proj.dim, dtype=np.complex128) - proj.matrix
    paving_side = hermitian_extremal_eig(comp[np.ix_(idx, idx)], "max")
    if abs(riesz_side + paving_side - 1.0) > 1e-8:
        raise InternalInconsistencyError(
            f"duality identity violated: {riesz_side} + {paving_side} != 1"
        )
    return riesz_side, paving_side
