"""Dense complex matrix substrate.

Construction of unitary DFT matrices, column rescaling, Gram matrices,
extremal eigenvalues of Hermitian matrices, and the matrix CSV interchange
format used by the command line tools. Matrices are numpy complex128 arrays;
functions here return read-only arrays so results behave as values.

Conventions, fixed once:
  * indices are zero-based everywhere;
  * the inner product <u, v> is conjugate-linear in the second argument,
    so gram(F)[i, j] = sum_a F[i, a] * conj(F[j, a]).
"""

import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError
from .serialize import format_complex

__all__ = [
    "HERMITIAN_TOL",
    "as_complex_matrix",
    "require_hermitian",
    "dft_matrix",
    "scale_columns",
    "gram",
    "hermitian_extremal_eig",
    "column_orthogonality_defect",
    "row_square_sums",
    "col_square_sums",
    "write_matrix_csv",
    "read_matrix_csv",
]

# Absolute deviation allowed between H and its conjugate transpose.
HERMITIAN_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_complex_matrix(a) -> np.ndarray:
    """Validate and copy input into a read-only 2-d complex128 array.

    Rejects non-2-d input and non-finite entries.
    """
    out = np.array(a, dtype=np.complex128, copy=True, order="C")
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return _frozen(out)


def require_hermitian(h, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return h as a validated square Hermitian matrix.

    The deviation max|H - H^*| must not exceed tol (absolute).
    """
    H = as_complex_matrix(h)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"matrix is not square: shape {H.shape}")
    dev = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {tol:.3e}")
    return H


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entry (j, k) = omega^(jk) / sqrt(n).

    omega = exp(+2*pi*i/n) and j, k run from 0. The exponent j*k is reduced
    mod n before exponentiation, which keeps every entry an exact unimodular
    phase over sqrt(n) even for large n.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("n must be an integer")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n, dtype=np.int64)
    phase = (idx[:, None] * idx[None, :]) % n
    out = np.exp((2j * np.pi / n) * phase) / math.sqrt(n)
    return _frozen(out)


def scale_columns(a, weights) -> np.ndarray:
    """Multiply column j of a by the nonnegative real weight weights[j].

    Column rescaling preserves column orthogonality; if every row of `a`
    square-sums to s, every row of the result square-sums to
    s * mean(weights^2) when `a` has entries of constant modulus. For the
    matrices built here weights are chosen so the rescaled rows stay unit.
    """
    A = as_complex_matrix(a)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != A.shape[1]:
        raise ValueError(
            f"need one weight per column: {A.shape[1]} columns, got shape {w.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return _frozen(A * w[None, :])


def gram(f) -> np.ndarray:
    """Gram matrix of the rows of f: G[i, j] = <row_i, row_j>.

    The product is explicitly Hermitized ((G + G^*)/2, moving entries by
    under 1e-15) so downstream eigenvalue and idempotency checks see exact
    Hermitian structure.
    """
    F = as_complex_matrix(f)
    G = F @ F.conj().T
    G = 0.5 * (G + G.conj().T)
    return _frozen(G)


def hermitian_extremal_eig(h, which: str) -> float:
    """Smallest (which="min") or largest (which="max") eigenvalue of a Hermitian matrix."""
    if which not in ("min", "max"):
        raise ValueError(f'which must be "min" or "max", got {which!r}')
    H = require_hermitian(h)
    if H.shape[0] == 0:
        raise ValueError("matrix must be at least 1 x 1")
    w = np.linalg.eigvalsh(H)
    return float(w[0] if which == "min" else w[-1])


def column_orthogonality_defect(a) -> float:
    """Largest |<col_i, col_j>| over i != j; 0.0 for single-column input."""
    A = as_complex_matrix(a)
    if A.shape[1] < 2:
        return 0.0
    M = A.conj().T @ A
    np.fill_diagonal(M, 0.0)
    return float(np.max(np.abs(M)))


def row_square_sums(a) -> np.ndarray:
    """Real vector of per-row sums of squared entry moduli."""
    A = as_complex_matrix(a)
    return _frozen(np.sum(np.abs(A) ** 2, axis=1))


def col_square_sums(a) -> np.ndarray:
    """Real vector of per-column sums of squared entry moduli."""
    A = as_complex_matrix(a)
    return _frozen(np.sum(np.abs(A) ** 2, axis=0))


def write_matrix_csv(a, path) -> None:
    """Write a matrix as CSV: header '# rows cols', one row per line.

    Entries are serialized as re{sign}imj tokens (e.g. 0.5-0.5j) with 17
    significant digits, so files are byte-stable and round-trip exactly.
    A matrix with no rows or columns raises ValueError: the reader refuses it.
    """
    A = as_complex_matrix(a)
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"cannot write a {A.shape[0]} x {A.shape[1]} matrix: need at least 1 x 1")
    lines = [f"# {A.shape[0]} {A.shape[1]}"]
    for row in A:
        lines.append(",".join(format_complex(z) for z in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by write_matrix_csv.

    Raises MatrixParseError on any structural problem: missing or malformed
    header, wrong row/column counts, unparseable or non-finite entries.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise MatrixParseError(f"{path}: missing '# rows cols' header")
    head = lines[0][1:].split()
    if len(head) != 2:
        raise MatrixParseError(f"{path}: header must be '# rows cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixParseError(f"{path}: non-integer dimensions in header") from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"{path}: bad dimensions {rows} x {cols}")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixParseError(f"{path}: expected {rows} rows, found {len(body)}")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, line in enumerate(body):
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != cols:
            raise MatrixParseError(
                f"{path}: row {i} has {len(tokens)} entries, expected {cols}"
            )
        for j, tok in enumerate(tokens):
            try:
                z = complex(tok)
            except ValueError:
                raise MatrixParseError(f"{path}: bad entry {tok!r} at ({i}, {j})") from None
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise MatrixParseError(f"{path}: non-finite entry at ({i}, {j})")
            out[i, j] = z
    return _frozen(out)
