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
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MatrixParseError
from .serialize import format_complex

__all__ = [
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


def require_hermitian(h) -> np.ndarray:
    """Return h as a validated square Hermitian matrix.

    The deviation max|H - H^*| must not exceed HERMITIAN_TOL (absolute).
    """
    H = as_complex_matrix(h)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"matrix is not square: shape {H.shape}")
    dev = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {HERMITIAN_TOL:.3e}")
    return H


def _as_int(value, what: str) -> int:
    """value as an int when it is a Python or numpy integer other than a
    bool, else ValueError; int() would truncate 1.9 to 1 and pick a row
    the caller did not name."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_indexable(shape: tuple[int, ...], itemsize: int) -> None:
    """MemoryError if numpy could not index an array of this shape and item
    size: past intp it raises ValueError ("Maximum allowed size exceeded")
    where a smaller allocation it cannot make raises MemoryError."""
    if math.prod(shape) * itemsize > np.iinfo(np.intp).max:
        raise MemoryError(
            f"a {' x '.join(map(str, shape))} array of {itemsize}-byte entries "
            "is past numpy's index range"
        )


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entry (j, k) = omega^(jk) / sqrt(n).

    omega = exp(+2*pi*i/n) and j, k run from 0. The exponent j*k is reduced
    mod n before exponentiation, which keeps every entry an exact unimodular
    phase over sqrt(n) even for large n.
    """
    if _as_int(n, "n") < 1:
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
    Hermitian structure. The sum is formed in one C-ordered buffer beside G;
    IEEE addition commutes, so its bits are those of 0.5 * (G + G^*).
    """
    F = as_complex_matrix(f)
    G = F @ F.conj().T
    H = np.conjugate(G.T, out=np.empty_like(G))
    H += G
    H *= 0.5
    return _frozen(H)


def hermitian_extremal_eig(h, which: str) -> float:
    """Smallest (which="min") or largest (which="max") eigenvalue of a Hermitian matrix."""
    if which not in ("min", "max"):
        raise ValueError(f'which must be "min" or "max", got {which!r}')
    H = require_hermitian(h)
    if H.shape[0] == 0:
        raise ValueError("matrix must be at least 1 x 1")
    w = np.linalg.eigvalsh(H)
    return float(w[0] if which == "min" else w[-1])


def _column_pass(V: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """(lower, upper, defect, sums) of a complex V with columns, from one S = V^*V:
    the frame bounds of V's rows (extreme eigenvalues of (S + S^*)/2), the
    largest |S_ij| over i != j, and the column square sums.

    V is first scaled by the power of two 2^-e that brings its largest real or
    imaginary part into [0.5, 1), so S cannot overflow whatever V's magnitude;
    bounds and defect are scaled back by 2^2e (inf if the true value is not
    representable). Power-of-two scaling is exact for normal numbers."""
    if V.shape[1] < 1:
        raise ValueError("ambient dimension must be >= 1")
    sums = np.sum(np.abs(V) ** 2, axis=0)
    parts = V.view(np.float64)
    e = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    V = np.ldexp(parts, -e).view(np.complex128)
    S = V.conj().T @ V
    w = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    np.fill_diagonal(S, 0.0)
    with np.errstate(over="ignore"):
        lo, hi, defect = np.ldexp([w[0], w[-1], np.max(np.abs(S))], 2 * e)
    return float(lo), float(hi), float(defect), sums


def column_orthogonality_defect(a) -> float:
    """Largest |<col_i, col_j>| over i != j; 0.0 for single-column input."""
    A = as_complex_matrix(a)
    return _column_pass(A)[2] if A.shape[1] > 1 else 0.0


def row_square_sums(a) -> np.ndarray:
    """Real vector of per-row sums of squared entry moduli."""
    A = as_complex_matrix(a)
    return _frozen(np.sum(np.abs(A) ** 2, axis=1))


def col_square_sums(a) -> np.ndarray:
    """Real vector of per-column sums of squared entry moduli."""
    A = as_complex_matrix(a)
    return _frozen(np.sum(np.abs(A) ** 2, axis=0))


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d integer array, ascending.

    Sort and keep each value unlike its predecessor; np.unique (numpy 2.4)
    takes about 8x as long on the million uint64 halves of a 1024 x 512
    matrix."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def write_matrix_csv(a, path) -> None:
    """Write a matrix as CSV: header '# rows cols', one row per line.

    Entries are serialized as re{sign}imj tokens (e.g. 0.5-0.5j) with 17
    significant digits, so files are byte-stable and round-trip exactly.
    Each distinct entry is formatted once, before the file is opened; rows
    are then gathered from those tokens and streamed to the file one line at
    a time. Entries are told apart by the 64-bit patterns of their real and
    imaginary halves (so -0.0 stays apart from 0.0), deduplicated with
    integer sorts: first the halves, then each entry's pair of half slots.
    A matrix with no rows or columns raises ValueError: the reader refuses it.
    """
    A = as_complex_matrix(a)
    rows, cols = A.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"cannot write a {rows} x {cols} matrix: need at least 1 x 1")
    halves = A.view(np.uint64).reshape(rows * cols, 2)
    keys = _distinct_sorted(halves.ravel())
    # slot_re * len(keys) + slot_im < (2 * rows * cols)**2, which fits in int64
    # for any matrix under 1.5e9 entries.
    pairs = np.searchsorted(keys, halves[:, 0])
    pairs *= keys.size
    pairs += np.searchsorted(keys, halves[:, 1])
    distinct = _distinct_sorted(pairs)
    entries = keys[np.stack(np.divmod(distinct, keys.size), axis=1)].view(np.complex128)
    tokens = np.array([format_complex(z) for z in entries.ravel()], dtype=object)
    slots = np.searchsorted(distinct, pairs).reshape(rows, cols)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {rows} {cols}\n")
        for row in slots:
            fh.write(",".join(tokens[row].tolist()) + "\n")


class _TokenSlots(dict):
    """Stripped token bytes -> slot in `values`: the one entry rule.

    A new token is parsed on lookup and cached only when accepted: ASCII,
    without '_' or parentheses (complex() takes '1_0' and '(1+0j)', which
    the writer never makes), a complex() literal, and finite. A refused
    token raises ValueError whose text is the error, "bad entry '...'" or
    "non-finite entry"."""

    def __init__(self):
        super().__init__()
        self.values: list[complex] = []

    def __missing__(self, tok: bytes) -> int:
        try:
            if tok.translate(None, b"_()") != tok:
                raise ValueError
            z = complex(tok.decode("ascii"))
        except ValueError:
            raise ValueError(f"bad entry {tok.decode()!r}") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("non-finite entry")
        slot = self[tok] = len(self.values)
        self.values.append(z)
        return slot


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by write_matrix_csv.

    Raises MatrixParseError on any structural problem: text that is not
    UTF-8, missing or malformed header (dimensions other than ASCII decimal
    digits included), wrong row/column counts, entries the entry rule
    refuses (unparseable, non-ASCII, holding '_' or parentheses, or
    non-finite), or a row or column whose square sum overflows.
    The bytes are split, not the decoded text, whose splitlines() and
    split() also break at U+2028 and U+2003: lines end at "\n" (a "\r"
    before it is stripped) and header fields are apart by ASCII whitespace.
    Each line is split once, and header and row widths are checked before
    anything is sized from them. Each distinct token is parsed once, by the
    one entry rule in _TokenSlots, and the entries are gathered from those
    values; the first problem in row-major order is the one reported, a
    refused token named by its (i, j).
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    lines = [ln.strip() for ln in data.split(b"\n") if ln.strip()]
    if not lines or not lines[0].startswith(b"#"):
        raise MatrixParseError(f"{path}: missing '# rows cols' header")
    head = lines[0][1:].split()
    if len(head) != 2:
        raise MatrixParseError(f"{path}: header must be '# rows cols'")
    # bytes.isdigit() takes ASCII decimal digits only: int() would also
    # take '1_0', '+2' and '٣'.
    if not all(h.isdigit() for h in head):
        raise MatrixParseError(f"{path}: non-integer dimensions in header")
    rows, cols = int(head[0]), int(head[1])
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"{path}: bad dimensions {rows} x {cols}")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixParseError(f"{path}: expected {rows} rows, found {len(body)}")

    def row_tokens():
        # Each line is split once, and its width is refused before any of its
        # tokens is looked up: the header alone never sizes an allocation.
        for i, line in enumerate(body):
            row = line.split(b",")
            if len(row) != cols:
                raise MatrixParseError(f"{path}: row {i} has {len(row)} entries, expected {cols}")
            yield map(bytes.strip, row)

    slots = _TokenSlots()
    try:
        index = np.fromiter(map(slots.__getitem__, chain.from_iterable(row_tokens())), np.intp)
    except MatrixParseError:
        raise
    except ValueError as exc:
        # Lookups run in row-major order and the table caches only accepted
        # tokens, so the first token missing from it is the one refused.
        k = next(k for k, tok in enumerate(chain.from_iterable(row_tokens())) if tok not in slots)
        raise MatrixParseError(f"{path}: {exc} at {divmod(k, cols)}") from None
    out = np.array(slots.values, dtype=np.complex128)[index].reshape(rows, cols)
    with np.errstate(over="ignore"):
        squares = np.abs(out) ** 2
        for axis, what in ((1, "row"), (0, "column")):
            bad = np.flatnonzero(~np.isfinite(np.sum(squares, axis=axis)))
            if bad.size:
                raise MatrixParseError(f"{path}: square sum of {what} {bad[0]} is not finite")
    return _frozen(out)
