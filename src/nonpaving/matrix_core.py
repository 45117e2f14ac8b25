"""Dense complex matrix substrate.

Construction of unitary DFT matrices, column rescaling, Gram matrices,
column checks, and the matrix CSV interchange format used by the command
line tools. Matrices are numpy complex128 arrays; functions here return
read-only arrays so results behave as values.

Conventions, fixed once:
  * indices are zero-based everywhere;
  * the inner product <u, v> is conjugate-linear in the second argument,
    so gram(F)[i, j] = sum_a F[i, a] * conj(F[j, a]).
"""

import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError, ResourceLimitError
from .serialize import format_complex

__all__ = [
    "as_complex_matrix",
    "dft_matrix",
    "scale_columns",
    "gram",
    "column_orthogonality_defect",
    "row_square_sums",
    "col_square_sums",
    "write_matrix_csv",
    "read_matrix_csv",
]

# Bytes of each of gram's two block buffers: 128 x 128 complex entries.
_BLOCK_BYTES = 256 * 1024


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked(out: np.ndarray) -> np.ndarray:
    """out unchanged when it is 2-d with finite entries, else ValueError."""
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def as_complex_matrix(a) -> np.ndarray:
    """Validate and copy input into a read-only 2-d complex128 array.

    Rejects non-2-d input and non-finite entries. The copy is for a matrix
    that is stored (a FrameFamily's vectors, a ProjectionMatrix's matrix), so
    that it cannot change under its holder; a function that only reads its
    input validates it with _as_operand instead.
    """
    return _frozen(_checked(np.array(a, dtype=np.complex128, copy=True, order="C")))


def _as_operand(a) -> np.ndarray:
    """Input validated as as_complex_matrix does, for a function that only
    reads it during the call: `a` itself when it already is a C-ordered
    complex128 array, else a converted copy. A matrix is copied only to be
    stored (as_complex_matrix); a read needs no copy."""
    return _checked(np.asarray(a, dtype=np.complex128, order="C"))


def _as_int(value, what: str, low: int | None = None) -> int:
    """value as an int when it is a Python or numpy integer other than a
    bool, and at least `low` when one is given, else ValueError; int() would
    truncate 1.9 to 1 and pick a row the caller did not name."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return int(value)


def _check_budget(scale: int, base: int, exponent: int, budget: int, message: str) -> None:
    """ResourceLimitError(message) unless scale * base**exponent <= budget.

    All four are ints, budget >= 1 and scale, base, exponent >= 0. The
    exponent is capped at the budget's bit length b, so no power past
    base**b is formed. The cap keeps the verdict: with exponent >= b, a base
    of 2 or more gives base**b > budget already, so the product is over
    exactly when scale is nonzero (a zero scale, an empty family, never is),
    and a base of 0 or 1 gives the same power either way."""
    if scale * base ** min(exponent, budget.bit_length()) > budget:
        raise ResourceLimitError(message)


def _require_indexable(shape: tuple[int, ...], itemsize: int) -> None:
    """ResourceLimitError if numpy could not index an array of this shape and
    item size: past intp it raises ValueError ("Maximum allowed size
    exceeded") where a smaller allocation it cannot make raises MemoryError.
    numpy multiplies the nonzero dimensions only, so a zero one does not hide
    an over-range one, and neither does it here."""
    dims = " x ".join(map(str, shape))
    message = f"a {dims} array of {itemsize}-byte entries is past numpy's index range"
    _check_budget(math.prod(d or 1 for d in shape) * itemsize, 1, 0, np.iinfo(np.intp).max,
                  message)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entry (j, k) = omega^(jk) / sqrt(n).

    omega = exp(+2*pi*i/n) and j, k run from 0. The exponent j*k is reduced
    mod n before exponentiation, which keeps every entry an exact unimodular
    phase over sqrt(n) even for large n.
    """
    n = _as_int(n, "n", 1)
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
    A = _as_operand(a)
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
    Hermitian structure. It is Hermitized in place, one pair of b x b blocks
    at a time (b = 128), each entry from its own sum conj(G_ji) + G_ij, so
    the bits are those of 0.5 * (G + G^*) (IEEE addition commutes). Besides
    the M x M output, the call holds the conjugate of f during the product
    (and a copy of f when f is not a C-ordered complex128 array), then two
    block buffers of _BLOCK_BYTES each.
    """
    F = _as_operand(f)
    G = F @ F.conj().T
    m = G.shape[0]
    b = min(max(m, 1), math.isqrt(_BLOCK_BYTES // 16))
    buf = np.empty((2, b, b), dtype=np.complex128)
    for i in range(0, m, b):
        for j in range(i, m, b):
            upper, lower = G[i : i + b, j : j + b], G[j : j + b, i : i + b]
            h, w = upper.shape
            conj_lower = np.conjugate(lower.T, out=buf[0, :h, :w])
            if i != j:
                lower += np.conjugate(upper.T, out=buf[1, :w, :h])
            upper += conj_lower
    G *= 0.5
    return _frozen(G)


def _hermitian_deviation(P: np.ndarray) -> float:
    """max|P - P^*| of a square P, over the pairs of b x b tiles that gram
    Hermitizes (b = 128): tile (I, J) against the conjugate transpose of
    tile (J, I), for I <= J only, since |P_ij - conj P_ji| and
    |P_ji - conj P_ij| are the same bits (IEEE subtraction is
    antisymmetric). So the maximum has the bits of the whole difference's,
    and beside P the call holds three tile-sized temporaries, not two
    M x M arrays."""
    m = P.shape[0]
    b = math.isqrt(_BLOCK_BYTES // 16)
    return max(float(np.max(np.abs(P[i : i + b, j : j + b] - P[j : j + b, i : i + b].conj().T)))
               for i in range(0, m, b) for j in range(i, m, b))


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
    A = _as_operand(a)
    return _column_pass(A)[2] if A.shape[1] > 1 else 0.0


def row_square_sums(a) -> np.ndarray:
    """Real vector of per-row sums of squared entry moduli."""
    A = _as_operand(a)
    return _frozen(np.sum(np.abs(A) ** 2, axis=1))


def col_square_sums(a) -> np.ndarray:
    """Real vector of per-column sums of squared entry moduli."""
    A = _as_operand(a)
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
    A = _as_operand(a)
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
    """Read a matrix written by write_matrix_csv, in one pass over its rows.

    Raises MatrixParseError on any structural problem: text that is not
    UTF-8, missing or malformed header (dimensions other than ASCII decimal
    digits included), wrong row/column counts, entries the entry rule
    refuses (unparseable, non-ASCII, holding '_' or parentheses, or
    non-finite), or a row or column whose square sum overflows.
    The bytes are split, not the decoded text, whose splitlines() and
    split() also break at U+2028 and U+2003: lines end at "\n" (a "\r"
    before it is stripped) and header fields are apart by ASCII whitespace.
    The file's bytes are dropped once split into lines, and each row's text
    once that row is parsed: the row is split once, its width checked before
    any of its tokens is looked up (the header alone never sizes an
    allocation), and its tokens mapped to slots by the one entry rule in
    _TokenSlots, which parses each distinct token once. The first problem
    in row-major order is the one reported; a refused token is located
    inside its own row and named by its (i, j).
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    # Last line first, so that the loop below pops each row as it parses it.
    lines = [ln for ln in map(bytes.strip, reversed(data.split(b"\n"))) if ln]
    del data
    header = lines.pop() if lines else b""
    if not header.startswith(b"#"):
        raise MatrixParseError(f"{path}: missing '# rows cols' header")
    head = header[1:].split()
    if len(head) != 2:
        raise MatrixParseError(f"{path}: header must be '# rows cols'")
    # bytes.isdigit() takes ASCII decimal digits only: int() would also
    # take '1_0', '+2' and '٣'.
    if not all(h.isdigit() for h in head):
        raise MatrixParseError(f"{path}: non-integer dimensions in header")
    rows, cols = int(head[0]), int(head[1])
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"{path}: bad dimensions {rows} x {cols}")
    if len(lines) != rows:
        raise MatrixParseError(f"{path}: expected {rows} rows, found {len(lines)}")
    slots = _TokenSlots()
    index = []
    for i in range(rows):
        row = lines.pop().split(b",")
        if len(row) != cols:
            raise MatrixParseError(f"{path}: row {i} has {len(row)} entries, expected {cols}")
        try:
            index.append(np.fromiter(map(slots.__getitem__, map(bytes.strip, row)), np.intp, cols))
        except ValueError as exc:
            # The table caches only accepted tokens, so the first token of
            # the row missing from it is the one refused.
            j = next(j for j, tok in enumerate(row) if tok.strip() not in slots)
            raise MatrixParseError(f"{path}: {exc} at {(i, j)}") from None
    out = np.array(slots.values, dtype=np.complex128)[np.vstack(index)]
    with np.errstate(over="ignore"):
        squares = np.abs(out) ** 2
        for axis, what in ((1, "row"), (0, "column")):
            bad = np.flatnonzero(~np.isfinite(np.sum(squares, axis=axis)))
            if bad.size:
                raise MatrixParseError(f"{path}: square sum of {what} {bad[0]} is not finite")
    return _frozen(out)
