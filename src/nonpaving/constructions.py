"""Stacked rescaled-DFT frames and the entry-shrinking doubling map.

The centerpiece is an r^2*n x r*n matrix built from r copies of the r*n-point
DFT, each copy rescaled column by column. Block k (1-based) zeroes its first
(k-1)(n-1) columns, weights the next n-1 columns by
sqrt(r - delta_1 - ... - delta_{k-1}), and weights the remaining columns by
sqrt(delta_k); the last block has no middle band. The delta schedule

    delta_k = r^2 n / (((r-k+1) n + k - 1) ((r-k) n + k))

is the unique choice that keeps every row square-sum equal to 1 given those
band weights, and it telescopes: delta_1 + ... + delta_k = rk / ((r-k) n + k),
so the total is r and every column square-sums to r. The result is a
unit-norm r-tight family whose Gram (divided by r) is a projection with
constant diagonal 1/r. For k <= r-1 the deltas shrink like 1/n, which is what
defeats uniform r-part Riesz bounds downstream.

So (r, n) fixes a built family, and everything else is derived from it:
`DeltaSchedule(r, n)`, `BlockLayout(schedule)`, `StackedDftFrame(vectors,
layout)`. Only what rounding or given vectors can break is checked: the
partial sums against their closed form, the matrix shape, r-tightness.

The doubling map sends a family F to (1/sqrt 2) [[F, F], [F, -F]], doubling
both the vector count and the dimension while halving squared entry size,
preserving frame bounds and row norms exactly, and keeping the Gram matrix a
block-diagonal stack of copies of the original Gram.
"""

import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .frame_ops import FrameFamily, _require_tight
from .matrix_core import _as_int, _check_budget, _require_indexable, dft_matrix, gram, scale_columns

__all__ = [
    "DeltaSchedule",
    "BlockBands",
    "BlockLayout",
    "StackedDftFrame",
    "delta_schedule",
    "block_layout",
    "build_nonpavable_general",
    "doubling_step",
    "doubled_family",
    "gram_block_residual",
    "restriction_identity_residual",
    "sidecar_dict",
]

# Largest matrix (in entries) that build_nonpavable_general builds and
# doubled_family materializes by default.
DEFAULT_ENTRY_BUDGET = 1 << 24


def _delta_value(r: int, n: int, k: int) -> float:
    # Exact integer numerator and denominator, one correctly rounded division.
    num = r * r * n
    den = ((r - k + 1) * n + k - 1) * ((r - k) * n + k)
    return num / den


@dataclass(frozen=True)
class DeltaSchedule:
    """Column weight schedule delta_1..delta_r of the (r, n) stacked family.

    Only r and n are given; deltas and partial_sums are derived from them.
    Each delta_k is the defining ratio, one correctly rounded division of
    exact integers. The checks are on the floating-point partial sums. The
    sum through delta_k (k correctly rounded deltas, accumulated) is within
    the rounding bound (k + 1) * eps * c of its closed form c = rk/((r-k)n+k)
    (one correctly rounded division); at k = r, c is r, so this also checks
    the total. For k < r, c <= k <= r - 1 because (r-k)n + k >= r, so the
    checked sum is at most (r - 1)(1 + r eps), strictly below r while
    r (r - 1) eps < 1, i.e. for r below 6.7e7 (a schedule that long holds
    gigabytes of deltas); so band weights sqrt(r - sum) are real.
    """

    r: int
    n: int
    deltas: tuple[float, ...] = field(init=False)
    partial_sums: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        _validate_r_n(self.r, self.n)
        r, n = self.r, self.n
        deltas = tuple(_delta_value(r, n, k) for k in range(1, r + 1))
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "partial_sums", tuple(accumulate(deltas)))
        for k, total in enumerate(self.partial_sums, start=1):
            closed = r * k / ((r - k) * n + k)
            if abs(total - closed) > (k + 1) * math.ulp(1.0) * closed:
                raise ValueError(f"partial sum through delta_{k} deviates from {closed}")

    def residual_weight_sq(self, k: int) -> float:
        """r minus the partial sum through delta_{k-1} (the band weight, squared)."""
        k = _block_number(k, self.r)
        return self.r - (self.partial_sums[k - 2] if k >= 2 else 0.0)


def delta_schedule(r: int, n: int) -> DeltaSchedule:
    """The delta schedule for block count r >= 2 and band size n >= 1.

    For n = 1 every delta equals 1 and the family degenerates to stacked
    unscaled DFTs (certificates downstream flag this case as vacuous).
    """
    return DeltaSchedule(r, n)


def _validate_r_n(r, n) -> None:
    _as_int(r, "r", 2)
    _as_int(n, "n", 1)


def _block_number(k, r: int) -> int:
    """k as a 1-based block number of an r-block family, else ValueError."""
    k = _as_int(k, "k", 1)
    if k > r:
        raise ValueError(f"k must be <= {r}, got {k}")
    return k


@dataclass(frozen=True)
class BlockBands:
    """Column spans and weights for one DFT block: zeros, band, tail."""

    zero_width: int
    band_width: int
    band_weight: float
    tail_width: int
    tail_weight: float


@dataclass(frozen=True)
class BlockLayout:
    """Per-block column layout of the (r, n) stacked family of `schedule`.

    Only the schedule is given; blocks are derived from it. Block k
    (1-based, k < r) has zero prefix (k-1)(n-1), a band of n-1 columns at
    weight sqrt(r - sum of earlier deltas), and a tail at weight
    sqrt(delta_k). Block r replaces band and tail with a single tail of
    r+n-1 columns at weight sqrt(delta_r). Nothing is checked here: widths
    total r*n by construction, and every square root is of a positive
    number: DeltaSchedule checks each partial sum against its closed form,
    which keeps every proper partial sum below r (see there).
    """

    schedule: DeltaSchedule
    blocks: tuple[BlockBands, ...] = field(init=False)

    def __post_init__(self):
        s = self.schedule
        r, n = s.r, s.n
        blocks = []
        for k in range(1, r + 1):
            zero, band = (k - 1) * (n - 1), (n - 1 if k < r else 0)
            band_w = math.sqrt(s.residual_weight_sq(k)) if k < r else 0.0
            tail_w = math.sqrt(s.deltas[k - 1])
            blocks.append(BlockBands(zero, band, band_w, r * n - zero - band, tail_w))
        object.__setattr__(self, "blocks", tuple(blocks))

    def _block(self, k: int) -> BlockBands:
        return self.blocks[_block_number(k, self.schedule.r) - 1]

    def column_weights(self, k: int) -> np.ndarray:
        """Length-r*n weight vector for block k (1-based)."""
        b = self._block(k)
        w = np.zeros(self.schedule.r * self.schedule.n)
        w[b.zero_width : b.zero_width + b.band_width] = b.band_weight
        w[b.zero_width + b.band_width :] = b.tail_weight
        return w

    def band_columns(self, k: int) -> range:
        """Global column indices of block k's band (empty for k = r or n = 1)."""
        b = self._block(k)
        return range(b.zero_width, b.zero_width + b.band_width)

    def block_rows(self, k: int) -> range:
        """Global row indices of block k: (k-1)*r*n .. k*r*n - 1."""
        k = _block_number(k, self.schedule.r)
        rn = self.schedule.r * self.schedule.n
        return range((k - 1) * rn, k * rn)


def block_layout(r: int, n: int) -> BlockLayout:
    """Column layout for the (r, n) stacked family."""
    return BlockLayout(delta_schedule(r, n))


@dataclass(frozen=True, eq=False)
class StackedDftFrame(FrameFamily):
    """A built family together with the column layout it was built from.

    The layout carries the schedule, and the schedule carries r and n; all
    three are read from it, not stored again. Construction checks that the
    vectors have shape (r^2 n, r n) and that they are r-tight by the one
    tightness rule, `frame_ops._require_tight`.
    """

    layout: BlockLayout

    def __post_init__(self):
        super().__post_init__()
        r, n = self.r, self.n
        shape = (r * r * n, r * n)
        if self.vectors.shape != shape:
            raise ValueError(f"expected shape {shape}, got {self.vectors.shape}")
        _require_tight(self, float(r))

    @property
    def schedule(self) -> DeltaSchedule:
        return self.layout.schedule

    @property
    def r(self) -> int:
        return self.schedule.r

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def vacuous(self) -> bool:
        """True when n = 1: every delta is 1 and the shrinking bound says nothing."""
        return self.n == 1


def build_nonpavable_general(r: int, n: int) -> StackedDftFrame:
    """Stack r rescaled copies of the r*n-point DFT per the block layout.

    Returns a unit-norm r-tight family of r^2*n vectors in dimension r*n.
    Raises ResourceLimitError, before anything is allocated, when its
    r^3 n^2 entries exceed DEFAULT_ENTRY_BUDGET.
    """
    layout = block_layout(r, n)
    rows, cols = r * r * n, r * n
    _require_indexable((rows, cols), 16)
    _check_budget(rows * cols, 1, 0, DEFAULT_ENTRY_BUDGET, f"family would hold {rows}*{cols}"
                  f" entries, over the budget of {DEFAULT_ENTRY_BUDGET}")
    base = dft_matrix(r * n)
    stack = np.vstack([scale_columns(base, layout.column_weights(k)) for k in range(1, r + 1)])
    return StackedDftFrame(stack, layout)


def doubling_step(family: FrameFamily) -> FrameFamily:
    """One doubling: F -> (1/sqrt 2) [[F, F], [F, -F]].

    Doubles count and dimension, multiplies every entry by 1/sqrt(2),
    preserves row norms and frame bounds exactly, and makes the Gram two
    diagonal copies of the input Gram. The result is a plain FrameFamily,
    so doubling runs no eigensolve.
    """
    V = family.vectors
    m, d = V.shape
    out = np.empty((2 * m, 2 * d), dtype=np.complex128)
    np.divide(V, math.sqrt(2.0), out=out[:m, :d])
    out[:m, d:] = out[m:, :d] = out[:m, :d]
    # (-V)/sqrt 2, not -(V/sqrt 2): the two differ in the sign of some zeros.
    lower_right = np.negative(V, out=out[m:, d:])
    lower_right /= math.sqrt(2.0)
    return FrameFamily(out)


def doubled_family(
    family: FrameFamily, steps: int, entry_budget: int = DEFAULT_ENTRY_BUDGET
) -> FrameFamily:
    """Apply doubling_step `steps` times (steps = 0 returns the input).

    After K steps the result is 2^K * M x 2^K * d with max entry modulus
    2^(-K/2) times the input's, and its Gram is 2^K diagonal copies of the
    input Gram. Coefficient vectors supported on the first M indices see the
    original geometry: the squared norm of the combination they form is
    unchanged. Raises ResourceLimitError when the output would exceed
    entry_budget entries.
    """
    steps = _as_int(steps, "steps", 0)
    entry_budget = _as_int(entry_budget, "entry_budget", 1)
    entries = family.count * family.dim
    _check_budget(entries, 4, steps, entry_budget, f"doubled family would hold {entries}*4^{steps}"
                  f" entries, over the budget of {entry_budget}")
    # An empty family passes every entry budget while its other dimension
    # still doubles. From 63 steps on a nonzero dimension is past numpy's
    # index range, so the shift stops there and keeps the verdict.
    k = min(steps, 63)
    _require_indexable((family.count << k, family.dim << k), 16)
    out = family
    for _ in range(steps):
        out = doubling_step(out)
    return out


def _signed_copies(V: np.ndarray, M: int, d: int) -> bool:
    """True when V is S (x) B up to the sign of zeros: C = 2^K copies, shape
    (C*M, C*d), and every M x d block (i, c) equal to S[i, c] times block
    (0, 0), for the +-1 Sylvester matrix S of doubling_step's recursion
    [[S, S], [S, -S]]. Each block row is compared with == on real and
    imaginary parts against B tiled C times or its negative, as S's signs
    say; the temporaries are those two block rows of floats and the
    booleans of one block row."""
    C = V.shape[0] // M
    if C & (C - 1) or V.shape != (C * M, C * d):
        return False
    S = np.ones((1, 1), dtype=bool)
    while len(S) < C:
        S = np.block([[S, S], [S, ~S]])
    rows = V.view(np.float64).reshape(C, M, 2 * C * d)
    top = np.tile(rows[0, :, : 2 * d], C)
    neg = -top
    plus = np.repeat(S, 2 * d, axis=1)
    return all(np.all((row == top) | ~p) and np.all((row == neg) | p) for row, p in zip(rows, plus))


def gram_block_residual(doubled: FrameFamily, seed_family: FrameFamily) -> float:
    """Max deviation of the doubled Gram from diagonal copies of the seed Gram.

    Computed one M x M block at a time, block (i, j) as the product of copy
    i's rows with the conjugate of copy j's, minus the seed Gram when
    i = j, so the full Gram of a large doubled family is never formed. The
    number of copies C is inferred from the row counts, which must divide
    evenly. Each block is its own pair product, not a slice of a block-row
    product: BLAS edge kernels round differently at column offsets that are
    not multiples of 4, so slices of a wider product need not have the
    pair product's bits.

    Which pairs are visited: when the doubled matrix is the Sylvester
    Kronecker product S (x) B (`_signed_copies`), as doubled_family's
    output is, only (0, x) for x < C; otherwise every pair i <= j. The
    shortcut is exact: copy i's column block c is s_i(c) B, and
    s_i(c) s_j(c) = s_{i xor j}(c), so every term of block (i, j) equals the
    term of block (0, i xor j) (sign flips are exact), summed in the same
    order, and the two blocks have the same bits; (i, i) goes to (0, 0).
    That is C products in place of C (C + 1) / 2: 64 against 2,080 for
    (2, 4) doubled 6 times. The test's == does not tell -0 from 0, and a
    zero of the other sign can change only the sign of a zero sum, never a
    modulus.
    """
    M = seed_family.count
    if M == 0 or doubled.count % M != 0:
        raise ValueError("row count of doubled family must be a multiple of the seed's")
    copies = doubled.count // M
    G_seed = gram(seed_family.vectors)
    V = doubled.vectors
    Vc = V.conj()
    pairs = ([(0, x) for x in range(copies)] if _signed_copies(V, M, seed_family.dim)
             else [(i, j) for i in range(copies) for j in range(i, copies)])
    worst = 0.0
    for i, j in pairs:
        block = V[i * M : (i + 1) * M] @ Vc[j * M : (j + 1) * M].T
        if i == j:
            block -= G_seed
        worst = max(worst, float(np.max(np.abs(block))))
    return worst


def restriction_identity_residual(
    doubled: FrameFamily, seed_family: FrameFamily, coefficients
) -> float:
    """Check that combinations over the first M rows keep their squared norm.

    coefficients is an array of shape (num_vectors, M); for each row a the
    residual |  ||a @ doubled[:M]||^2 - ||a @ seed||^2  | is computed and the
    largest is returned.
    """
    M = seed_family.count
    if doubled.count < M:
        raise ValueError("doubled family has fewer rows than the seed")
    C = np.asarray(coefficients, dtype=np.complex128)
    if C.ndim == 1:
        C = C[None, :]
    if C.ndim != 2 or C.shape[1] != M:
        raise ValueError(f"coefficients must have {M} columns")
    top = doubled.vectors[:M]
    lhs = np.sum(np.abs(C @ top) ** 2, axis=1)
    rhs = np.sum(np.abs(C @ seed_family.vectors) ** 2, axis=1)
    return float(np.max(np.abs(lhs - rhs))) if len(lhs) else 0.0


def sidecar_dict(family: StackedDftFrame) -> dict:
    """JSON-ready description of a built family: r, n, deltas, layout."""
    return {
        "r": family.r,
        "n": family.n,
        "deltas": list(family.schedule.deltas),
        "layout": [asdict(b) for b in family.layout.blocks],
    }
