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

from .errors import ResourceLimitError
from .frame_ops import FrameFamily, _require_tight
from .matrix_core import _as_int, _require_indexable, dft_matrix, gram, scale_columns

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

# Largest matrix (in entries) doubled_family will materialize.
DEFAULT_ENTRY_BUDGET = 1 << 24

_SUM_TOL = 1e-12


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
    exact integers. The checks are on the floating-point partial sums:
    each matches the closed form rk/((r-k)n+k) to 1e-12, the total is r to
    1e-12, and every proper partial sum stays strictly below r (so band
    weights are real).
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
            if abs(total - closed) > _SUM_TOL:
                raise ValueError(f"partial sum through delta_{k} deviates from {closed}")
            if k < r and not total < r:
                raise ValueError(f"partial sum through delta_{k} must stay below r")
        if abs(self.partial_sums[-1] - r) > _SUM_TOL:
            raise ValueError(f"deltas must total {r}, got {self.partial_sums[-1]!r}")

    def residual_weight_sq(self, k: int) -> float:
        """r minus the partial sum through delta_{k-1} (the band weight, squared)."""
        if not 1 <= k <= self.r:
            raise ValueError(f"k must be in [1, {self.r}]")
        return self.r - (self.partial_sums[k - 2] if k >= 2 else 0.0)


def delta_schedule(r: int, n: int) -> DeltaSchedule:
    """The delta schedule for block count r >= 2 and band size n >= 1.

    For n = 1 every delta equals 1 and the family degenerates to stacked
    unscaled DFTs (certificates downstream flag this case as vacuous).
    """
    return DeltaSchedule(r, n)


def _validate_r_n(r, n) -> None:
    if _as_int(r, "r") < 2:
        raise ValueError("r must be >= 2")
    if _as_int(n, "n") < 1:
        raise ValueError("n must be >= 1")


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
    number because DeltaSchedule checks each proper partial sum below r.
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
        if not 1 <= k <= self.schedule.r:
            raise ValueError(f"k must be in [1, {self.schedule.r}]")
        return self.blocks[k - 1]

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
        self._block(k)  # validates k
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
    """
    layout = block_layout(r, n)
    _require_indexable((r * r * n, r * n), 16)
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
    out = np.block([[V, V], [V, -V]]) / math.sqrt(2.0)
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
    steps = _as_int(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    entry_budget = _as_int(entry_budget, "entry_budget")
    if entry_budget < 1:
        raise ValueError("entry_budget must be positive")
    entries = family.count * family.dim
    # 4^steps alone is over the budget once 2 * steps reaches its bit length.
    if 2 * steps >= entry_budget.bit_length() or entries << 2 * steps > entry_budget:
        raise ResourceLimitError(
            f"doubled family would hold {entries}*4^{steps} entries, "
            f"over the budget of {entry_budget}"
        )
    out = family
    for _ in range(steps):
        out = doubling_step(out)
    return out


def gram_block_residual(doubled: FrameFamily, seed_family: FrameFamily) -> float:
    """Max deviation of the doubled Gram from diagonal copies of the seed Gram.

    Computed block pair by block pair so the full Gram of a large doubled
    family is never materialized. The number of copies is inferred from the
    row counts, which must divide evenly.
    """
    M = seed_family.count
    if M == 0 or doubled.count % M != 0:
        raise ValueError("row count of doubled family must be a multiple of the seed's")
    copies = doubled.count // M
    G_seed = gram(seed_family.vectors)
    V = doubled.vectors
    worst = 0.0
    for i in range(copies):
        Ri = V[i * M : (i + 1) * M]
        for j in range(i, copies):
            block = Ri @ V[j * M : (j + 1) * M].conj().T
            dev = np.max(np.abs(block - G_seed)) if i == j else np.max(np.abs(block))
            worst = max(worst, float(dev))
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
