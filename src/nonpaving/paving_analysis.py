"""Riesz bounds over partitions, witness coefficients, and certification.

The Riesz bound of a subset of a frame family is the smallest eigenvalue of
the subset's Gram matrix: the worst squared norm of a unit-coefficient
combination of those vectors. Certification shows that no r-part partition
of a built (r, n) family keeps all parts' bounds large: for every partition,
a pigeonhole argument finds n rows of one DFT block inside a single part,
and a unit coefficient vector in the null space of the block's band columns
combines them into a vector of squared norm at most delta_k, which shrinks
like 1/n. The witness is explicit and is re-verified directly against the
matrix wherever it is reported.

Exhaustive questions over all r^M labeled partitions are answered by one
depth-first branch-and-bound over label prefixes (`_partition_search`). It
reports exactly what a walk over every partition in enumeration order
reports, while computing a few thousand part bounds for (2, 4) instead of
two per partition. Sampled certification keeps its draws as one label
array and checks them with stacked eigensolves and SVDs, grouped by part
size (`_sampled_part_bounds`, `_sampled_witnesses`); every value is bit for
bit what the per-partition functions compute.
"""

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .constructions import StackedDftFrame
from .errors import CertificationError, InternalInconsistencyError, ResourceLimitError
from .frame_ops import FrameFamily, _validate_subset
from .matrix_core import gram

__all__ = [
    "DEFAULT_ASSIGNMENT_BUDGET",
    "WITNESS_TOL",
    "Partition",
    "Witness",
    "RieszCertificate",
    "CertificationSummary",
    "partition_from_assignment",
    "enumerate_partitions",
    "riesz_lower_bound",
    "best_partition_riesz",
    "witness_coefficients",
    "certify_nonpavable",
]

# Largest number of labeled assignments an exhaustive walk may visit.
DEFAULT_ASSIGNMENT_BUDGET = 1 << 24

# Slack allowed on the witness bound achieved <= delta_k.
WITNESS_TOL = 1e-8

# Unit roundoff of float64.
_EPS = float(np.finfo(np.float64).eps)

# Singular values below this fraction of the largest are treated as zero
# when the null space of a band sub-block is extracted.
_NULL_REL_TOL = 1e-10

# Largest stack of gathered matrices one batched eigvalsh or svd call gets
# in sampled certification. Bigger stacks save little call overhead and
# raise peak memory: on the sampled benchmark, 1 MiB stacks took 7% less
# time than 128 KiB stacks but peaked at 47.8 MB of RSS against 44.7 MB
# (45.7 MB when each draw was checked on its own).
_STACK_BYTES = 128 * 1024


@dataclass(frozen=True)
class Partition:
    """A split of {0..M-1} into labeled parts (empty parts permitted).

    Parts are stored as sorted tuples; construction validates that the parts
    are disjoint and cover an initial segment of the nonnegative integers.
    """

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(tuple(sorted(int(i) for i in p)) for p in self.parts)
        object.__setattr__(self, "parts", normalized)
        seen: list[int] = []
        for p in normalized:
            seen.extend(p)
        total = len(seen)
        if len(set(seen)) != total:
            raise ValueError("parts must be disjoint")
        if seen and (min(seen) != 0 or max(seen) != total - 1):
            raise ValueError("parts must cover 0..M-1 with no gaps")

    @property
    def size(self) -> int:
        """Number of indices covered (M)."""
        return sum(len(p) for p in self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)


def partition_from_assignment(labels, num_parts: int) -> Partition:
    """Partition from a label sequence: index i goes to part labels[i]."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    buckets: list[list[int]] = [[] for _ in range(num_parts)]
    for i, lab in enumerate(labels):
        lab = int(lab)
        if not 0 <= lab < num_parts:
            raise ValueError(f"label {lab} out of range for {num_parts} parts")
        buckets[lab].append(i)
    return Partition(tuple(tuple(b) for b in buckets))


def _check_assignment_budget(size: int, num_parts: int, budget: int) -> int:
    """Validate the walk's arguments; return num_parts**size if within budget."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if budget < 1:
        raise ValueError("budget must be positive")
    total = num_parts**size
    if total > budget:
        raise ResourceLimitError(
            f"{num_parts}^{size} = {total} assignments exceed the budget of {budget}"
        )
    return total


def enumerate_partitions(
    size: int,
    num_parts: int,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    canonical: bool = False,
):
    """Iterate every assignment of {0..size-1} to num_parts labeled parts.

    Assignments are visited in lexicographic order of their label tuples
    (index 0 most significant), each exactly once: num_parts**size in total.
    With canonical=True, index 0 is pinned to part 0, which removes label
    permutations entirely for two parts (for more parts it only removes
    those moving index 0's part). The budget is checked eagerly against
    num_parts**size and exceeding it raises ResourceLimitError.
    """
    _check_assignment_budget(size, num_parts, budget)

    def _walk():
        if canonical:
            for rest in product(range(num_parts), repeat=size - 1):
                yield partition_from_assignment((0,) + rest, num_parts)
        else:
            for labels in product(range(num_parts), repeat=size):
                yield partition_from_assignment(labels, num_parts)

    return _walk()


def _eig_min(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(H)[0])


def riesz_lower_bound(family: FrameFamily, subset) -> float:
    """Smallest eigenvalue of the Gram matrix of the selected rows.

    Equals min over unit coefficient vectors a of || sum_i a_i f_i ||^2, so
    a small value exhibits a near-dependence among the selected vectors.
    """
    idx = _validate_subset(subset, family.count)
    return _eig_min(gram(family.vectors[idx, :]))


def _part_bounds(G: np.ndarray, partition: Partition) -> tuple[list, float]:
    """Per-part Riesz bounds from a precomputed full Gram (None for empty parts)."""
    bounds: list[float | None] = []
    worst = None
    for p in partition.parts:
        if not p:
            bounds.append(None)
            continue
        idx = list(p)
        b = _eig_min(G[np.ix_(idx, idx)])
        bounds.append(b)
        worst = b if worst is None else min(worst, b)
    if worst is None:
        raise ValueError("partition has no nonempty part")
    return bounds, worst


def _prune_margin(G: np.ndarray) -> float:
    """Largest amount a computed part bound can rise when rows are appended.

    Exactly, appending rows to a part can only lower its smallest Gram
    eigenvalue (Cauchy interlacing: the old Gram is a principal submatrix
    of the new one). The computed values can rise, by rounding alone.
    eigvalsh is backward stable: what it returns for an s x s Hermitian H
    are the exact eigenvalues of H + E with ||E||_2 <= p(s) eps ||H||_2, so
    (Weyl) each is off by at most that much. We take p(s) = 4 s^2, above
    the s^2 growth of worst-case Householder tridiagonalisation analyses,
    with s <= M and ||H||_2 <= ||H||_F <= ||G||_F for any principal
    submatrix H of G. The bound computed for a part then exceeds the one
    computed for any subset of it by less than twice that error, which is
    the margin; the slack in p also covers the roundings of ||G||_F and of
    the sums the margin enters.
    """
    size = G.shape[0]
    return 2.0 * 4.0 * size * size * _EPS * float(np.linalg.norm(G))


@dataclass(frozen=True, eq=False)
class _SearchResult:
    """Outcome of `_partition_search` with the work it took.

    partition is the first maximizer in lexicographic label order,
    part_bounds its per-part bounds (None for empty parts) and value their
    minimum, all exactly as `_part_bounds` computes them; nodes counts the
    label prefixes examined and eigensolves the part bounds computed.
    """

    partition: Partition
    part_bounds: tuple
    value: float
    nodes: int
    eigensolves: int


def _partition_search(
    G: np.ndarray,
    num_parts: int,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    threshold: float = math.inf,
) -> _SearchResult:
    """Max over labeled partitions of the min nonempty-part Riesz bound.

    Branch-and-bound over label prefixes, depth first, children in label
    order, so leaves come in the lexicographic order of
    `enumerate_partitions`. Rows are appended in index order, so each
    part's index list stays sorted and its bound is computed from the same
    `G[np.ix_(idx, idx)]` that `_part_bounds` uses; a leaf's value is the
    min of those per-part values, bit for bit the flat walk's value.

    A prefix whose nonempty parts' min, plus `_prune_margin(G)`, is at or
    below the best leaf so far is not extended: no leaf below it can be
    strictly better, so the first maximizer is the flat walk's. Each
    examined prefix (node) costs one eigensolve, for the part it changed.

    The first leaf in lexicographic order whose value exceeds `threshold`
    raises CertificationError: best never exceeds the threshold, so no
    skipped leaf does either. The budget is checked eagerly on
    num_parts**M, which is the number of partitions the search covers.
    """
    size = G.shape[0]
    _check_assignment_budget(size, num_parts, budget)
    margin = _prune_margin(G)
    last = size - 1
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    values = [math.inf] * num_parts  # bound of each part; inf while empty
    labels = [0] * size
    best = -math.inf
    best_labels: list[int] = []
    best_values: list[float] = []
    nodes = eigensolves = 0

    def descend(i: int) -> None:
        nonlocal best, best_labels, best_values, nodes, eigensolves
        for j in range(num_parts):
            nodes += 1
            labels[i] = j
            part = parts[j]
            part.append(i)
            before = values[j]
            values[j] = _eig_min(G[np.ix_(part, part)])
            eigensolves += 1
            value = min(values)
            if i == last:
                if value > threshold:
                    raise CertificationError(
                        f"partition keeps min-part bound {value} above {threshold}",
                        partition=partition_from_assignment(labels, num_parts),
                    )
                if value > best:
                    best, best_labels, best_values = value, labels[:], values[:]
            elif value + margin > best:
                descend(i + 1)
            part.pop()
            values[j] = before

    descend(0)
    return _SearchResult(
        partition_from_assignment(best_labels, num_parts),
        tuple(None if v == math.inf else v for v in best_values),
        best,
        nodes,
        eigensolves,
    )


def best_partition_riesz(
    family: FrameFamily,
    num_parts: int,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> tuple[Partition, float]:
    """Maximize, over all labeled partitions, the minimum per-part Riesz bound.

    Exhaustive within the budget on num_parts**count assignments: an
    interlacing branch-and-bound covers every assignment and returns the
    first partition attaining the maximum in enumeration order, with the
    minimum over nonempty parts of the part's Riesz bound.
    """
    result = _partition_search(gram(family.vectors), num_parts, budget=budget)
    return result.partition, result.value


@dataclass(frozen=True, eq=False)
class Witness:
    """Explicit coefficients defeating one part of one partition.

    k names the DFT block and its delta_k (1-based, k <= r-1); part is the
    0-based label of the partition part the rows came from; indices are the
    selected global row indices (at least n of block k's rows, all in that
    part); coefficients is the unit coefficient vector aligned with indices;
    achieved_norm_sq = || sum_i coefficients[i] * row_i ||^2 <= delta_k.
    """

    k: int
    part: int
    indices: tuple[int, ...]
    coefficients: np.ndarray
    achieved_norm_sq: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=np.complex128, copy=True)
        if c.ndim != 1 or c.shape[0] != len(self.indices):
            raise ValueError("need one coefficient per selected index")
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coefficients must have unit norm, got {norm!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.achieved_norm_sq < 0:
            raise ValueError("achieved_norm_sq must be nonnegative")


def _block_witnesses(
    sub: np.ndarray, band: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness coefficients for a stack sub (B, s, D) of s rows of one block.

    For each selection, a unit vector in the null space of its band
    sub-block (the band columns of its rows, transposed) is taken from a
    full singular value decomposition: singular values below _NULL_REL_TOL
    times the largest count as zero, and among the null basis vectors the
    one with the largest first coordinate (in modulus) is chosen, ties to
    the earliest, which makes the selection deterministic. An empty band
    gives the first unit vector. Returns the coefficients (B, s), the
    squared norms (B,) of the combinations they make, and a mask of the
    selections whose null space came out nonempty.

    Every step acts on one selection at a time inside numpy (LAPACK per
    matrix, BLAS dots for the norm as np.linalg.norm takes it), so a
    selection gets the same bits in any stack, alone included.
    """
    count, s, _ = sub.shape
    if not band:
        coeff = np.zeros((count, s), dtype=np.complex128)
        coeff[:, 0] = 1.0
        found = np.ones(count, dtype=bool)
    else:
        blocks = sub[:, :, band.start:band.stop].transpose(0, 2, 1)
        _, sv, vh = np.linalg.svd(blocks, full_matrices=True)
        smax = sv[:, 0]
        rank = np.where(smax > 0, np.sum(sv > _NULL_REL_TOL * smax[:, None], axis=1), 0)
        found = rank < s
        lead = np.abs(vh[:, :, 0])
        lead[np.arange(s) < rank[:, None]] = -1.0  # rows spanning the band's row space
        v = np.conj(vh[np.arange(count), lead.argmax(axis=1)])
        re, im = v.real[:, None, :], v.imag[:, None, :]
        sqnorm = (re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
        coeff = v / np.sqrt(sqnorm)
    combo = coeff[:, None, :] @ sub
    return coeff, np.sum(np.abs(combo[:, 0]) ** 2, axis=1), found


def _block_witness(
    family: StackedDftFrame, k: int, rows: tuple[int, ...]
) -> tuple[np.ndarray, float]:
    """Unit coefficients on `rows` of block k killing its band, and the
    squared norm of the combination they make."""
    sub = family.vectors[None, list(rows), :]
    coeff, achieved, found = _block_witnesses(sub, family.layout.band_columns(k))
    if not found[0]:
        raise InternalInconsistencyError("null space unexpectedly empty")
    return coeff[0], float(achieved[0])


def _witness_table(family: StackedDftFrame) -> dict[tuple[int, tuple[int, ...]], float]:
    """Achieved witness norm for every (k, rows) a witness can be built from.

    `witness_coefficients` builds block k's candidate from the rows of block
    k in the part holding the most of them, at least n of its r*n. Any
    subset of the block with at least n rows is such a selection (put it
    in part 0 and spread the rest of the block evenly over the other
    parts, none of which then holds more), so the table lists exactly the
    candidates over all partitions: for (2, 4), 163 entries against 65,536
    partitions. Entries are bit-identical to the achieved_norm_sq the
    per-partition call computes.
    """
    rn = family.r * family.n
    table = {}
    for k in range(1, family.r):
        block = range((k - 1) * rn, k * rn)
        for size in range(family.n, rn + 1):
            for rows in combinations(block, size):
                table[(k, rows)] = _block_witness(family, k, rows)[1]
    return table


def witness_coefficients(family: StackedDftFrame, partition: Partition) -> Witness:
    """Find witness coefficients for a partition of a built (r, n) family.

    For each k in 1..r-1, the rows of block k (row indices (k-1)rn..krn-1)
    are spread over r parts, so some part holds at least n of them; among
    parts the one holding the most is taken (ties to the lowest label).
    Those rows vanish on the earlier blocks' band columns, and a unit
    coefficient vector in the null space of their own band columns (n-1
    constraints against >= n vectors) combines them into a vector supported
    on the tail, of squared norm at most delta_k. The witness with the
    smallest achieved norm over k is returned.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("witness extraction needs a built family with layout metadata")
    r, n = family.r, family.n
    rn = r * n
    if partition.num_parts != r or partition.size != family.count:
        raise ValueError(
            f"partition must split {family.count} indices into {r} parts, "
            f"got {partition.size} into {partition.num_parts}"
        )
    best: Witness | None = None
    for k in range(1, r):
        lo, hi = (k - 1) * rn, k * rn
        chosen_part, chosen_rows = -1, ()
        for j, p in enumerate(partition.parts):
            rows = tuple(i for i in p if lo <= i < hi)
            if len(rows) > len(chosen_rows):
                chosen_part, chosen_rows = j, rows
        if len(chosen_rows) < n:
            raise InternalInconsistencyError(
                f"pigeonhole failed for block {k}: largest intersection {len(chosen_rows)} < {n}"
            )
        coeff, achieved = _block_witness(family, k, chosen_rows)
        wit = Witness(k, chosen_part, chosen_rows, coeff, achieved)
        if best is None or wit.achieved_norm_sq < best.achieved_norm_sq:
            best = wit
    assert best is not None
    delta = family.schedule.deltas[best.k - 1]
    if best.achieved_norm_sq > delta + WITNESS_TOL:
        raise InternalInconsistencyError(
            f"witness achieved {best.achieved_norm_sq}, above delta_{best.k} = {delta}"
        )
    return best


@dataclass(frozen=True, eq=False)
class RieszCertificate:
    """Per-part Riesz bounds for one partition, with an optional witness.

    part_bounds aligns with partition.parts (None for empty parts);
    min_part_bound is the smallest bound among nonempty parts. When a
    witness is attached, its achieved norm must dominate the bound of the
    part it lives in (the bound is a minimum over all unit coefficient
    vectors on the part, the witness uses particular ones).
    """

    partition: Partition
    part_bounds: tuple
    min_part_bound: float
    witness: Witness | None = None

    def __post_init__(self):
        if len(self.part_bounds) != self.partition.num_parts:
            raise ValueError("need one bound slot per part")
        object.__setattr__(self, "part_bounds", tuple(self.part_bounds))
        finite = [b for b in self.part_bounds if b is not None]
        if not finite:
            raise ValueError("certificate needs at least one nonempty part")
        if abs(min(finite) - self.min_part_bound) > 1e-12:
            raise ValueError("min_part_bound does not match part_bounds")
        if self.witness is not None:
            anchor = self.part_bounds[self.witness.part]
            if anchor is None:
                raise ValueError("witness points at an empty part")
            if self.witness.achieved_norm_sq < anchor - 1e-10:
                raise InternalInconsistencyError(
                    f"witness achieved {self.witness.achieved_norm_sq} below the "
                    f"part bound {anchor}"
                )


@dataclass(frozen=True, eq=False)
class CertificationSummary:
    """Outcome of certifying a family over many partitions."""

    r: int
    n: int
    mode: str
    count: int | None
    seed: int | None
    partitions_checked: int
    worst_min_part_bound: float
    deltas: tuple[float, ...]
    vacuous: bool
    certificate: RieszCertificate

    def to_json_dict(self) -> dict:
        wit = self.certificate.witness
        witness_dict = None
        if wit is not None:
            witness_dict = {
                "k": wit.k,
                "j": wit.part,
                "indices": list(wit.indices),
                "coefficients": [[float(z.real), float(z.imag)] for z in wit.coefficients],
                "achieved": wit.achieved_norm_sq,
            }
        return {
            "family": {"r": self.r, "n": self.n},
            "mode": self.mode,
            "count": self.count,
            "seed": self.seed,
            "partitions_checked": self.partitions_checked,
            "worst_min_part_bound": self.worst_min_part_bound,
            "bound_delta": list(self.deltas),
            "vacuous": self.vacuous,
            "partition": [list(p) for p in self.certificate.partition.parts],
            "per_part_bounds": list(self.certificate.part_bounds),
            "witness": witness_dict,
            "passed": True,
        }


def _stacks(draws: np.ndarray, item_bytes: int):
    """Consecutive runs of `draws` whose stacks fit in _STACK_BYTES."""
    step = max(1, _STACK_BYTES // item_bytes)
    for start in range(0, len(draws), step):
        yield draws[start:start + step]


def _members(mask: np.ndarray) -> np.ndarray:
    """Sorted column indices of the True entries of each row of `mask`.

    Every row must hold the same number s of them; the result is (rows, s).
    """
    return np.nonzero(mask)[1].reshape(mask.shape[0], -1)


def _sampled_part_bounds(G: np.ndarray, labels: np.ndarray, num_parts: int) -> np.ndarray:
    """Riesz bound of every part of every drawn labeling, inf for empty parts.

    labels is (count, M); the result is (count, num_parts). Parts of equal
    size are gathered into (B, s, s) stacks of principal submatrices and
    solved by one eigvalsh call per stack, which gives each the bits
    `_part_bounds` computes for it.
    """
    bounds = np.full((labels.shape[0], num_parts), np.inf)
    for j in range(num_parts):
        mask = labels == j
        sizes = mask.sum(axis=1)
        for s in np.unique(sizes[sizes > 0]):
            for chunk in _stacks(np.flatnonzero(sizes == s), 16 * s * s):
                idx = _members(mask[chunk])
                stack = G[idx[:, :, None], idx[:, None, :]]
                bounds[chunk, j] = np.linalg.eigvalsh(stack)[:, 0]
    return bounds


def _sampled_witnesses(
    family: StackedDftFrame, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Witness block k and achieved norm of every drawn labeling.

    Per draw, the same choice as `witness_coefficients`: for each block k
    the part holding the most of its rows (ties to the lowest label), and
    the k of smallest achieved norm (ties to the first). Selections of
    equal size share one stacked SVD. A draw whose largest intersection
    with some block has fewer than n rows, or whose null space comes out
    empty, gets achieved = inf, so it fails every witness check.
    """
    r, n = family.r, family.n
    rn = r * n
    count = labels.shape[0]
    vectors = family.vectors
    per_block = np.full((count, r - 1), np.inf)
    broken = np.zeros(count, dtype=bool)
    for k in range(1, r):
        lo = (k - 1) * rn
        block = labels[:, lo:lo + rn]
        tallies = np.stack([(block == j).sum(axis=1) for j in range(r)], axis=1)
        chosen = tallies.argmax(axis=1)
        sizes = tallies.max(axis=1)
        broken |= sizes < n
        band = family.layout.band_columns(k)
        for s in np.unique(sizes[sizes >= n]):
            item_bytes = 16 * s * max(s, vectors.shape[1])  # rows (s x D) or vh (s x s)
            for chunk in _stacks(np.flatnonzero(sizes == s), item_bytes):
                rows = lo + _members(block[chunk] == chosen[chunk, None])
                _, achieved, found = _block_witnesses(vectors[rows], band)
                per_block[chunk, k - 1] = achieved
                broken[chunk] |= ~found
    best = per_block.argmin(axis=1)
    achieved = per_block[np.arange(count), best]
    achieved[broken] = np.inf
    return best + 1, achieved


def _raise_first_sampled_failure(
    family: StackedDftFrame, G: np.ndarray, labels: np.ndarray, threshold: float
) -> None:
    """Re-check the first failing draw one partition at a time and raise
    what that check raises: a bound above the threshold before a bad
    witness, as certifying the draws one by one would."""
    partition = partition_from_assignment(labels, family.r)
    _, value = _part_bounds(G, partition)
    if value > threshold:
        raise CertificationError(
            f"partition keeps min-part bound {value} above {threshold}",
            partition=partition,
        )
    witness_coefficients(family, partition)
    raise InternalInconsistencyError(
        f"batched checks reject partition {partition.parts}, the per-partition checks pass"
    )


def certify_nonpavable(
    family: StackedDftFrame,
    mode: str,
    count: int | None = None,
    seed: int | None = None,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> CertificationSummary:
    """Certify that every checked partition leaves some part's bound small.

    mode "exhaustive" covers every labeled r-part partition of the rows
    (within budget on r**M) with the branch-and-bound of
    `_partition_search`; mode "sampled" draws `count` assignments uniformly
    using the Philox stream for `seed` and checks them in stacks
    (`_sampled_part_bounds`, `_sampled_witnesses`). Each partition must
    satisfy min-part bound <= max(delta_1..delta_{r-1}) + 1e-8, or
    CertificationError carries the first one that does not (in enumeration
    or draw order), and must yield valid witness coefficients, or
    InternalInconsistencyError is raised. Sampled draws fail in draw order,
    and a draw failing both checks fails the bound check. Exhaustive mode
    checks witnesses once per block subset, before the search: every entry
    of `_witness_table` must stay within delta_k + WITNESS_TOL, or
    InternalInconsistencyError names the (k, rows) that fails. The summary
    reports the worst (largest) min-part bound seen, with a full
    certificate for the first partition attaining it. Families with n = 1
    certify trivially and are flagged vacuous.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("certification needs a built family with layout metadata")
    r = family.r
    threshold = max(family.schedule.deltas[: r - 1]) + WITNESS_TOL
    G = gram(family.vectors)
    if mode == "exhaustive":
        if count is not None:
            raise ValueError("count applies only to sampled mode")
        seed = None
        checked = _check_assignment_budget(family.count, r, budget)
        for (k, rows), achieved in _witness_table(family).items():
            delta = family.schedule.deltas[k - 1]
            if achieved > delta + WITNESS_TOL:
                raise InternalInconsistencyError(
                    f"witness for block {k} rows {rows} achieved {achieved}, "
                    f"above delta_{k} = {delta}"
                )
        result = _partition_search(G, r, budget=budget, threshold=threshold)
        worst_partition, worst_bounds, worst_value = (
            result.partition, result.part_bounds, result.value
        )
    elif mode == "sampled":
        if count is None or count < 1:
            raise ValueError("sampled mode needs count >= 1")
        seed = 0 if seed is None else int(seed)
        # Philox is counter-based: the stream is a pure function of the seed.
        rng = np.random.Generator(np.random.Philox(seed))
        labels = rng.integers(0, r, size=(int(count), family.count))
        bounds = _sampled_part_bounds(G, labels, r)
        values = bounds.min(axis=1)
        witness_k, achieved = _sampled_witnesses(family, labels)
        deltas = np.array(family.schedule.deltas)
        failed = (values > threshold) | (achieved > deltas[witness_k - 1] + WITNESS_TOL)
        if failed.any():
            _raise_first_sampled_failure(family, G, labels[failed.argmax()], threshold)
        checked = int(count)
        worst = int(values.argmax())
        worst_partition = partition_from_assignment(labels[worst], r)
        worst_bounds = [None if b == np.inf else float(b) for b in bounds[worst]]
        worst_value = values[worst]
    else:
        raise ValueError(f'mode must be "exhaustive" or "sampled", got {mode!r}')

    certificate = RieszCertificate(
        worst_partition,
        tuple(worst_bounds),
        float(worst_value),
        witness_coefficients(family, worst_partition),
    )
    return CertificationSummary(
        r=r,
        n=family.n,
        mode=mode,
        count=int(count) if count is not None else None,
        seed=seed,
        partitions_checked=checked,
        worst_min_part_bound=float(worst_value),
        deltas=family.schedule.deltas,
        vacuous=family.vacuous,
        certificate=certificate,
    )
