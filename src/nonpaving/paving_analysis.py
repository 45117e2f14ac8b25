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
walks one representative per symmetry orbit: restricted-growth labels (a
relabeling keeps every part) and, on a stacked DFT family, lex-leaders under
shifts and reflections of the row index of every block, starting from a
structured incumbent. Orbits of the leaves near the best are re-evaluated,
so it reports exactly what a walk over every partition in enumeration order
reports, while computing 155 part bounds for (2, 4) instead of two per
partition; its witness table takes one SVD call per subset size.
Sampled certification keeps its draws as one label array and checks them
with stacked eigensolves and SVDs, grouped by part size. A draw puts r^2 n
rows of C^{rn} into r parts, so its largest part holds at least rn rows,
and more (a singular Gram, whose bound is at rounding level) unless every
part holds exactly rn. That part's bound, solved first, caps the draw's
value, and all parts are solved only for draws that could fail or be the
worst (`_sampled_values`). Every
distinct witness row set is solved once (`_sampled_witnesses`, by
`_block_witnesses`), so every value is bit for bit what `riesz_lower_bound`
and `witness_coefficients` compute.
"""

import math
from dataclasses import dataclass
from itertools import combinations

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
# in sampled certification. Bigger stacks save some call overhead and raise
# peak memory: on the sampled benchmark's two certify jobs, (3, 2) x 10,000
# and (4, 8) x 2,000 draws, run in one process with one BLAS thread, 1 MiB
# stacks took about 13% less time than 128 KiB stacks but peaked at 45.2 MB
# of RSS against 43.6 MB.
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


def _eig_min(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(H)[0])


def riesz_lower_bound(family: FrameFamily, subset) -> float:
    """Smallest eigenvalue of the Gram matrix of the selected rows.

    Equals min over unit coefficient vectors a of || sum_i a_i f_i ||^2, so
    a small value exhibits a near-dependence among the selected vectors.
    It is taken from the principal submatrix of the full family's Gram at
    the sorted indices, the formula every part bound in this module uses,
    so it equals a certificate's per-part bound bit for bit.
    """
    idx = _validate_subset(subset, family.count)
    return _eig_min(gram(family.vectors)[np.ix_(idx, idx)])


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
    minimum, all exactly as `riesz_lower_bound` computes them; nodes counts the
    label prefixes examined (one eigensolve each), rejected the prefixes the
    symmetry test dropped before any eigensolve, and eigensolves every part
    bound computed, the incumbent's and the orbit re-evaluation's included.
    """

    partition: Partition
    part_bounds: tuple
    value: float
    nodes: int
    eigensolves: int
    rejected: int


class _NearThreshold(Exception):
    """A symmetry-reduced search met a leaf within its window of the threshold."""


def _row_group(G: np.ndarray, block: int, margin: float) -> tuple[list[tuple[int, ...]], float]:
    """Non-identity row maps of the dihedral group, and the window they cost.

    The maps send row a of every block of `block` rows to s*a + t mod block
    (2*block maps with the identity, s = +-1). On a stacked DFT family the
    exact Gram is invariant under the shifts and conjugated by s = -1; the
    defect is the largest Frobenius norm of G[g, g] minus G (or conj(G)) over
    every map g, so it bounds ||E||_2 for every principal submatrix E of those
    differences and no bound compounds along words in the generators. The
    maps are used only when the defect is at most `margin`; the window is
    then 2 * margin + defect (see `_partition_search`). Otherwise, as for a
    family whose rows were reordered, the group is trivial: ([], 0.0).
    """
    size = G.shape[0]
    a = np.arange(size) % block
    base = np.arange(size) - a
    maps, defect = set(), 0.0
    for sign in (1, -1):
        target = G if sign == 1 else G.conj()
        for shift in range(block):
            g = base + (sign * a + shift) % block
            defect = max(defect, float(np.linalg.norm(G[np.ix_(g, g)] - target)))
            maps.add(tuple(g.tolist()))
    maps.discard(tuple(range(size)))
    if defect > margin:
        return [], 0.0
    return sorted(maps), 2.0 * margin + defect


def _structured_labelings(family: StackedDftFrame, num_parts: int) -> np.ndarray:
    """Labelings giving row a of block k the label (a + o_k) mod num_parts.

    One row per offset vector o with o_1 = 0 (other o_1 only relabel the
    parts); for r = 2 parts the two are the residue and alternating splits.
    """
    offsets = np.indices((1,) + (num_parts,) * (family.r - 1)).reshape(family.r, -1).T
    a = np.arange(family.r * family.n)
    return (a + offsets[:, :, None]).reshape(len(offsets), -1) % num_parts


def _canonical(labels) -> tuple[int, ...]:
    """The restricted-growth relabeling: parts numbered by first appearance."""
    relabel: dict[int, int] = {}
    # From a list, not a generator: CPython sizes a tuple built from a
    # generator by resizing, and such tuples pile up in its free lists.
    return tuple([relabel.setdefault(lab, len(relabel)) for lab in labels])


def _undecided_maps(labels: list[int], i: int, maps: list) -> list | None:
    """Maps whose image of the prefix labels[:i + 1] still ties it.

    The image under g has label labels[g[x]] at x, known while g[x] <= i;
    it is relabeled by first appearance, as `_canonical` does. Returns None
    when some image is strictly smaller at its first known difference (no
    completion of the prefix is then least in its orbit), else the maps
    whose image is equal on every known position (a larger one stays larger
    under every completion).
    """
    live = []
    for g in maps:
        relabel: dict[int, int] = {}
        for x in range(i + 1):
            y = g[x]
            if y > i:
                live.append(g)
                break
            c = relabel.setdefault(labels[y], len(relabel))
            if c != labels[x]:
                if c < labels[x]:
                    return None
                break
        else:
            live.append(g)
    return live


def _leader_search(
    G: np.ndarray,
    num_parts: int,
    trigger: float,
    maps: list,
    window: float,
    best: float,
    work: dict[str, int],
) -> tuple[list[int], list[float], float]:
    """Labels, part values and value of the first maximizer over lex-leaders.

    Walks restricted-growth label prefixes depth first, children in label
    order, dropping those some map in `maps` sends to a smaller prefix and
    those whose min part bound plus `_prune_margin(G)` and `window` is at or
    below `best`. A leaf above `trigger` raises: CertificationError naming
    it when `maps` is empty, _NearThreshold otherwise. Every leaf within
    `window` of the best (when it is visited, and at the end) has each of its
    images under `maps` evaluated; the first in lexicographic order of the
    largest value wins. `work` accumulates nodes, rejected and eigensolves.
    """
    size = G.shape[0]
    margin = _prune_margin(G)
    last = size - 1
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    values = [math.inf] * num_parts  # bound of each part; inf while empty
    labels = [0] * size
    leaves = []

    def descend(i: int, used: int, alive: list) -> None:
        nonlocal best
        for j in range(min(used + 1, num_parts)):
            labels[i] = j
            live = _undecided_maps(labels, i, alive)
            if live is None:
                work["rejected"] += 1
                continue
            work["nodes"] += 1
            part = parts[j]
            part.append(i)
            before = values[j]
            values[j] = _eig_min(G[np.ix_(part, part)])
            work["eigensolves"] += 1
            value = min(values)
            if i == last:
                if value > trigger:
                    if maps:
                        raise _NearThreshold
                    raise CertificationError(
                        f"partition keeps min-part bound {value} above {trigger}",
                        partition=partition_from_assignment(labels, num_parts),
                    )
                if value >= best - window:
                    leaves.append((tuple(labels), values[:], value))
                    best = max(best, value)
            elif value + margin + window > best:
                descend(i + 1, max(used, j + 1), live)
            part.pop()
            values[j] = before

    try:
        descend(0, 0, maps)
    finally:
        del descend  # the closure refers to itself: free G and the lists now, not at a full GC
    pool = [leaf for leaf in leaves if leaf[2] >= best - window]
    if maps:
        seen = {leaf[0] for leaf in pool}
        images = sorted({_canonical(leaf[0][y] for y in g) for leaf in pool for g in maps} - seen)
        if images:
            bounds = _sampled_part_bounds(G, np.array(images), num_parts)
            work["eigensolves"] += int(np.isfinite(bounds).sum())
            pool += [(lab, row.tolist(), float(row.min())) for lab, row in zip(images, bounds)]
    return min(pool, key=lambda leaf: (-leaf[2], leaf[0]))


def _partition_search(
    G: np.ndarray,
    num_parts: int,
    threshold: float = math.inf,
    family: StackedDftFrame | None = None,
) -> _SearchResult:
    """Max over labeled partitions of the min nonempty-part Riesz bound.

    Reports exactly what a flat walk over every assignment in lexicographic
    label order (index 0 most significant) reports: its first maximizer,
    whose part bounds are computed from the same `G[np.ix_(idx, idx)]` as
    `riesz_lower_bound` with sorted idx, so its value is bit for bit the
    flat walk's. Rows are appended in index order, so each part's index
    list stays sorted. The walk covers one representative per orbit of a
    symmetry group, depth first over label prefixes (`_leader_search`):

    - Relabeling. Permuting the labels keeps every part, so every bit; the
      lexicographically least relabeling is the restricted-growth string,
      and only those are walked. No window is needed for this.
    - Rows. For a `StackedDftFrame` the exact Gram entry ((k,a),(l,b)) depends
      on k, l and a - b mod rn only, and a -> -a conjugates it, so shifting
      or reflecting the row index of every block keeps every part's exact
      spectrum (`_row_group`). A prefix is dropped when some such map,
      followed by relabeling, sends its known labels to a smaller prefix.
    - Incumbent. The search starts from best = nextafter(v0, -inf), v0 the
      largest value over `_structured_labelings` (the alternating split for
      r = 2 attains delta_1 to rounding).

    Window. eigvalsh returns a part bound within e = `_prune_margin(G)` / 2
    of the exact one (see there). An image H' of a part matrix H under a
    row map is permutation-similar to H (or conj(H)) plus a principal
    submatrix of the measured differences, whose 2-norm is at most the
    defect d (Weyl). So the computed values of a labeling and of its image
    differ by at most margin + d, and the window w = 2 * margin + d covers
    that with a margin to spare for the roundings of the sums it enters.
    The flat walk's first maximizer F has value V, the largest computed
    value; the least member c of its orbit (as relabeled by first
    appearance) is walked, since it survives the symmetry test, and a
    prefix above it is cut only when its value plus margin plus w is at or
    below best <= V, while c's value is at least V - margin - d. So c is
    recorded within w of the final best, its whole orbit is evaluated, and
    the flat walk's rule over the evaluated labelings picks F: every
    labeling of value V was evaluated the same way.

    Threshold. A row-reduced walk that meets a leaf within w of `threshold`,
    or starts from an incumbent there, is run again with the trivial row
    group, whose walk still only cuts leaves at or below best <= threshold.
    Since relabeling keeps bits, the first leaf in lexicographic order
    above the threshold is a restricted-growth string, and that rerun
    raises CertificationError with it. Otherwise every orbit member stays
    below threshold - w + margin + d < threshold. Callers check
    num_parts**M, the number of partitions the search covers, against their
    budget before forming G.
    """
    work = {"nodes": 0, "rejected": 0, "eigensolves": 0}
    maps, window, start = [], 0.0, -math.inf
    if family is not None:
        incumbents = _sampled_part_bounds(G, _structured_labelings(family, num_parts), num_parts)
        work["eigensolves"] += int(np.isfinite(incumbents).sum())
        start = math.nextafter(float(incumbents.min(axis=1).max()), -math.inf)
        maps, window = _row_group(G, family.r * family.n, _prune_margin(G))
    found = None
    if maps and start <= threshold - window:
        try:
            found = _leader_search(G, num_parts, threshold - window, maps, window, start, work)
        except _NearThreshold:
            pass
    if found is None:
        found = _leader_search(G, num_parts, threshold, [], 0.0, min(start, threshold), work)
    labels, values, value = found
    return _SearchResult(
        partition_from_assignment(labels, num_parts),
        tuple(None if v == math.inf else v for v in values),
        value,
        work["nodes"],
        work["eigensolves"],
        work["rejected"],
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
    minimum over nonempty parts of the part's Riesz bound. A built family
    also gets the row symmetries and incumbent of `_partition_search`.
    """
    _check_assignment_budget(family.count, num_parts, budget)
    stacked = family if isinstance(family, StackedDftFrame) else None
    result = _partition_search(gram(family.vectors), num_parts, family=stacked)
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


def _witness_limit(family: StackedDftFrame, k):
    """delta_k + WITNESS_TOL, the most a block-k witness may achieve, for an
    int k or an integer array of them; WITNESS_TOL is read at call time."""
    return np.asarray(family.schedule.deltas)[k - 1] + WITNESS_TOL


def _block_witnesses(
    vectors: np.ndarray, rows: np.ndarray, band: range
) -> tuple[np.ndarray, np.ndarray]:
    """Witness coefficients on each selection of `rows` (B, s): s rows of one block.

    For each selection, a unit vector in the null space of its band
    sub-block (the band columns of its rows, transposed) is taken from a
    full singular value decomposition: singular values below _NULL_REL_TOL
    times the largest count as zero, and among the null basis vectors the
    one with the largest first coordinate (in modulus) is chosen, ties to
    the earliest, which makes the selection deterministic; with n - 1 band
    columns against s >= n rows it is never empty. An empty band gives the
    first unit vector. Returns the coefficients (B, s) and the squared norms
    (B,) of the combinations they make, one SVD call per stack of
    selections that fits in _STACK_BYTES.

    Every step acts on one selection at a time inside numpy (LAPACK per
    matrix, BLAS dots for the norm as np.linalg.norm takes it), so a
    selection gets the same bits in any stack, alone included.
    """
    s = rows.shape[1]
    coeffs, norms = [], []
    for chunk in _stacks(rows, 16 * s * max(s, vectors.shape[1])):  # rows (s x D) or vh (s x s)
        sub = vectors[chunk]
        if not band:
            coeff = np.zeros(chunk.shape, dtype=np.complex128)
            coeff[:, 0] = 1.0
        else:
            blocks = sub[:, :, band.start:band.stop].transpose(0, 2, 1)
            _, sv, vh = np.linalg.svd(blocks, full_matrices=True)
            smax = sv[:, 0]
            rank = np.where(smax > 0, np.sum(sv > _NULL_REL_TOL * smax[:, None], axis=1), 0)
            lead = np.abs(vh[:, :, 0])
            lead[np.arange(s) < rank[:, None]] = -1.0  # rows spanning the band's row space
            v = np.conj(vh[np.arange(len(chunk)), lead.argmax(axis=1)])
            re, im = v.real[:, None, :], v.imag[:, None, :]
            sqnorm = (re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
            coeff = v / np.sqrt(sqnorm)
        coeffs.append(coeff)
        norms.append(np.sum(np.abs((coeff[:, None, :] @ sub)[:, 0]) ** 2, axis=1))
    return np.concatenate(coeffs), np.concatenate(norms)


def _witness_table(family: StackedDftFrame) -> dict[tuple[int, tuple[int, ...]], float]:
    """Achieved witness norm for every (k, rows) a witness can be built from.

    `witness_coefficients` builds block k's candidate from the rows of block
    k in the part holding the most of them, at least n of its r*n. Any
    subset of the block with at least n rows is such a selection (put it
    in part 0 and spread the rest of the block evenly over the other
    parts, none of which then holds more), so the table lists exactly the
    candidates over all partitions: for (2, 4), 163 entries in five stacked
    SVD calls against 65,536 partitions. Entries are bit-identical to the
    achieved_norm_sq the per-partition call computes.
    """
    table = {}
    for k in range(1, family.r):
        block = family.layout.block_rows(k)
        band = family.layout.band_columns(k)
        for size in range(family.n, len(block) + 1):
            subsets = list(combinations(block, size))
            _, norms = _block_witnesses(family.vectors, np.array(subsets), band)
            table.update(zip([(k, rows) for rows in subsets], norms.tolist()))
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
    smallest achieved norm over k, picked by `_sampled_witnesses`, is returned.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("witness extraction needs a built family with layout metadata")
    r = family.r
    if partition.num_parts != r or partition.size != family.count:
        raise ValueError(
            f"partition must split {family.count} indices into {r} parts, "
            f"got {partition.size} into {partition.num_parts}"
        )
    owner = {i: j for j, p in enumerate(partition.parts) for i in p}
    labels = np.array([[owner[i] for i in range(family.count)]])
    kept = {}
    ks, parts, achieved = _sampled_witnesses(family, labels, kept)
    k = int(ks[0])
    wit = Witness(k, int(parts[0]), *kept[k], float(achieved[0]))
    if wit.achieved_norm_sq > _witness_limit(family, k):
        raise InternalInconsistencyError(
            f"witness achieved {wit.achieved_norm_sq}, "
            f"above delta_{k} = {family.schedule.deltas[k - 1]}"
        )
    return wit


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


def _mask_bounds(G: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Riesz bound of the rows each row of `mask` selects, inf where it selects none.

    mask is a boolean (draws, M) array. Selections of equal size are
    gathered into (B, s, s) stacks of principal submatrices and solved by
    one eigvalsh call per stack, which gives each the bits
    `riesz_lower_bound` computes for it.
    """
    bounds = np.full(mask.shape[0], np.inf)
    sizes = mask.sum(axis=1)
    for s in np.unique(sizes[sizes > 0]):
        for chunk in _stacks(np.flatnonzero(sizes == s), 16 * s * s):
            idx = _members(mask[chunk])
            bounds[chunk] = np.linalg.eigvalsh(G[idx[:, :, None], idx[:, None, :]])[:, 0]
    return bounds


def _sampled_part_bounds(G: np.ndarray, labels: np.ndarray, num_parts: int) -> np.ndarray:
    """Riesz bound of every part of every drawn labeling, inf for empty parts.

    labels is (count, M); the result is (count, num_parts), one
    `_mask_bounds` column per label.
    """
    return np.stack([_mask_bounds(G, labels == j) for j in range(num_parts)], axis=1)


def _sampled_values(
    G: np.ndarray, labels: np.ndarray, num_parts: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Min-part bounds of the draws that could fail the threshold or be the worst.

    A draw's value is the min of its parts' bounds, so the bound of its
    largest part (ties to the lowest label), computed first for every draw
    with the bits `_sampled_part_bounds` gives it, is an upper bound U on
    it. All part bounds are computed (the draw is settled) for every draw
    with U > threshold and for the draws of largest U, in batches of 1, 2,
    4, ... draws in order of decreasing U (ties in draw order), until the
    next draw's U is below the largest settled value. Doubling batches
    settle at most about twice the draws whose U reaches the largest value,
    in a few stacked calls. (Settling every draw whose U reaches the best
    value so far settled 9,494 of 10,000 (3, 2) draws on one seed, whose
    draw of largest U has a small value.)

    Returns values and bounds. For a settled draw, values[d] is its
    min-part bound and bounds[d] its part bounds (inf for empty parts);
    an unsettled draw keeps its U in values and nan in bounds. Its U, and
    so its value, is at most the threshold and below the largest settled
    value, so the draws above the threshold and the first maximizer of
    values are those a pass over every part of every draw finds.
    """
    tallies = np.stack([(labels == j).sum(axis=1) for j in range(num_parts)], axis=1)
    upper = _mask_bounds(G, labels == tallies.argmax(axis=1)[:, None])
    values = upper.copy()
    bounds = np.full((len(upper), num_parts), np.nan)
    settled = np.zeros(len(upper), dtype=bool)
    chosen = upper > threshold
    order, end = np.argsort(-upper, kind="stable"), 0
    while True:
        chosen[order[end:2 * end + 1]] = True
        end = 2 * end + 1
        draws = np.flatnonzero(chosen & ~settled)
        bounds[draws] = _sampled_part_bounds(G, labels[draws], num_parts)
        values[draws] = bounds[draws].min(axis=1)
        settled[draws] = True
        if end >= len(order) or upper[order[end]] < values[settled].max():
            return values, bounds


def _sampled_witnesses(
    family: StackedDftFrame, labels: np.ndarray, kept: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness block k, part and achieved norm of every drawn labeling.

    The one witness choice: per labeling, for each block k the part holding
    the most of its rows (ties to the lowest label), and the k of smallest
    achieved norm (ties to the first). InternalInconsistencyError is raised
    if some block has fewer than n rows in every part of some labeling.
    Draws that pick the same rows of a block share one `_block_witnesses`
    solve, which gives them the bits each would get on its own.
    Given a dict `kept` and a single labeling, block k's witness rows and
    coefficients are stored in it under k, so none is computed twice.
    """
    r, n = family.r, family.n
    per_block = np.empty((len(labels), r - 1))
    parts = np.empty((len(labels), r - 1), dtype=np.int64)
    for k in range(1, r):
        span = family.layout.block_rows(k)
        block = labels[:, span.start:span.stop]
        tallies = np.stack([(block == j).sum(axis=1) for j in range(r)], axis=1)
        chosen = parts[:, k - 1] = tallies.argmax(axis=1)
        sizes = tallies.max(axis=1)
        if sizes.min() < n:
            raise InternalInconsistencyError(
                f"pigeonhole failed for block {k}: largest intersection {sizes.min()} < {n}"
            )
        band = family.layout.band_columns(k)
        for s in np.unique(sizes):
            draws = np.flatnonzero(sizes == s)
            rows = span.start + _members(block[draws] == chosen[draws, None])
            distinct, which = np.unique(rows, axis=0, return_inverse=True)
            coeff, norms = _block_witnesses(family.vectors, distinct, band)
            per_block[draws, k - 1] = norms[which]
            if kept is not None:
                kept[k] = rows[0], coeff[which[0]]
    best = per_block.argmin(axis=1)
    return best + 1, parts[np.arange(len(labels)), best], per_block.min(axis=1)


def _raise_first_sampled_failure(
    family: StackedDftFrame, labels: np.ndarray, value: float, threshold: float
) -> None:
    """Raise what checking the first failing draw on its own raises: a
    min-part bound `value` above the threshold before a bad witness, as
    certifying the draws one by one would. `value` is the draw's min-part
    bound, or an upper bound on it at most the threshold."""
    partition = partition_from_assignment(labels, family.r)
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
    (within budget on r**M) with the symmetry-reduced branch-and-bound of
    `_partition_search`; mode "sampled" draws `count` assignments uniformly
    using the Philox stream for `seed` and checks them in stacks: the bound
    of each draw's largest part caps its value, and all its part bounds are
    computed only where that cap exceeds the threshold or reaches the
    largest value computed (`_sampled_values`), while every draw's witness
    is checked (`_sampled_witnesses`). Each partition must
    satisfy min-part bound <= max(delta_1..delta_{r-1}) + 1e-8, or
    CertificationError carries the first one that does not (in enumeration
    or draw order), and must yield valid witness coefficients, or
    InternalInconsistencyError is raised. Sampled draws fail in draw order,
    and a draw failing both checks fails the bound check. Exhaustive mode
    checks witnesses once per block subset, stacked by subset size, after
    the search, so a partition above the threshold is reported first here
    too: every entry of `_witness_table` must stay within
    delta_k + WITNESS_TOL, or InternalInconsistencyError names the (k, rows)
    that fails. The summary reports the worst (largest) min-part bound seen,
    with a full certificate for the first partition attaining it. Families
    with n = 1 certify trivially and are flagged vacuous.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("certification needs a built family with layout metadata")
    r = family.r
    threshold = float(_witness_limit(family, np.arange(1, r)).max())
    if mode == "exhaustive":
        if count is not None:
            raise ValueError("count applies only to sampled mode")
        seed = None
        checked = _check_assignment_budget(family.count, r, budget)
        res = _partition_search(gram(family.vectors), r, threshold=threshold, family=family)
        for (k, rows), achieved in _witness_table(family).items():
            if achieved > _witness_limit(family, k):
                raise InternalInconsistencyError(
                    f"witness for block {k} rows {rows} achieved {achieved}, "
                    f"above delta_{k} = {family.schedule.deltas[k - 1]}"
                )
        worst_partition, worst_bounds, worst_value = res.partition, res.part_bounds, res.value
    elif mode == "sampled":
        if count is None or count < 1:
            raise ValueError("sampled mode needs count >= 1")
        seed = 0 if seed is None else int(seed)
        # Philox is counter-based: the stream is a pure function of the seed.
        rng = np.random.Generator(np.random.Philox(seed))
        labels = rng.integers(0, r, size=(int(count), family.count))
        values, bounds = _sampled_values(gram(family.vectors), labels, r, threshold)
        witness_k, _, achieved = _sampled_witnesses(family, labels)
        failed = (values > threshold) | (achieved > _witness_limit(family, witness_k))
        if failed.any():
            first = failed.argmax()
            _raise_first_sampled_failure(family, labels[first], float(values[first]), threshold)
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
