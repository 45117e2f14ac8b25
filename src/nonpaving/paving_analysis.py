"""Riesz bounds over partitions, witness coefficients, and certification.

The Riesz bound of a subset of a frame family is the smallest eigenvalue of
the subset's Gram matrix: the worst squared norm of a unit-coefficient
combination of those vectors. Certification shows that no r-part partition
of a built (r, n) family keeps all parts' bounds large: for every partition,
a pigeonhole argument finds n rows of one DFT block inside a single part,
and a unit coefficient vector in the null space of the block's band columns
combines them into a vector of squared norm at most delta_k, which shrinks
like 1/n. That lemma holds for every partition at once when block k's rows
are orthonormal DFT rows times the block's column weights, so certification
checks that block structure once (`_check_block_structure`) and then
computes only the certificate's own witness, which is explicit and is
re-verified directly against the matrix.

Exhaustive questions over all r^M labeled partitions are answered by one
depth-first branch-and-bound over label prefixes (`_partition_search`). It
walks one representative per symmetry orbit: restricted-growth labels (a
relabeling keeps every part) and, on a stacked DFT family, lex-leaders under
shifts and reflections of the row index of every block, starting from a
structured incumbent. Orbits of the leaves near the best are re-evaluated,
so it reports exactly what a walk over every partition in enumeration order
reports, its first partition above a certify threshold included (the walk
stops at its first leaf above it), while computing 155 part bounds for
(2, 4) instead of two per partition.
Sampled certification keeps its draws as one label array and checks them
with stacked eigensolves, grouped by part size. A draw puts r^2 n rows of
C^{rn} into r parts, so its largest part holds at least rn rows, and more
(a singular Gram, whose bound is at rounding level) unless every part holds
exactly rn. That part's bound, solved first, caps the draw's value, and all
parts are solved only for draws that could fail or be the worst
(`_sampled_values`), so every value is bit for bit what `riesz_lower_bound`
computes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constructions import StackedDftFrame
from .errors import CertificationError, InternalInconsistencyError, ResourceLimitError
from .frame_ops import FrameFamily, _validate_subset
from .matrix_core import _as_int, _require_indexable, dft_matrix, gram

__all__ = [
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

# Largest stack of gathered principal submatrices one batched eigvalsh call
# gets in sampled certification. Bigger stacks save some call overhead and raise
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
        normalized = tuple(
            tuple(sorted(_as_int(i, "partition index") for i in p)) for p in self.parts
        )
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
    num_parts = _as_int(num_parts, "num_parts")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    buckets: list[list[int]] = [[] for _ in range(num_parts)]
    for i, lab in enumerate(labels):
        lab = _as_int(lab, "label")
        if not 0 <= lab < num_parts:
            raise ValueError(f"label {lab} out of range for {num_parts} parts")
        buckets[lab].append(i)
    return Partition(tuple(tuple(b) for b in buckets))


def _bound_failure(labels, num_parts: int, value: float, threshold: float) -> CertificationError:
    """The error for a labeling whose min-part bound `value` is above the threshold."""
    return CertificationError(
        f"partition keeps min-part bound {value} above {threshold}",
        partition=partition_from_assignment(labels, num_parts),
    )


def _check_assignment_budget(size: int, num_parts: int, budget: int) -> None:
    """Validate the walk's arguments; ResourceLimitError unless num_parts**size
    is within budget."""
    if size < 1:
        raise ValueError("size must be >= 1")
    num_parts = _as_int(num_parts, "num_parts")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    budget = _as_int(budget, "budget")
    if budget < 1:
        raise ValueError("budget must be positive")
    # 2^size alone is over the budget once size reaches its bit length.
    if (num_parts >= 2 and size >= budget.bit_length()) or num_parts**size > budget:
        raise ResourceLimitError(
            f"{num_parts}^{size} assignments exceed the budget of {budget}"
        )


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
    return _eig_min(gram(family.vectors).take(idx, 0).take(idx, 1))


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


def _bound_slots(bounds) -> tuple:
    """Part bounds as a tuple of floats, None for an empty part (inf)."""
    return tuple(None if b == math.inf else float(b) for b in bounds)


def _min_part_bound(result) -> float:
    """The smallest bound among nonempty parts: min of the non-None part_bounds."""
    return min(b for b in result.part_bounds if b is not None)


@dataclass(frozen=True, eq=False)
class _SearchResult:
    """Outcome of `_partition_search` with the work it took.

    partition is the first maximizer in lexicographic label order and
    part_bounds its per-part bounds (None for empty parts), exactly as
    `riesz_lower_bound` computes them, and value their minimum; nodes counts the
    label prefixes examined (one eigensolve each), rejected the prefixes the
    symmetry test dropped before any eigensolve, and eigensolves every part
    bound computed, the incumbent's and the orbit re-evaluation's included.
    """

    partition: Partition
    part_bounds: tuple
    nodes: int
    eigensolves: int
    rejected: int

    value = property(_min_part_bound)


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


def _partition_search(
    G: np.ndarray,
    num_parts: int,
    threshold: float = math.inf,
    family: StackedDftFrame | None = None,
) -> _SearchResult:
    """Max over labeled partitions of the min nonempty-part Riesz bound.

    Reports exactly what a flat walk over every assignment in lexicographic
    label order (index 0 most significant) reports: its first maximizer,
    whose part bounds are computed from the same C-contiguous gather
    `G.take(idx, 0).take(idx, 1)` as `riesz_lower_bound` with sorted idx,
    so its value is bit for bit the flat walk's, or CertificationError
    naming its first partition above `threshold`. Rows are appended in
    index order, so each part's index list stays sorted. The walk covers
    one representative per orbit of a symmetry group, depth first over
    label prefixes, children in label order:

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

    The walk keeps level = min(best, threshold), best the largest value
    met so far. A prefix is cut when its min part bound plus
    `_prune_margin(G)` and the window w is at or below level, a leaf within
    w of level is pooled, and the walk stops after its first leaf above
    `threshold`. The images of the pooled leaves under the row maps are
    then evaluated too.

    Window. eigvalsh returns a part bound within e = `_prune_margin(G)` / 2
    of the exact one (see there). An image H' of a part matrix H under a
    row map is permutation-similar to H (or conj(H)) plus a principal
    submatrix of the measured differences, whose 2-norm is at most the
    defect d (Weyl). So the computed values of a labeling and of its image
    differ by at most margin + d, and the window w = 2 * margin + d covers
    that with a margin to spare for the roundings of the sums it enters.
    Take a labeling of value V and the least member c of its orbit (as
    relabeled by first appearance): c survives the symmetry test, its value
    is at least V - margin - d, and every prefix of c computes at least
    V - 2 * margin - d, so with margin and w added it stays above V. If
    V >= level throughout, then no prefix of c is cut, c is pooled when the
    walk reaches it, and its orbit, V's labeling included, is evaluated.

    No threshold crossed. Then level is best, and the flat walk's first
    maximizer F has value V >= best throughout, so its orbit is evaluated.
    The flat walk's rule over the evaluated labelings, the first in
    lexicographic order of the largest value, picks F, since every
    labeling of value V was evaluated the same way.

    Threshold crossed. Let L be the flat walk's first labeling above
    `threshold`; relabeling keeps bits, so L is a restricted-growth string,
    and level <= threshold < V_L, so c is pooled when it is reached. It is
    reached before the walk stops: c <= L <= every leaf above the threshold
    in label order. So L is evaluated, every evaluated labeling above the
    threshold comes at or after L, and the least of them, L, is raised.

    Callers check num_parts**M, the number of partitions the search covers,
    against their budget before forming G.
    """
    margin = _prune_margin(G)
    maps, window, best, solved = [], 0.0, -math.inf, 0
    if family is not None:
        incumbents = _sampled_part_bounds(G, _structured_labelings(family, num_parts), num_parts)
        solved = int(np.isfinite(incumbents).sum())
        best = math.nextafter(float(incumbents.min(axis=1).max()), -math.inf)
        maps, window = _row_group(G, family.r * family.n, margin)
    level = min(best, threshold)
    last = G.shape[0] - 1
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    values = [math.inf] * num_parts  # bound of each part; inf while empty
    labels = [0] * G.shape[0]
    leaves = []
    nodes = rejected = 0

    def descend(i: int, used: int, alive: list) -> bool:
        """Walk the children of labels[:i]; True once a leaf above the threshold is met."""
        nonlocal level, nodes, rejected
        for j in range(min(used + 1, num_parts)):
            labels[i] = j
            live = _undecided_maps(labels, i, alive)
            if live is None:
                rejected += 1
                continue
            nodes += 1
            part = parts[j]
            part.append(i)
            before = values[j]
            values[j] = _eig_min(G.take(part, 0).take(part, 1))
            value = min(values)
            if i == last:
                if value >= level - window:
                    leaves.append((tuple(labels), values[:], value))
                    level = max(level, min(value, threshold))
                stop = value > threshold
            else:
                stop = value + margin + window > level and descend(i + 1, max(used, j + 1), live)
            part.pop()
            values[j] = before
            if stop:
                return True
        return False

    try:
        descend(0, 0, maps)
    finally:
        del descend  # the closure refers to itself: free G and the lists now, not at a full GC
    pool = [leaf for leaf in leaves if leaf[2] >= level - window]
    if maps:
        seen = {leaf[0] for leaf in pool}
        images = sorted({_canonical(leaf[0][y] for y in g) for leaf in pool for g in maps} - seen)
        if images:
            bounds = _sampled_part_bounds(G, np.array(images), num_parts)
            solved += int(np.isfinite(bounds).sum())
            pool += [(lab, row.tolist(), float(row.min())) for lab, row in zip(images, bounds)]
    failed = [leaf for leaf in pool if leaf[2] > threshold]
    if failed:
        labels, _, value = min(failed, key=lambda leaf: leaf[0])
        raise _bound_failure(labels, num_parts, value, threshold)
    labels, values, _ = min(pool, key=lambda leaf: (-leaf[2], leaf[0]))
    partition = partition_from_assignment(labels, num_parts)
    return _SearchResult(partition, _bound_slots(values), nodes, nodes + solved, rejected)


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
        if not abs(norm - 1.0) <= 1e-12:  # nan compares False either way
            raise ValueError(f"coefficients must have unit norm, got {norm!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        indices = tuple(_as_int(i, "witness index") for i in self.indices)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "k", _as_int(self.k, "witness block"))
        object.__setattr__(self, "part", _as_int(self.part, "witness part"))
        if self.k < 1:
            raise ValueError(f"witness block k must be >= 1, got {self.k}")
        if self.part < 0:
            raise ValueError(f"witness part must be >= 0, got {self.part}")
        if not (math.isfinite(self.achieved_norm_sq) and self.achieved_norm_sq >= 0):
            raise ValueError("achieved_norm_sq must be finite and nonnegative")


def _witness_limit(family: StackedDftFrame, k):
    """delta_k + WITNESS_TOL, the most a block-k witness may achieve, for an
    int k or an integer array of them; WITNESS_TOL is read at call time."""
    return np.asarray(family.schedule.deltas)[k - 1] + WITNESS_TOL


def _block_witness(vectors: np.ndarray, rows: list, band: range) -> tuple[np.ndarray, float]:
    """Witness coefficients on `rows`, s rows of one block, and their squared norm.

    A unit vector in the null space of the rows' band sub-block (their band
    columns, transposed) is taken from a full singular value decomposition:
    singular values below _NULL_REL_TOL times the largest count as zero, and
    among the null basis vectors the one with the largest first coordinate
    (in modulus) is chosen, ties to the earliest, which makes the selection
    deterministic; with n - 1 band columns against s >= n rows it is never
    empty. An empty band gives the first unit vector. Returns the
    coefficients (s,) and the squared norm of the combination they make.
    """
    sub = vectors[rows]
    if not band:
        coeff = np.zeros(len(rows), dtype=np.complex128)
        coeff[0] = 1.0
    else:
        _, sv, vh = np.linalg.svd(sub[:, band.start:band.stop].T, full_matrices=True)
        rank = int(np.sum(sv > _NULL_REL_TOL * sv[0])) if sv[0] > 0 else 0
        null = np.conj(vh[rank:])
        coeff = null[int(np.argmax(np.abs(null[:, 0])))]
        coeff = coeff / np.linalg.norm(coeff)
    return coeff, float(np.sum(np.abs(coeff @ sub) ** 2))


def _check_block_structure(family: StackedDftFrame) -> None:
    """Prove once that every partition's witness is at most delta_k + WITNESS_TOL.

    With m = rn, D = `dft_matrix(m)` and w = `layout.column_weights(k)` as
    computed (zero on block k's prefix, t = fl(sqrt(delta_k)) on its tail),
    the check measures, in Frobenius norm,

    - o' = ||gram(D) - I||, which must be at most m (m + 2) eps, and
    - e'_k = ||F_k - D * w|| for the rows F_k of every block k < r, which
      must be at most 2 sqrt(m) eps (a built family's rows are exactly those
      products, so e'_k = 0),

    and raises InternalInconsistencyError otherwise. Both bounds sit well
    above rounding: o' is about 2 sqrt(m) eps for the computed DFT, for m
    from 2 to 1024.

    Lemma. Let o = ||DD* - I||_2 and e = ||E||_2, E = F_k - DW, for the
    stored values in exact arithmetic. Take rows S of block k and a unit c
    whose combination sum_a c_a f_a vanishes on the band. DW is zero on the
    prefix, so that combination is t (sum_a c_a d_a) on the tail plus
    (sum_a c_a E_a) off the band, and
        ||sum_a c_a f_a|| <= t ||sum_a c_a d_a|| + e <= t sqrt(1 + o) + e,
    as D_S D_S^* is a principal submatrix of DD*. So every witness, in every
    partition, is at most b_k = (t sqrt(1 + o) + e)^2; with o = e = 0 and
    t^2 = delta_k this is the paper's bound delta_k.

    Rounding. Let u = eps / 2; m (m + 2) eps <= 1e-3 throughout. An entry
    of gram(D) is an m-term complex dot product, off by at most
    sqrt(2) gamma_{m+2} (1 + o) (Cauchy-Schwarz on rows of squared norm at
    most 1 + o), plus u (1 + o) for the Hermitian average; subtracting I is
    exact (Sterbenz), and a computed Frobenius norm is within a factor
    1 + 2 m^2 eps of the exact one. So o <= o' (1 + 2 m^2 eps)
    + 0.85 m (m + 2) eps (1 + o), which gives o <= 1.9 m (m + 2) eps.
    Each part of D * w is off by at most u |D_aj w_j|, and
    ||DW||_F <= sqrt(1 + o) ||w|| with ||w||^2 = m (unit rows), so
    e <= 2.6 sqrt(m) eps. With t <= sqrt(delta_k) (1 + u) and delta_k < r,
        b_k - delta_k <= delta_k ((1 + u)^2 (1 + o) - 1)
                         + 2 t sqrt(1 + o) e + e^2 <= 3 r m (m + 2) eps,
    which is at most WITNESS_TOL = 1e-8 while r m (m + 2) <= 1.5e7: rn up
    to 2,700 for r = 2 and up to 1,360 for r = 8 ((4, 8) has 4,352 and
    (8, 16) 133,120). The check costs one m x m product and r - 1 m x m
    residuals, against the (r m) x (r m) Gram certification forms anyway.
    """
    m = family.r * family.n
    D = dft_matrix(m)
    defect = float(np.linalg.norm(gram(D) - np.eye(m)))
    if not defect <= m * (m + 2) * _EPS:
        raise InternalInconsistencyError(f"DFT rows are not orthonormal: ||DD* - I||_F = {defect}")
    for k in range(1, family.r):
        rows = family.layout.block_rows(k)
        block = family.vectors[rows.start:rows.stop]
        residual = float(np.linalg.norm(block - D * family.layout.column_weights(k)))
        if not residual <= 2.0 * math.sqrt(m) * _EPS:
            raise InternalInconsistencyError(
                f"block {k} rows differ from DFT rows times its column weights by {residual}"
            )


def witness_coefficients(family: StackedDftFrame, partition: Partition) -> Witness:
    """Find witness coefficients for a partition of a built (r, n) family.

    For each k in 1..r-1, the rows of block k (row indices (k-1)rn..krn-1)
    are spread over r parts, so some part holds at least n of them; among
    parts the one holding the most is taken (ties to the lowest label).
    Those rows vanish on the earlier blocks' band columns, and a unit
    coefficient vector in the null space of their own band columns (n-1
    constraints against >= n vectors), `_block_witness` on that selection,
    combines them into a vector supported on the tail, of squared norm at
    most delta_k. The witness with the smallest achieved norm over k (ties
    to the first k) is returned.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("witness extraction needs a built family with layout metadata")
    r, n, layout = family.r, family.n, family.layout
    if partition.num_parts != r or partition.size != family.count:
        raise ValueError(
            f"partition must split {family.count} indices into {r} parts, "
            f"got {partition.size} into {partition.num_parts}"
        )
    best = None
    for k in range(1, r):
        block = layout.block_rows(k)
        members = [[i for i in p if i in block] for p in partition.parts]
        sizes = [len(rows) for rows in members]
        part = sizes.index(max(sizes))
        if sizes[part] < n:
            raise InternalInconsistencyError(
                f"pigeonhole failed for block {k}: largest intersection {sizes[part]} < {n}"
            )
        coeff, achieved = _block_witness(family.vectors, members[part], layout.band_columns(k))
        if best is None or achieved < best[0]:
            best = (achieved, k, part, members[part], coeff)
    achieved, k, part, rows, coeff = best
    if achieved > _witness_limit(family, k):
        raise InternalInconsistencyError(
            f"witness achieved {achieved}, above delta_{k} = {family.schedule.deltas[k - 1]}"
        )
    return Witness(k, part, tuple(rows), coeff, achieved)


@dataclass(frozen=True, eq=False)
class RieszCertificate:
    """Per-part Riesz bounds for one partition, with an optional witness.

    part_bounds aligns with partition.parts, None exactly for the empty
    parts, and min_part_bound, derived from it, is the smallest bound among
    nonempty parts. When a witness is attached, its rows must lie in its
    part and its achieved norm must dominate that part's bound (the bound is
    a minimum over all unit coefficient vectors on the part, the witness
    uses particular ones).
    """

    partition: Partition
    part_bounds: tuple
    witness: Witness | None = None

    min_part_bound = property(_min_part_bound)

    def __post_init__(self):
        if len(self.part_bounds) != self.partition.num_parts:
            raise ValueError("need one bound slot per part")
        object.__setattr__(self, "part_bounds", tuple(self.part_bounds))
        for label, (part, bound) in enumerate(zip(self.partition.parts, self.part_bounds)):
            if (bound is None) == bool(part):
                raise ValueError(
                    f"part {label} has {len(part)} rows and bound {bound!r}: "
                    "a slot is None exactly when its part is empty"
                )
        finite = [b for b in self.part_bounds if b is not None]
        if not finite:
            raise ValueError("certificate needs at least one nonempty part")
        if not all(map(math.isfinite, finite)):
            raise ValueError("part bounds must be finite")
        if self.witness is not None:
            if not self.witness.part < self.partition.num_parts:
                raise ValueError(
                    f"witness part {self.witness.part} out of range for "
                    f"{self.partition.num_parts} parts"
                )
            if not set(self.witness.indices) <= set(self.partition.parts[self.witness.part]):
                raise ValueError(f"witness indices are not all in part {self.witness.part}")
            anchor = self.part_bounds[self.witness.part]
            if self.witness.achieved_norm_sq < anchor - 1e-10:
                raise InternalInconsistencyError(
                    f"witness achieved {self.witness.achieved_norm_sq} below the "
                    f"part bound {anchor}"
                )


@dataclass(frozen=True, eq=False)
class CertificationSummary:
    """Outcome of certifying a family over many partitions.

    Only how the partitions were chosen (mode, count and seed: None for
    exhaustive) and the certificate are stored; the rest is derived from
    them and from the family.
    """

    family: StackedDftFrame
    mode: str
    count: int | None
    seed: int | None
    certificate: RieszCertificate

    @property
    def partitions_checked(self) -> int:
        """count when sampled, r^M (every labeled partition) when exhaustive."""
        return self.count if self.mode == "sampled" else self.family.r ** self.family.count

    @property
    def worst_min_part_bound(self) -> float:
        return self.certificate.min_part_bound

    @property
    def deltas(self) -> tuple[float, ...]:
        return self.family.schedule.deltas

    @property
    def vacuous(self) -> bool:
        return self.family.vacuous

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
            "family": {"r": self.family.r, "n": self.family.n},
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


def _members(mask: np.ndarray) -> np.ndarray:
    """Sorted column indices of the True entries of each row of `mask`.

    Every row must hold the same number s of them; the result is (rows, s).
    """
    return np.nonzero(mask)[1].reshape(mask.shape[0], -1)


def _mask_bounds(G: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Riesz bound of the rows each row of `mask` selects, inf where it selects none.

    mask is a boolean (draws, M) array. Selections of equal size are
    gathered into (B, s, s) stacks of principal submatrices, each within
    _STACK_BYTES, and solved by one eigvalsh call per stack, which gives
    each the bits `riesz_lower_bound` computes for it.
    """
    bounds = np.full(mask.shape[0], np.inf)
    sizes = mask.sum(axis=1)
    for s in np.unique(sizes[sizes > 0]):
        draws, step = np.flatnonzero(sizes == s), max(1, _STACK_BYTES // (16 * s * s))
        for start in range(0, len(draws), step):
            chunk = draws[start:start + step]
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
    largest value computed (`_sampled_values`). Each partition must
    satisfy min-part bound <= max(delta_1..delta_{r-1}) + 1e-8, or
    CertificationError carries the first one that does not (in enumeration
    or draw order). Then one structural check, `_check_block_structure`,
    proves for every partition at once that its witness achieves at most
    delta_k + WITNESS_TOL, or raises InternalInconsistencyError, so no
    partition's witness is computed but the certificate's own. The summary
    reports the worst (largest) min-part bound seen, with a full certificate
    for the first partition attaining it, whose witness
    (`witness_coefficients`) is checked against delta_k + WITNESS_TOL too.
    Families with n = 1 certify trivially and are flagged vacuous.
    """
    if not isinstance(family, StackedDftFrame):
        raise ValueError("certification needs a built family with layout metadata")
    r = family.r
    threshold = float(_witness_limit(family, np.arange(1, r)).max())
    if mode == "exhaustive":
        if count is not None:
            raise ValueError("count applies only to sampled mode")
        seed = None
        _check_assignment_budget(family.count, r, budget)
        res = _partition_search(gram(family.vectors), r, threshold=threshold, family=family)
        partition, part_bounds = res.partition, res.part_bounds
    elif mode == "sampled":
        count = 0 if count is None else _as_int(count, "count")
        if count < 1:
            raise ValueError("sampled mode needs count >= 1")
        seed = 0 if seed is None else _as_int(seed, "seed")
        _require_indexable((count, family.count), 8)
        # Philox is counter-based: the stream is a pure function of the seed.
        rng = np.random.Generator(np.random.Philox(seed))
        labels = rng.integers(0, r, size=(count, family.count))
        values, bounds = _sampled_values(gram(family.vectors), labels, r, threshold)
        failed = values > threshold  # only settled draws, whose values are exact
        if failed.any():
            first = failed.argmax()
            raise _bound_failure(labels[first], r, float(values[first]), threshold)
        worst = int(values.argmax())
        partition = partition_from_assignment(labels[worst], r)
        part_bounds = _bound_slots(bounds[worst])
    else:
        raise ValueError(f'mode must be "exhaustive" or "sampled", got {mode!r}')

    _check_block_structure(family)
    certificate = RieszCertificate(partition, part_bounds, witness_coefficients(family, partition))
    return CertificationSummary(family, mode, count, seed, certificate)
