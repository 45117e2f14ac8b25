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
stops at its first leaf above it), while computing 154 part bounds for
(2, 4) instead of two per partition.

Sampled certification keeps its draws as one label array and their part
bounds as one table, NaN in a slot not yet solved. Each slot is solved at
most once, by stacked eigensolves grouped by part size (`_label_bounds`),
so every value is bit for bit what `riesz_lower_bound` computes. A draw
puts r^2 n rows of C^{rn} into r parts, so its largest part holds at least
rn rows, and more unless every part holds exactly rn. The bound of that
part caps the draw's value and is solved first; the other parts are solved
only for draws that could fail or be the worst (`_sampled_values`). A part
of more than rn rows has an exactly singular Gram, and its computed bound
is at most the rank cap `_prune_margin(G)` (proved there), so such a
largest part stands at the cap unsolved until a threshold or the worst
value could be at or below the cap; the walk cuts a prefix holding such a
part the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constructions import StackedDftFrame
from .errors import CertificationError, InternalInconsistencyError
from .frame_ops import FrameFamily
from .matrix_core import _as_int, _check_budget, _require_indexable, dft_matrix, gram

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
    num_parts = _as_int(num_parts, "num_parts", 1)
    buckets: list[list[int]] = [[] for _ in range(num_parts)]
    for i, lab in enumerate(labels):
        lab = _as_int(lab, "label")
        if not 0 <= lab < num_parts:
            raise ValueError(f"label {lab} out of range for {num_parts} parts")
        buckets[lab].append(i)
    return Partition(tuple(tuple(b) for b in buckets))


def _select(labels, bounds, num_parts: int, threshold: float) -> tuple[Partition, tuple]:
    """The certify rule over evaluated labelings, taken in the caller's order.

    labels holds L rows of M labels and bounds their L x num_parts part
    bounds, inf for an empty part; a row's value is the min of its bounds.
    Raises CertificationError naming the first row whose value is above
    `threshold`. Otherwise returns the partition of the first row of
    largest value and its bound slots: floats, None for an empty part.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    values = bounds.min(axis=1)
    failed = values > threshold
    if failed.any():
        first = int(failed.argmax())
        raise CertificationError(
            f"partition keeps min-part bound {float(values[first])} above {threshold}",
            partition=partition_from_assignment(labels[first], num_parts),
        )
    row = int(values.argmax())
    slots = tuple(None if b == math.inf else float(b) for b in bounds[row])
    return partition_from_assignment(labels[row], num_parts), slots


def _check_assignment_budget(size: int, num_parts: int, budget: int) -> None:
    """Validate the walk's arguments; ResourceLimitError unless num_parts**size
    is within budget."""
    size = _as_int(size, "size", 1)
    num_parts = _as_int(num_parts, "num_parts", 1)
    budget = _as_int(budget, "budget", 1)
    message = f"{num_parts}^{size} assignments exceed the budget of {budget}"
    _check_budget(1, num_parts, size, budget, message)


def _eig_min(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(H)[0])


def _validate_subset(subset, dim: int) -> list[int]:
    idx = sorted(_as_int(i, "subset index") for i in subset)
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= dim:
        raise ValueError(f"subset indices must lie in [0, {dim})")
    if len(set(idx)) != len(idx):
        raise ValueError("subset indices must be distinct")
    return idx


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

    The margin is also the cap: for G = `gram(V)` with V of d columns, the
    bound computed for a part of more than d rows is at most the margin.
    The part's exact Gram H = V_P V_P^* has rank at most d, so
    lambda_min(H) = 0, and the part matrix gathered from G is H + E. Each
    entry of `gram` is a complex d-term dot product, Hermitized, so it is
    off by at most (sqrt(2) gamma_{d+2} + u) |v_i| |v_j|, with u = eps / 2
    and |v_i| the norm of row i. So ||E||_2 is at most that factor times
    ||(|v_i| |v_j|)||_2 = tr(H) <= sqrt(d) ||G||_F (H has at most d nonzero
    eigenvalues), and with d < M this gram term is below 1.5 M^2 eps ||G||_F.
    By Weyl, lambda_min(H + E) <= ||E||_2, and eigvalsh adds at most its
    backward error, half the margin. The computed bound is then below
    (1.5 + 4) M^2 eps ||G||_F, under the margin's 8 M^2 eps ||G||_F.
    """
    size = G.shape[0]
    return 2.0 * 4.0 * size * size * _EPS * float(np.linalg.norm(G))


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
    symmetry test dropped before any eigensolve, rank_cut the prefixes cut
    for a singular part before any eigensolve, and eigensolves every part
    bound computed, the incumbent's and the orbit re-evaluation's included.
    map_checks counts the (prefix, row map) pairs the symmetry test was
    given: the states each tested prefix wakes (`_advance`). It enters no
    output.
    """

    partition: Partition
    part_bounds: tuple
    nodes: int
    eigensolves: int
    rejected: int
    rank_cut: int
    map_checks: int

    value = property(_min_part_bound)


def _row_group(G: np.ndarray, block: int, margin: float) -> tuple[list[tuple[int, ...]], float]:
    """Non-identity row maps of the dihedral group, and the window they cost.

    The maps send row a of every block of `block` rows to s*a + t mod block
    (2*block maps with the identity, s = +-1). On a stacked DFT family the
    exact Gram is invariant under the shifts and conjugated by s = -1; the
    defect is the largest Frobenius norm of G[g, g] minus G (or conj(G)) over
    every map g, so it bounds ||E||_2 for every principal submatrix E of those
    differences and no bound compounds along words in the generators. All
    2*block images G[g, g] are gathered by one indexed read (2*block*M^2
    entries), and each difference's norm is `np.linalg.norm` of its own
    C-contiguous slice, so the defect has the bits of one gather and norm per
    map. The maps are used only when the defect is at most `margin`; the
    window is then 2 * margin + defect (see `_partition_search`). Otherwise,
    as for a family whose rows were reordered, the group is trivial: ([], 0.0).
    """
    size = G.shape[0]
    a = np.arange(size) % block
    base = np.arange(size) - a
    shifts = np.arange(block)[:, None]
    g = np.concatenate([base + (a + shifts) % block, base + (shifts - a) % block])
    images = G[g[:, :, None], g[:, None, :]]
    images[:block] -= G
    images[block:] -= G.conj()
    defect = max(float(np.linalg.norm(d)) for d in images)
    if defect > margin:
        return [], 0.0
    maps = set(map(tuple, g.tolist()))
    maps.discard(tuple(range(size)))
    return sorted(maps), 2.0 * margin + defect


def _structured_labelings(family: StackedDftFrame, num_parts: int) -> np.ndarray:
    """Labelings giving row a of block k the label (a + o_k) mod num_parts.

    One row per offset vector o with o_1 = 0 (other o_1 only relabel the
    parts); for r = 2 parts the two are the residue and alternating splits.
    """
    offsets = np.indices((1,) + (num_parts,) * (family.r - 1)).reshape(family.r, -1).T
    a = np.arange(family.r * family.n)
    return (a + offsets[:, :, None]).reshape(len(offsets), -1) % num_parts


def _canonical(labels: np.ndarray, num_parts: int) -> np.ndarray:
    """The restricted-growth relabeling of each row of an (N, M) label
    array: parts numbered by first appearance in the row."""
    seen = labels[:, :, None] == np.arange(num_parts)
    first = np.where(seen.any(axis=1), seen.argmax(axis=1), labels.shape[1])
    return np.take_along_axis(first.argsort(axis=1).argsort(axis=1), labels, axis=1)


def _advance(woken: list, labels: list[int], i: int) -> list | None:
    """The symmetry test of the prefix labels[:i + 1], for the maps it wakes.

    A state (g, x, seen) carries one row map g down the walk. The image of
    the labels under g has label labels[g[y]] at y, relabeled by first
    appearance as `_canonical` does; seen lists the labels of positions
    0..x-1 of the image in order of first appearance, so the image's label
    at y is seen.index(labels[g[y]]). Every position below x is verified
    equal to the prefix, and position x waits for row max(x, g[x]), the
    state's wake row, to be labeled. That row is g[x], past the prefix: the
    rows below x are labeled and g sends them to labeled rows, so when they
    are all of 0..i, g maps them onto 0..i and g[i + 1] > i. g carries
    g[M] = M past its M rows, so a map equal on every row never wakes.
    `woken` holds the states whose wake row is i; each resumes at x while
    g[x] is labeled.

    Returns None when some image is strictly smaller at its first
    difference: no completion of the prefix is then least in its orbit.
    Otherwise returns (wake row, state) for each map whose image still ties
    the prefix, its wake row past i; a map whose image is larger at its
    first difference stays larger under every completion and is dropped.
    The same woken states serve every label tried at row i, so seen is a
    tuple, extended into a new one when a label first appears.
    """
    moved = []
    for g, x, seen in woken:
        y = g[x]
        while y <= i:
            lab = labels[y]
            if lab in seen:
                c = seen.index(lab)
            else:
                c = len(seen)
                seen += (lab,)
            want = labels[x]
            if c != want:
                if c < want:
                    return None
                break
            x += 1
            y = g[x]
        else:
            moved.append((y, (g, x, seen)))
    return moved


def _partition_search(
    G: np.ndarray,
    num_parts: int,
    threshold: float = math.inf,
    family: StackedDftFrame | None = None,
    dim: int | None = None,
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
      Each live map's test state is carried down the walk (`_advance`):
      its image is verified equal to the prefix on the positions below x,
      and the first position x stays undecided until its wake row
      max(x, g[x]) is labeled. A state is filed under its wake row, so a
      child resumes only the states its row wakes, and every other live
      state passes down untouched; the children of a prefix share its
      states, and a child's own states are filed before its subtree and
      taken out after it.
    - Incumbent. The search starts from best = nextafter(v0, -inf), v0 the
      largest value over `_structured_labelings` (the alternating split for
      r = 2 attains delta_1 to rounding).

    The walk keeps level = min(best, threshold), best the largest value
    met so far. A prefix is cut when its min part bound plus
    `_prune_margin(G)` and the window w is at or below level, a leaf within
    w of level is pooled, and the walk stops after its first leaf above
    `threshold`. The images of the pooled leaves under the row maps are
    then evaluated too, and the pool (pooled leaves and images, each a
    distinct labeling) is taken in label order.

    Rank cut. G is the Gram of vectors in C^dim (dim defaults to M, which
    cuts nothing). Once a part would hold more than dim rows, every leaf
    below computes a value at most cap = `_prune_margin(G)` (see there), so
    while cap + w < level the prefix is cut before its eigensolve. No leaf
    it drops is pooled or above the threshold, and no labeling of value
    V >= level has such a part (V > cap), nor has the least member of its
    orbit, whose parts have the same sizes; so the argument below holds
    unchanged. Below that level (a threshold at rounding noise) the walk
    solves the part as before.

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
    labeling of value V was evaluated the same way. `_select` applies
    that rule to the pool.

    Threshold crossed. Let L be the flat walk's first labeling above
    `threshold`; relabeling keeps bits, so L is a restricted-growth string,
    and level <= threshold < V_L, so c is pooled when it is reached. It is
    reached before the walk stops: c <= L <= every leaf above the threshold
    in label order. So L is evaluated, every evaluated labeling above the
    threshold comes at or after L, and the least of them, L, is raised:
    `_select` raises the pool's first labeling above the threshold.

    Callers check num_parts**M, the number of partitions the search covers,
    against their budget before forming G.
    """
    margin = _prune_margin(G)
    dim = G.shape[0] if dim is None else dim
    maps, window, best, solved = [], 0.0, -math.inf, 0
    if family is not None:
        incumbents = _sampled_part_bounds(G, _structured_labelings(family, num_parts), num_parts)
        solved = int(np.isfinite(incumbents).sum())
        best = math.nextafter(float(incumbents.min(axis=1).max()), -math.inf)
        maps, window = _row_group(G, family.r * family.n, margin)
    level = min(best, threshold)
    size = G.shape[0]
    last = size - 1
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    values = [math.inf] * num_parts  # bound of each part; inf while empty
    labels = [0] * size
    pending: list[list] = [[] for _ in range(size + 1)]  # `_advance` states by wake row
    for g in maps:
        pending[g[0]].append((g + (size,), 0, ()))
    leaves = []
    nodes = rejected = rank_cut = map_checks = 0

    def descend(i: int, used: int) -> bool:
        """Walk the children of labels[:i]; True once a leaf above the threshold is met."""
        nonlocal level, nodes, rejected, rank_cut, map_checks
        woken = pending[i]
        for j in range(min(used + 1, num_parts)):
            part = parts[j]
            if len(part) >= dim and margin + window < level:
                rank_cut += 1
                continue
            labels[i] = j
            map_checks += len(woken)
            moved = _advance(woken, labels, i)
            if moved is None:
                rejected += 1
                continue
            nodes += 1
            part.append(i)
            before = values[j]
            values[j] = _eig_min(G.take(part, 0).take(part, 1))
            value = min(values)
            stop = False
            if i == last:
                if value >= level - window:
                    leaves.append((tuple(labels), values[:], value))
                    level = max(level, min(value, threshold))
                stop = value > threshold
            elif value + margin + window > level:
                for wake, state in moved:
                    pending[wake].append(state)
                stop = descend(i + 1, max(used, j + 1))
                for wake, _ in moved:
                    pending[wake].pop()
            part.pop()
            values[j] = before
            if stop:
                return True
        return False

    try:
        descend(0, 0)
    finally:
        del descend  # the closure refers to itself: free G and the lists now, not at a full GC
    pool = {lab: row for lab, row, value in leaves if value >= level - window}
    pooled = np.array(list(pool), dtype=np.intp).reshape(len(pool), size)
    orbit = pooled[:, np.array(maps, dtype=np.intp).reshape(len(maps), size)].reshape(-1, size)
    images = sorted(set(map(tuple, _canonical(orbit, num_parts).tolist())) - pool.keys())
    if images:
        bounds = _sampled_part_bounds(G, np.array(images), num_parts)
        solved += int(np.isfinite(bounds).sum())
        pool.update(zip(images, bounds.tolist()))
    labels = sorted(pool)
    partition, part_bounds = _select(labels, [pool[lab] for lab in labels], num_parts, threshold)
    return _SearchResult(partition, part_bounds, nodes, nodes + solved, rejected, rank_cut,
                         map_checks)


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
    result = _partition_search(gram(family.vectors), num_parts, family=stacked, dim=family.dim)
    return result.partition, result.value


def _as_real(value, message: str, low: float = -math.inf) -> float:
    """value as a float when it is a Python or numpy integer or float other
    than a bool, finite and at least `low`, else ValueError with `message`
    and the value; a bool would print as true in a certificate, and a str
    or complex has no order."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.nan
    if not (math.isfinite(x) and x >= low):
        raise ValueError(f"{message}, got {value!r}")
    return x


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
        object.__setattr__(self, "k", _as_int(self.k, "witness block k", 1))
        object.__setattr__(self, "part", _as_int(self.part, "witness part", 0))
        achieved = _as_real(self.achieved_norm_sq, "achieved_norm_sq must be finite and >= 0", 0.0)
        object.__setattr__(self, "achieved_norm_sq", achieved)


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
    r, layout = family.r, family.layout
    if partition.num_parts != r or partition.size != family.count:
        raise ValueError(
            f"partition must split {family.count} indices into {r} parts, "
            f"got {partition.size} into {partition.num_parts}"
        )
    best = None
    for k in range(1, r):
        block = layout.block_rows(k)
        members = [[i for i in p if i in block] for p in partition.parts]
        part = max(range(r), key=lambda j: len(members[j]))
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
        for label, (part, bound) in enumerate(zip(self.partition.parts, self.part_bounds)):
            if (bound is None) == bool(part):
                raise ValueError(
                    f"part {label} has {len(part)} rows and bound {bound!r}: "
                    "a slot is None exactly when its part is empty"
                )
        if not self.partition.size:
            raise ValueError("certificate needs at least one nonempty part")
        object.__setattr__(self, "part_bounds", tuple(
            b if b is None else _as_real(b, "part bound must be finite") for b in self.part_bounds))
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


def _label_bounds(G: np.ndarray, labels: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Riesz bound of the rows each labeling gives its target label, inf where it gives none.

    labels is an (L, M) label array and targets one label per labeling; a
    target of -1 selects no row. Selections of equal size are gathered into
    (B, s, s) stacks of principal submatrices, each within _STACK_BYTES,
    and solved by one eigvalsh call per stack, which gives each the bits
    `riesz_lower_bound` computes for it. The rows of a stack are found
    from its labelings alone, so no L x M mask is kept.
    """
    sizes = (labels == targets[:, None]).sum(axis=1)
    bounds = np.full(len(labels), np.inf)
    for s in np.unique(sizes[sizes > 0]):
        rows, step = np.flatnonzero(sizes == s), max(1, _STACK_BYTES // (16 * s * s))
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            idx = np.nonzero(labels[chunk] == targets[chunk, None])[1].reshape(len(chunk), s)
            bounds[chunk] = np.linalg.eigvalsh(G[idx[:, :, None], idx[:, None, :]])[:, 0]
    return bounds


def _sampled_part_bounds(G: np.ndarray, labels: np.ndarray, num_parts: int) -> np.ndarray:
    """Riesz bound of every part of every labeling, inf for empty parts:
    (L, num_parts) from an (L, M) label array, in one `_label_bounds` call."""
    targets = np.tile(np.arange(num_parts), len(labels))
    return _label_bounds(G, np.repeat(labels, num_parts, axis=0), targets).reshape(-1, num_parts)


def _sampled_values(
    G: np.ndarray, labels: np.ndarray, num_parts: int, threshold: float, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Part bounds of the draws that could fail the threshold or be the worst.

    The bounds live in one (draws, num_parts) table, NaN in a slot not yet
    solved, and each slot is solved at most once, with the bits
    `riesz_lower_bound` gives it. A draw's value is the min of its row, so
    the slot of its largest part (ties to the lowest label) is an upper
    bound U on it; those slots are solved first. A draw is settled (its
    NaN slots solved, inf for empty parts) for every U > threshold and for
    the draws of largest U, in batches of 1, 2, 4, ... draws in order of
    decreasing U (ties in draw order), until the next draw's U is below the
    largest settled value. Each batch is one `_label_bounds` call over its
    unsolved (draw, part) slots. Doubling batches settle at most about
    twice the draws whose U reaches the largest value. (Settling every draw
    whose U reaches the best value so far settled 9,494 of 10,000 (3, 2)
    draws on one seed, whose draw of largest U has a small value.)

    Rank cap. G is the Gram of vectors in C^dim, so a largest part of more
    than dim rows is singular and its computed bound is at most
    cap = `_prune_margin(G)` (see there). While cap < threshold, such a
    draw's slot is left unsolved and its U stands at cap in the order, which
    keeps it below the threshold and stops the loop before it once a
    settled value is above cap. Only a loop that reaches it (no settled
    value above cap, as when every value is rounding noise) solves those
    slots first, and from there on goes as if every U had been solved at
    the start. Of 10,000 (3, 2) draws on one seed, 9,524 have a singular
    largest part.

    Returns the settled draws' indices, in draw order, and their rows of
    the table. Every draw above the threshold is settled, and so is every
    draw whose U reaches the largest settled value, so the first of them
    above the threshold and the first of largest value are those a pass
    over every part of every draw finds.
    """
    tallies = np.stack([(labels == j).sum(axis=1) for j in range(num_parts)], axis=1)
    rows, lead, cap = np.arange(len(labels)), tallies.argmax(axis=1), _prune_margin(G)
    capped = (tallies.max(axis=1) > dim) & (cap < threshold)
    upper = _label_bounds(G, labels, np.where(capped, -1, lead))
    table = np.full(tallies.shape, np.nan)
    table[rows, lead] = np.where(capped, np.nan, upper)
    upper[capped] = cap
    chosen = upper > threshold
    order, end = np.argsort(-upper, kind="stable"), 0
    while True:
        if capped[order[end:2 * end + 1]].any():
            solved = _label_bounds(G, labels, np.where(capped, lead, -1))
            table[rows, lead] = upper = np.where(capped, solved, upper)
            capped[:] = False
            order = np.argsort(-upper, kind="stable")
        chosen[order[end:2 * end + 1]] = True
        end = 2 * end + 1
        draws, parts = np.nonzero(np.isnan(table) & chosen[:, None])
        table[draws, parts] = _label_bounds(G, labels[draws], parts)
        if end >= len(order) or upper[order[end]] < table[chosen].min(axis=1).max():
            return np.flatnonzero(chosen), table[chosen]


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
    largest value computed (`_sampled_values`). A largest part of more than
    rn rows is singular, so its computed bound is at most the rank cap
    `_prune_margin(G)` (proved there), and it is solved only when the
    threshold or the largest value computed is at most the cap. The walk
    cuts a prefix holding such a part the same way, and both modes report
    the bytes that solving every part gives. Each partition must
    satisfy min-part bound <= max(delta_1..delta_{r-1}) + 1e-8. `_select`
    applies the rule, in enumeration or draw order: CertificationError
    carries the first partition that does not, and otherwise the
    certificate is the first partition of largest min-part bound. Then one
    structural check, `_check_block_structure`, proves for every partition
    at once that its witness achieves at most delta_k + WITNESS_TOL, or
    raises InternalInconsistencyError, so no partition's witness is
    computed but the certificate's own (`witness_coefficients`, checked
    against delta_k + WITNESS_TOL too).
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
        res = _partition_search(gram(family.vectors), r, threshold, family, family.dim)
        partition, part_bounds = res.partition, res.part_bounds
    elif mode == "sampled":
        count = _as_int(count, "count", 1)
        seed = 0 if seed is None else _as_int(seed, "seed", 0)
        _require_indexable((count, family.count), 8)
        # Philox is counter-based: the stream is a pure function of the seed.
        rng = np.random.Generator(np.random.Philox(seed))
        labels = rng.integers(0, r, size=(count, family.count))
        draws, bounds = _sampled_values(gram(family.vectors), labels, r, threshold, family.dim)
        partition, part_bounds = _select(labels[draws], bounds, r, threshold)
    else:
        raise ValueError(f'mode must be "exhaustive" or "sampled", got {mode!r}')

    _check_block_structure(family)
    certificate = RieszCertificate(partition, part_bounds, witness_coefficients(family, partition))
    return CertificationSummary(family, mode, count, seed, certificate)
