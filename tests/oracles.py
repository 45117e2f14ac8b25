"""Independent reference implementations used only by the tests.

Everything here is written from first principles on purpose: slow loops,
exact rationals, and a hand-rolled eigensolver that shares no code path
with the package. When the package and an oracle agree, the agreement
means something.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# eigenvalues: cyclic Jacobi on the real-symmetric embedding
# ---------------------------------------------------------------------------

def embed_hermitian(h):
    """Real-symmetric embedding [[A, -B], [B, A]] of a Hermitian A + iB.

    The embedded matrix carries each eigenvalue of the original twice.
    """
    h = np.asarray(h, dtype=complex)
    a = h.real.copy()
    b = h.imag.copy()
    return np.block([[a, -b], [b, a]])


def _off_norm(m):
    # Frobenius norm of the strictly off-diagonal part.
    off = m - np.diag(np.diag(m))
    return math.sqrt(float(np.sum(off * off)))


def _rotate(m, p, q):
    # Zero m[p, q] with a two-sided Jacobi rotation, applied in place
    # to rows/columns p and q only.
    apq = m[p, q]
    theta = (m[q, q] - m[p, p]) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c

    row_p = m[p, :].copy()
    row_q = m[q, :].copy()
    m[p, :] = c * row_p - s * row_q
    m[q, :] = s * row_p + c * row_q
    col_p = m[:, p].copy()
    col_q = m[:, q].copy()
    m[:, p] = c * col_p - s * col_q
    m[:, q] = s * col_p + c * col_q


def jacobi_symmetric_eigenvalues(matrix, max_sweeps=60):
    """All eigenvalues of a real symmetric matrix by cyclic Jacobi sweeps.

    Stops once the off-diagonal Frobenius norm drops below
    1e-13 * ||input||_F.
    """
    m = np.array(matrix, dtype=float)
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    dim = m.shape[0]
    if dim == 1:
        return [float(m[0, 0])]
    target = 1e-13 * math.sqrt(float(np.sum(m * m)))
    for _ in range(max_sweeps):
        if _off_norm(m) <= target:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                if m[p, q] != 0.0:
                    _rotate(m, p, q)
    else:
        raise RuntimeError("jacobi sweep limit reached without convergence")
    return sorted(float(x) for x in np.diag(m))


def jacobi_hermitian_eigenvalues(h):
    """All eigenvalues of a complex Hermitian matrix.

    Runs Jacobi on the doubled real-symmetric embedding and collapses the
    duplicated spectrum by averaging adjacent sorted pairs.
    """
    doubled = jacobi_symmetric_eigenvalues(embed_hermitian(h))
    return [(doubled[2 * i] + doubled[2 * i + 1]) / 2.0
            for i in range(len(doubled) // 2)]


# ---------------------------------------------------------------------------
# Fourier matrix by explicit scalar loops
# ---------------------------------------------------------------------------

def dft_by_loops(n):
    """n x n Fourier matrix built entry by entry with cmath, no numpy math."""
    out = np.empty((n, n), dtype=complex)
    scale = 1.0 / math.sqrt(n)
    for j in range(n):
        for k in range(n):
            angle = 2.0 * math.pi * ((j * k) % n) / n
            out[j, k] = scale * cmath.exp(1j * angle)
    return out


def closed_form_r2(n):
    """The (2, n) family from its closed-form column weights, numpy only.

    Top block: the 2n-point DFT with the first n-1 columns scaled by sqrt(2)
    and the rest by sqrt(2/(n+1)). Bottom block: first n-1 columns zeroed,
    the rest by sqrt(2n/(n+1)). The weights come from these formulas, not
    from a delta schedule, and the arithmetic order matches the package's,
    so agreement is expected to the bit, not just to a tolerance.
    """
    size = 2 * n
    idx = np.arange(size)
    base = np.exp((2j * np.pi / size) * ((idx[:, None] * idx[None, :]) % size)) / np.sqrt(size)
    top = np.array([np.sqrt(2.0)] * (n - 1) + [np.sqrt(2.0 / (n + 1))] * (n + 1))
    bottom = np.array([0.0] * (n - 1) + [np.sqrt(2.0 * n / (n + 1))] * (n + 1))
    return np.vstack([base * top, base * bottom])


# ---------------------------------------------------------------------------
# column checks of a family, one column or one pair of columns at a time
# ---------------------------------------------------------------------------

def column_square_sums_by_columns(vectors):
    """Sum of squared entry moduli down each column, one column at a time."""
    v = np.asarray(vectors, dtype=complex)
    return np.array([float(np.sum(np.abs(v[:, j]) ** 2)) for j in range(v.shape[1])])


def column_orthogonality_defect_by_pairs(vectors):
    """Largest |<col_i, col_j>| over i < j, one np.vdot per pair; 0.0 for
    a single column."""
    v = np.asarray(vectors, dtype=complex)
    cols = v.shape[1]
    return max(
        (abs(np.vdot(v[:, j], v[:, i])) for i in range(cols) for j in range(i + 1, cols)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# exact rational values for the column-weight schedule
# ---------------------------------------------------------------------------

def delta_fraction(r, n, k):
    """delta_k as an exact rational, k running 1..r."""
    return Fraction(r * r * n, ((r - k + 1) * n + k - 1) * ((r - k) * n + k))


def partial_sum_fraction(r, n, k):
    """Closed-form partial sum r*k / ((r-k)*n + k), exact."""
    return Fraction(r * k, (r - k) * n + k)


# ---------------------------------------------------------------------------
# max-min partition search by the flat walk over every labeling
# ---------------------------------------------------------------------------

def flat_partition_values(gram_matrix, num_parts):
    """(parts, value) for every labeling of the rows, in lexicographic order.

    Index 0 is the most significant label. value is the smallest, over the
    nonempty parts, of the part's smallest Gram eigenvalue, taken by numpy's
    eigvalsh on the principal submatrix with sorted indices.
    """
    g = np.asarray(gram_matrix)
    size = g.shape[0]
    for labels in itertools.product(range(num_parts), repeat=size):
        parts = tuple(
            tuple(i for i, a in enumerate(labels) if a == label)
            for label in range(num_parts)
        )
        value = min(
            float(np.linalg.eigvalsh(g[np.ix_(list(p), list(p))])[0])
            for p in parts if p
        )
        yield parts, value


def flat_max_min_partition(gram_matrix, num_parts):
    """First labeling, in lexicographic order, with the largest value."""
    best_parts, best_value = None, -math.inf
    for parts, value in flat_partition_values(gram_matrix, num_parts):
        if value > best_value:
            best_parts, best_value = parts, value
    return best_parts, best_value


# ---------------------------------------------------------------------------
# the search's row symmetries, one map and one rescan at a time
# ---------------------------------------------------------------------------

def row_group_by_maps(gram_matrix, block, margin):
    """(maps, window) of the shift and reflection row maps, one map at a time.

    Map (s, t) sends row a of every block of `block` rows to s*a + t mod
    block. Its defect is the Frobenius norm, by np.linalg.norm, of the
    np.ix_ gather of the Gram at the map minus the Gram (s = 1) or its
    conjugate (s = -1). The maps other than the identity, sorted, and the
    window 2 * margin + the largest defect are returned when that defect is
    at most margin, else ([], 0.0).
    """
    g_mat = np.asarray(gram_matrix)
    size = g_mat.shape[0]
    maps, defect = set(), 0.0
    for sign in (1, -1):
        target = g_mat if sign == 1 else g_mat.conj()
        for shift in range(block):
            g = [row - row % block + (sign * (row % block) + shift) % block for row in range(size)]
            defect = max(defect, float(np.linalg.norm(g_mat[np.ix_(g, g)] - target)))
            maps.add(tuple(g))
    maps.discard(tuple(range(size)))
    if defect > margin:
        return [], 0.0
    return sorted(maps), 2.0 * margin + defect


def first_appearance_relabeling(labels):
    """labels renumbered in order of first appearance: the first label met
    becomes 0, the next new one 1, and so on."""
    order = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    return [order.index(lab) for lab in labels]


def lex_leader_live_maps(labels, i, maps):
    """The lex-leader test of the prefix labels[:i + 1], rescanned from row 0.

    The image of the prefix under a row map g has label labels[g[x]] at
    position x. Its known run is positions 0, 1, ... up to the first x with
    g[x] unlabeled (g[x] > i) or to i. The run is relabeled by first
    appearance and compared with the prefix. Returns None when some map's
    run is smaller at its first difference, else the maps whose run equals
    the prefix on every position, in the order given.
    """
    live = []
    for g in maps:
        known = 0
        while known <= i and g[known] <= i:
            known += 1
        image = first_appearance_relabeling([labels[g[x]] for x in range(known)])
        diff = next((x for x in range(known) if image[x] != labels[x]), None)
        if diff is None:
            live.append(g)
        elif image[diff] < labels[diff]:
            return None
    return live


# ---------------------------------------------------------------------------
# the block-1 witness
# ---------------------------------------------------------------------------

def oracle_selection_witness(vectors, k, rows, n):
    """(coeff, achieved) for the given rows of block k of a built (r, n) family.

    The rows' band columns (k-1)(n-1) .. k(n-1)-1 are killed by a unit null
    vector chosen from a full SVD (singular values above 1e-10 of the
    largest count toward the rank; largest first coordinate, ties to the
    earliest); achieved is the squared norm of its combination of the rows.
    With n = 1 the band is empty and the first unit vector is taken.
    """
    sub = np.asarray(vectors)[list(rows), :]
    band = sub[:, (k - 1) * (n - 1):k * (n - 1)].T
    if band.shape[0] == 0:
        coeff = np.zeros(len(rows), dtype=complex)
        coeff[0] = 1.0
    else:
        _, sv, vh = np.linalg.svd(band, full_matrices=True)
        rank = int(np.sum(sv > 1e-10 * sv[0])) if sv[0] > 0 else 0
        null = np.conj(vh[rank:])
        coeff = null[int(np.argmax(np.abs(null[:, 0])))]
        coeff = coeff / np.linalg.norm(coeff)
    return coeff, float(np.sum(np.abs(coeff @ sub) ** 2))


def oracle_witness(vectors, labels, r, n):
    """(k, part, rows, coeff, achieved) for one labeling of a built (r, n) family.

    k is always 1: the part holding most of block 1's r*n rows (ties to the
    lowest label) gives the rows of `oracle_selection_witness`. A labeling
    of every row puts at least n of them in that part.
    """
    members = [[i for i in range(r * n) if labels[i] == j] for j in range(r)]
    part = max(range(r), key=lambda j: len(members[j]))
    coeff, achieved = oracle_selection_witness(vectors, 1, members[part], n)
    return 1, part, members[part], coeff, achieved


# ---------------------------------------------------------------------------
# sampled certification by a per-draw loop
# ---------------------------------------------------------------------------

def flat_sampled_values(gram_matrix, vectors, r, n, count, seed):
    """Per-draw part bounds and witness of seeded random labelings.

    gram_matrix is the Gram of the rows of vectors, passed in as the caller
    computed it (eigvalsh reads one triangle, so its rounding matters). The
    draws are the rows of Philox(seed) integers in [0, r), shape
    (count, r*r*n). Yields (labels, bounds, value, k, achieved) per draw:
    bounds per part (None when empty) from eigvalsh on the sorted principal
    submatrix of the Gram, value their min; (k, achieved) from
    `oracle_witness`.
    """
    g = np.asarray(gram_matrix)
    v = np.asarray(vectors)
    rn = r * n
    rng = np.random.Generator(np.random.Philox(seed))
    for labels in rng.integers(0, r, size=(count, r * rn)):
        labels = [int(a) for a in labels]
        parts = [[i for i, a in enumerate(labels) if a == j] for j in range(r)]
        bounds = [float(np.linalg.eigvalsh(g[np.ix_(p, p)])[0]) if p else None
                  for p in parts]
        value = min(b for b in bounds if b is not None)
        k, _, _, _, achieved = oracle_witness(v, labels, r, n)
        yield labels, bounds, value, k, achieved


# ---------------------------------------------------------------------------
# matrix CSV text, one entry at a time
# ---------------------------------------------------------------------------

def matrix_csv_by_entries(matrix):
    """The matrix CSV text, each entry written on its own with format(x, ".17g").

    The imaginary part's sign is taken with copysign, so -0.0 gives '-0j'.
    """
    m = np.asarray(matrix, dtype=complex)
    lines = [f"# {m.shape[0]} {m.shape[1]}"]
    for row in m:
        tokens = []
        for z in row:
            sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
            tokens.append(format(z.real, ".17g") + sign + format(abs(z.imag), ".17g") + "j")
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# whole-matrix checks: one product, one block, one Gram pair at a time
# ---------------------------------------------------------------------------

def idempotency_residual_direct(p):
    """max|P P - P| from the whole M x M product."""
    return float(np.max(np.abs(p @ p - p)))


def doubling_by_blocks(v):
    """One doubling as the block matrix [[V, V], [V, -V]] divided by sqrt 2."""
    return np.block([[v, v], [v, -v]]) / math.sqrt(2.0)


def gram_block_residual_by_pairs(doubled, seed):
    """Largest deviation of the doubled matrix's Gram from diagonal copies of
    the seed's Gram, one M x M block product per pair of copies i <= j."""
    m = seed.shape[0]
    g = seed @ seed.conj().T
    g_seed = 0.5 * (g + g.conj().T)
    worst = 0.0
    for i in range(doubled.shape[0] // m):
        for j in range(i, doubled.shape[0] // m):
            block = doubled[i * m : (i + 1) * m] @ doubled[j * m : (j + 1) * m].conj().T
            worst = max(worst, float(np.max(np.abs(block - g_seed if i == j else block))))
    return worst
