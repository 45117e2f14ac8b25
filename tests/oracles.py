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
# partition counting by brute force
# ---------------------------------------------------------------------------

def distinct_partition_count(size, num_parts):
    """Number of partitions of {0..size-1} into <= num_parts unlabeled parts.

    Counted the dumb way: run over all labeled assignments and deduplicate
    by the set of nonempty parts.
    """
    seen = set()
    for assignment in itertools.product(range(num_parts), repeat=size):
        parts = []
        for label in range(num_parts):
            members = frozenset(i for i, a in enumerate(assignment) if a == label)
            if members:
                parts.append(members)
        seen.add(frozenset(parts))
    return len(seen)


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
# sampled certification by a per-draw loop
# ---------------------------------------------------------------------------

def flat_sampled_values(gram_matrix, vectors, r, n, count, seed):
    """Per-draw part bounds and witness of seeded random labelings.

    gram_matrix is the Gram of the rows of vectors, passed in as the caller
    computed it (eigvalsh reads one triangle, so its rounding matters). The
    draws are the rows of Philox(seed) integers in [0, r), shape
    (count, r*r*n). Yields (labels, bounds, value, k, achieved) per draw:
    bounds per part (None when empty) from eigvalsh on the sorted principal
    submatrix of the Gram, value their min; for each block k < r, the part
    holding most of the block's r*n rows (ties to the lowest label) gives
    rows whose band columns (k-1)(n-1) .. k(n-1)-1 a unit null vector
    kills, chosen from a full SVD (singular values above 1e-10 of the
    largest count toward the rank; largest first coordinate, ties to the
    earliest) and combined with the rows. (k, achieved) is the block with
    the smallest squared norm of that combination, ties to the first.
    achieved is None when some block's largest intersection is below n.
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
        best_k, best = None, None
        for k in range(1, r):
            rows = max(([i for i in p if (k - 1) * rn <= i < k * rn] for p in parts), key=len)
            if len(rows) < n:
                best_k, best = None, None
                break
            sub = v[rows, :]
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
            achieved = float(np.sum(np.abs(coeff @ sub) ** 2))
            if best is None or achieved < best:
                best_k, best = k, achieved
        yield labels, bounds, value, best_k, best
