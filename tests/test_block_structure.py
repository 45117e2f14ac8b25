"""The block-structure check that proves every witness bound at once.

`paving_analysis._check_block_structure` passes when block k's rows are the
DFT rows times block k's column weights and the DFT rows are orthonormal,
each within a rounding bound. Its docstring proves that every unit
combination of n or more rows of block k that kills the block's band then
has squared norm at most delta_k + 3 r m (m + 2) eps, m = rn. Certify runs
the check once in place of a witness per partition.
"""

import itertools

import numpy as np
import pytest

import nonpaving.paving_analysis as pa
from nonpaving import (
    InternalInconsistencyError,
    build_nonpavable_general,
    certify_nonpavable,
    frame_bounds,
)

from oracles import oracle_selection_witness

EPS = float(np.finfo(np.float64).eps)


def lemma_bound(family, k):
    """The bound the check proves for every block-k witness."""
    r, m = family.r, family.r * family.n
    return family.schedule.deltas[k - 1] + 3 * r * m * (m + 2) * EPS


@pytest.mark.parametrize(
    "r, n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (4, 2), (8, 4)],
)
def test_built_families_pass(r, n):
    pa._check_block_structure(build_nonpavable_general(r, n))


def test_perturbed_row_fails_the_check_but_not_tightness(perturbed_family):
    lo, hi = frame_bounds(perturbed_family)
    assert abs(lo - 2.0) <= 1e-8 and abs(hi - 2.0) <= 1e-8
    with pytest.raises(InternalInconsistencyError, match="block 1 rows differ"):
        pa._check_block_structure(perturbed_family)


def test_perturbed_row_fails_sampled_certify(perturbed_family):
    with pytest.raises(InternalInconsistencyError, match="block 1 rows differ"):
        certify_nonpavable(perturbed_family, "sampled", count=50, seed=0)


def test_non_orthonormal_dft_rows_fail_the_check(monkeypatch):
    """Scaling the DFT by 1 + 1e-10 leaves it a valid matrix whose rows are
    not orthonormal: ||DD* - I||_F is about 2e-10 sqrt(m)."""
    real = pa.dft_matrix
    monkeypatch.setattr(pa, "dft_matrix", lambda m: real(m) * (1 + 1e-10))
    with pytest.raises(InternalInconsistencyError, match="not orthonormal"):
        pa._check_block_structure(build_nonpavable_general(2, 3))


@pytest.mark.parametrize("r, n", [(2, 2), (2, 3), (3, 1), (3, 2)])
def test_every_selection_witness_stays_within_the_lemma_bound(r, n):
    """Every n-subset of every witness block, solved by the numpy-only
    oracle, stays at or below the bound the check proves, which is itself
    within WITNESS_TOL of delta_k."""
    family = build_nonpavable_general(r, n)
    pa._check_block_structure(family)
    for k in range(1, r):
        bound = lemma_bound(family, k)
        assert bound <= family.schedule.deltas[k - 1] + pa.WITNESS_TOL
        for rows in itertools.combinations(family.layout.block_rows(k), n):
            assert oracle_selection_witness(family.vectors, k, rows, n)[1] <= bound
