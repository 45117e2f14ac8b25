import json
import math

import numpy as np
import pytest

from nonpaving import (
    CertificationError,
    FrameFamily,
    InternalInconsistencyError,
    Partition,
    ResourceLimitError,
    RieszCertificate,
    Witness,
    best_partition_riesz,
    build_nonpavable_general,
    build_nonpavable_r2,
    certify_nonpavable,
    enumerate_partitions,
    gram,
    partition_from_assignment,
    riesz_lower_bound,
    witness_coefficients,
)

from oracles import distinct_partition_count


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def test_partition_normalizes_and_counts():
    p = Partition(((2, 0), (1,)))
    assert p.parts == ((0, 2), (1,))
    assert p.size == 3
    assert p.num_parts == 2


def test_partition_allows_empty_parts():
    p = Partition(((0, 1), ()))
    assert p.size == 2


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1,)))


def test_partition_rejects_gaps():
    with pytest.raises(ValueError):
        Partition(((0, 2), ()))


def test_partition_from_assignment():
    p = partition_from_assignment([1, 0, 1], 2)
    assert p.parts == ((1,), (0, 2))


def test_partition_from_assignment_rejects_bad_label():
    with pytest.raises(ValueError):
        partition_from_assignment([0, 2], 2)


# ---------------------------------------------------------------------------
# enumerate_partitions
# ---------------------------------------------------------------------------

def test_enumerate_two_points_two_parts_in_order():
    got = [p.parts for p in enumerate_partitions(2, 2)]
    assert got == [
        ((0, 1), ()),
        ((0,), (1,)),
        ((1,), (0,)),
        ((), (0, 1)),
    ]


def test_enumerate_count_is_parts_to_the_size():
    assert sum(1 for _ in enumerate_partitions(8, 2)) == 256
    assert sum(1 for _ in enumerate_partitions(4, 3)) == 81


def test_canonical_enumeration_matches_dedup_oracle():
    """For two parts, pinning index 0 to part 0 removes exactly the label swap."""
    got = list(enumerate_partitions(3, 2, canonical=True))
    assert len(got) == distinct_partition_count(3, 2) == 4
    assert all(0 in p.parts[0] for p in got)


def test_canonical_enumeration_pins_first_index():
    for p in enumerate_partitions(2, 3, canonical=True):
        assert 0 in p.parts[0]


def test_enumeration_budget_is_checked_eagerly():
    with pytest.raises(ResourceLimitError, match="1000"):
        enumerate_partitions(18, 3, budget=1000)


def test_enumeration_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        enumerate_partitions(0, 2)
    with pytest.raises(ValueError):
        enumerate_partitions(2, 0)
    with pytest.raises(ValueError):
        enumerate_partitions(2, 2, budget=0)


# ---------------------------------------------------------------------------
# riesz_lower_bound
# ---------------------------------------------------------------------------

def test_riesz_bound_of_single_unit_row():
    fam = FrameFamily(np.array([[1.0, 0.0]], dtype=complex))
    assert riesz_lower_bound(fam, [0]) == pytest.approx(1.0, abs=1e-12)


def test_riesz_bound_of_duplicated_row_is_zero():
    fam = FrameFamily(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
    assert riesz_lower_bound(fam, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_riesz_bound_rejects_empty_subset():
    fam = FrameFamily(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        riesz_lower_bound(fam, [])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riesz_bound_collapses_on_top_block_rows(n):
    """Any n rows of the first block admit a small combination: <= 2/(n+1)."""
    fam = build_nonpavable_r2(n)
    assert riesz_lower_bound(fam, range(n)) <= 2.0 / (n + 1) + 1e-12


# ---------------------------------------------------------------------------
# best_partition_riesz
# ---------------------------------------------------------------------------

def test_best_partition_of_orthonormal_rows():
    part, value = best_partition_riesz(FrameFamily(np.eye(2, dtype=complex)), 2)
    assert value == pytest.approx(1.0, abs=1e-12)
    # ties break to the first assignment in enumeration order
    assert part.parts == ((0, 1), ())


def test_best_partition_of_r2_family_stays_small():
    _, value = best_partition_riesz(build_nonpavable_r2(2), 2)
    assert value <= 2.0 / 3.0 + 1e-8


def test_best_partition_respects_budget():
    with pytest.raises(ResourceLimitError):
        best_partition_riesz(build_nonpavable_r2(2), 2, budget=10)


# ---------------------------------------------------------------------------
# witness_coefficients
# ---------------------------------------------------------------------------

def lopsided_partition(fam):
    # all of block 1 in part 0, everything else in part 1
    rn = fam.r * fam.n
    labels = [0] * rn + [1] * (fam.count - rn)
    return partition_from_assignment(labels, fam.r)


def test_witness_on_lopsided_partition():
    fam = build_nonpavable_r2(2)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    assert wit.k == 1
    assert wit.part == 0
    assert set(wit.indices) <= set(range(4))
    assert wit.achieved_norm_sq <= 2.0 / 3.0 + 1e-8


def test_witness_annihilates_the_band_and_recomputes():
    fam = build_nonpavable_r2(3)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    rows = fam.vectors[list(wit.indices), :]
    band = list(fam.layout.band_columns(wit.k))
    residual = float(np.max(np.abs(wit.coefficients @ rows[:, band])))
    assert residual <= 1e-10
    direct = float(np.sum(np.abs(wit.coefficients @ rows) ** 2))
    assert abs(direct - wit.achieved_norm_sq) <= 1e-12
    assert abs(float(np.linalg.norm(wit.coefficients)) - 1.0) <= 1e-12


def test_witness_norm_chain_for_two_blocks():
    """achieved = (2/(n+1)) * squared norm of the off-band part of the
    unweighted combination, because the witness kills the band exactly."""
    n = 3
    fam = build_nonpavable_r2(n)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    from nonpaving import dft_matrix

    base = dft_matrix(2 * n)
    combo = wit.coefficients @ base[list(wit.indices), :]
    tail_sq = float(np.sum(np.abs(combo[n - 1 :]) ** 2))
    assert wit.achieved_norm_sq == pytest.approx(2.0 / (n + 1) * tail_sq, abs=1e-8)


def test_witness_on_random_partitions_r3():
    fam = build_nonpavable_general(3, 2)
    deltas = fam.schedule.deltas
    rng = np.random.default_rng(17)
    for _ in range(25):
        labels = rng.integers(0, 3, size=fam.count)
        wit = witness_coefficients(fam, partition_from_assignment(labels, 3))
        assert wit.k in (1, 2)
        assert wit.achieved_norm_sq <= deltas[wit.k - 1] + 1e-8


def test_witness_vacuous_family():
    fam = build_nonpavable_r2(1)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    assert wit.achieved_norm_sq <= 1.0 + 1e-8


def test_witness_rejects_wrong_partition_shape():
    fam = build_nonpavable_r2(2)
    with pytest.raises(ValueError):
        witness_coefficients(fam, partition_from_assignment([0] * 7, 2))
    with pytest.raises(ValueError):
        witness_coefficients(fam, partition_from_assignment([0] * 8, 3))


def test_witness_rejects_plain_family():
    fam = FrameFamily(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        witness_coefficients(fam, partition_from_assignment([0, 0, 1, 1], 2))


def test_witness_dominates_part_bound_everywhere():
    """The witness uses particular coefficients, so it can never beat the
    part's optimal bound; checked over every 2-part split of the (2,2) family."""
    fam = build_nonpavable_r2(2)
    G = gram(fam.vectors)
    for partition in enumerate_partitions(fam.count, 2):
        wit = witness_coefficients(fam, partition)
        idx = list(partition.parts[wit.part])
        bound = float(np.linalg.eigvalsh(G[np.ix_(idx, idx)])[0])
        assert wit.achieved_norm_sq >= bound - 1e-10


# ---------------------------------------------------------------------------
# RieszCertificate validation
# ---------------------------------------------------------------------------

def test_certificate_rejects_wrong_min():
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError):
        RieszCertificate(p, (1.0, 1.0), 0.5)


def test_certificate_rejects_misaligned_bounds():
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError):
        RieszCertificate(p, (1.0,), 1.0)


def test_certificate_rejects_witness_below_part_bound():
    p = partition_from_assignment([0, 0], 2)
    wit = Witness(1, 0, (0,), np.array([1.0 + 0j]), 0.1)
    with pytest.raises(InternalInconsistencyError):
        RieszCertificate(p, (0.5, None), 0.5, wit)


# ---------------------------------------------------------------------------
# certify_nonpavable
# ---------------------------------------------------------------------------

def test_exhaustive_certification_r2_n2():
    summary = certify_nonpavable(build_nonpavable_r2(2), "exhaustive")
    assert summary.partitions_checked == 256
    assert summary.worst_min_part_bound <= 2.0 / 3.0 + 1e-8
    assert summary.mode == "exhaustive"
    assert not summary.vacuous
    cert = summary.certificate
    assert cert.witness is not None
    assert cert.min_part_bound == summary.worst_min_part_bound


def test_sampled_certification_r3_n2():
    fam = build_nonpavable_general(3, 2)
    summary = certify_nonpavable(fam, "sampled", count=300, seed=1)
    assert summary.partitions_checked == 300
    assert summary.seed == 1
    assert summary.worst_min_part_bound <= 0.9 + 1e-8


def test_sampled_certification_is_deterministic():
    fam = build_nonpavable_general(3, 2)
    a = certify_nonpavable(fam, "sampled", count=120, seed=7).to_json_dict()
    b = certify_nonpavable(fam, "sampled", count=120, seed=7).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_certification_flags_vacuous_family():
    summary = certify_nonpavable(build_nonpavable_r2(1), "exhaustive")
    assert summary.vacuous
    assert summary.deltas == (1.0, 1.0)
    assert summary.to_json_dict()["vacuous"] is True


def test_certification_mode_validation():
    fam = build_nonpavable_r2(1)
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "exhaustive", count=5)
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "sampled")
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "guess")


def test_certification_respects_budget():
    with pytest.raises(ResourceLimitError):
        certify_nonpavable(build_nonpavable_general(3, 2), "exhaustive", budget=100)


def test_certification_json_shape():
    summary = certify_nonpavable(build_nonpavable_r2(2), "sampled", count=50, seed=3)
    d = summary.to_json_dict()
    assert d["family"] == {"r": 2, "n": 2}
    assert d["passed"] is True
    assert len(d["partition"]) == 2
    assert len(d["per_part_bounds"]) == 2
    wit = d["witness"]
    assert wit["k"] == 1
    assert len(wit["coefficients"]) == len(wit["indices"])
    norm = math.fsum(re * re + im * im for re, im in wit["coefficients"])
    assert abs(norm - 1.0) <= 1e-10
