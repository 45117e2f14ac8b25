import itertools
import json
import math

import numpy as np
import pytest

import nonpaving.paving_analysis as pa
from nonpaving import (
    CertificationError,
    FrameFamily,
    InternalInconsistencyError,
    Partition,
    ProjectionMatrix,
    ResourceLimitError,
    RieszCertificate,
    Witness,
    best_partition_riesz,
    build_nonpavable_general,
    certify_nonpavable,
    gram,
    partition_from_assignment,
    riesz_lower_bound,
    witness_coefficients,
)

from oracles import jacobi_hermitian_eigenvalues, oracle_witness


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: partition_from_assignment([0.9, 1.5, 0, 0, 1, 1, 1, 1], 2),
        lambda: Partition(((0.5, 1), (2,))),
        lambda: riesz_lower_bound(build_nonpavable_general(2, 1), [0.2, 1.9]),
        lambda: certify_nonpavable(build_nonpavable_general(3, 2), "sampled", count=2.7),
        lambda: ProjectionMatrix(np.diag([1.0, 1.0, 0.0]).astype(complex), 2.9),
        lambda: partition_from_assignment([True, False], 2),
    ],
    ids=["labels", "partition-indices", "subset", "count", "rank", "bool-labels"],
)
def test_non_integral_labels_and_indices_are_rejected(call):
    """int() would truncate each of these to a different, valid request
    (a bool is refused too, as it is for r and n)."""
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("num_parts", [2.0, True], ids=["float", "bool"])
def test_num_parts_follows_the_integer_rule(num_parts):
    """range(2.0) raises TypeError and True counts as one part ("label 1 out
    of range for True parts"); the one integer rule refuses both."""
    fam = build_nonpavable_general(2, 1)
    with pytest.raises(ValueError, match="num_parts must be an integer"):
        partition_from_assignment([0, 1, 0, 1], num_parts)
    with pytest.raises(ValueError, match="num_parts must be an integer"):
        best_partition_riesz(fam, num_parts)


def test_numpy_integers_are_accepted():
    labels = np.array([1, 0, 1], dtype=np.int32)
    assert partition_from_assignment(labels, np.int64(2)).parts == ((1,), (0, 2))
    assert Partition(((np.int64(1), 0),)).parts == ((0, 1),)
    fam = build_nonpavable_general(2, 1)
    assert riesz_lower_bound(fam, np.array([0, 1])) == riesz_lower_bound(fam, [0, 1])
    summary = certify_nonpavable(build_nonpavable_general(3, 2), "sampled", count=np.int64(3))
    assert summary.count == 3 and type(summary.count) is int


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


@pytest.mark.parametrize(
    "subset, message",
    [
        ([0, 2], r"must lie in \[0, 2\)"),
        ([-1, 0], r"must lie in \[0, 2\)"),
        ([1, 1], "must be distinct"),
        ([1.0], "subset index must be an integer"),
        ([True], "subset index must be an integer"),
    ],
    ids=["past-end", "negative", "duplicate", "float", "bool"],
)
def test_riesz_bound_refuses_a_bad_subset(subset, message):
    fam = FrameFamily(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match=message):
        riesz_lower_bound(fam, subset)


@pytest.mark.parametrize("rows", range(1, 17))
def test_riesz_bound_against_jacobi_oracle(rows):
    """The full subset's bound vs the hand-written Jacobi solver in
    oracles.py, on a random complex family and the Gram numpy forms."""
    rng = np.random.default_rng(1000 + rows)
    v = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
    g = v @ v.conj().T
    spectrum = jacobi_hermitian_eigenvalues((g + g.conj().T) / 2.0)
    assert abs(riesz_lower_bound(FrameFamily(v), range(rows)) - spectrum[0]) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riesz_bound_collapses_on_top_block_rows(n):
    """Any n rows of the first block admit a small combination: <= 2/(n+1)."""
    fam = build_nonpavable_general(2, n)
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
    _, value = best_partition_riesz(build_nonpavable_general(2, 2), 2)
    assert value <= 2.0 / 3.0 + 1e-8


def test_best_partition_respects_budget():
    with pytest.raises(ResourceLimitError):
        best_partition_riesz(build_nonpavable_general(2, 2), 2, budget=10)
    # 3^18 assignments for (3, 2): refused before any part bound is computed
    with pytest.raises(ResourceLimitError, match="1000"):
        best_partition_riesz(build_nonpavable_general(3, 2), 3, budget=1000)
    with pytest.raises(ResourceLimitError, match=r"^2\^8 assignments exceed the budget of 10$"):
        best_partition_riesz(build_nonpavable_general(2, 2), 2, budget=np.int64(10))
    # 2^8 fits 256 and not 255, whose bit length is 8: the edge where the
    # refusal does not form the power
    best_partition_riesz(build_nonpavable_general(2, 2), 2, budget=256)
    with pytest.raises(ResourceLimitError) as excinfo:
        best_partition_riesz(build_nonpavable_general(2, 2), 2, budget=255)
    assert str(excinfo.value) == "2^8 assignments exceed the budget of 255"
    # one part is one assignment, whatever the size
    pa._check_assignment_budget(10**6, 1, 1)
    with pytest.raises(ValueError):
        best_partition_riesz(build_nonpavable_general(2, 1), 0)
    with pytest.raises(ValueError):
        best_partition_riesz(build_nonpavable_general(2, 1), 2, budget=0)


# ---------------------------------------------------------------------------
# witness_coefficients
# ---------------------------------------------------------------------------

def lopsided_partition(fam):
    # all of block 1 in part 0, everything else in part 1
    rn = fam.r * fam.n
    labels = [0] * rn + [1] * (fam.count - rn)
    return partition_from_assignment(labels, fam.r)


def test_witness_on_lopsided_partition():
    fam = build_nonpavable_general(2, 2)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    assert wit.k == 1
    assert wit.part == 0
    assert set(wit.indices) <= set(range(4))
    assert wit.achieved_norm_sq <= 2.0 / 3.0 + 1e-8


def test_witness_annihilates_the_band_and_recomputes():
    fam = build_nonpavable_general(2, 3)
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
    fam = build_nonpavable_general(2, n)
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
    fam = build_nonpavable_general(2, 1)
    wit = witness_coefficients(fam, lopsided_partition(fam))
    assert wit.achieved_norm_sq <= 1.0 + 1e-8


def test_witness_rejects_wrong_partition_shape():
    fam = build_nonpavable_general(2, 2)
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
    fam = build_nonpavable_general(2, 2)
    G = gram(fam.vectors)
    for labels in itertools.product(range(2), repeat=fam.count):
        partition = partition_from_assignment(labels, 2)
        wit = witness_coefficients(fam, partition)
        idx = list(partition.parts[wit.part])
        bound = float(np.linalg.eigvalsh(G[np.ix_(idx, idx)])[0])
        assert wit.achieved_norm_sq >= bound - 1e-10


def oracle_cases():
    """Every partition of (2, 2), then 200 seeded ones each of (3, 2), (4, 2), (2, 4)."""
    fam = build_nonpavable_general(2, 2)
    for labels in itertools.product(range(2), repeat=fam.count):
        yield fam, list(labels)
    for seed, (r, n) in enumerate([(3, 2), (4, 2), (2, 4)]):
        fam = build_nonpavable_general(r, n)
        for labels in np.random.default_rng(seed).integers(0, r, size=(200, fam.count)):
            yield fam, labels.tolist()


def test_witness_matches_per_block_oracle_bit_for_bit():
    checked = 0
    for fam, labels in oracle_cases():
        wit = witness_coefficients(fam, partition_from_assignment(labels, fam.r))
        k, part, rows, coeff, achieved = oracle_witness(fam.vectors, labels, fam.r, fam.n)
        assert (wit.k, wit.part, wit.indices) == (k, part, tuple(rows))
        assert wit.coefficients.tobytes() == coeff.tobytes()
        assert wit.achieved_norm_sq == achieved
        checked += 1
    assert checked == 256 + 3 * 200


# ---------------------------------------------------------------------------
# RieszCertificate validation
# ---------------------------------------------------------------------------

def test_certificate_rejects_misaligned_bounds():
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError):
        RieszCertificate(p, (1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certificate_rejects_non_finite_bounds(bad):
    """min() over a nan slot depends on the slot order, so no derived
    min_part_bound is sound unless every bound is finite."""
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError, match="finite"):
        RieszCertificate(p, (bad, 0.7))
    with pytest.raises(ValueError, match="finite"):
        Witness(1, 0, (0,), np.array([1.0 + 0j]), bad)
    with pytest.raises(ValueError, match="unit norm"):
        Witness(1, 0, (0,), np.array([complex(bad, 0.0)]), 0.5)


@pytest.mark.parametrize("bad", [True, "0.5", 1 + 0j], ids=["bool", "str", "complex"])
def test_certificate_numbers_must_be_real(bad):
    """A bool would be written as true in the certificate JSON, and a str or
    complex has no order to compare with a threshold."""
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError, match="finite"):
        RieszCertificate(p, (bad, 0.7))
    with pytest.raises(ValueError, match="finite"):
        Witness(1, 0, (0,), np.array([1.0 + 0j]), bad)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
def test_certificate_refuses_an_int_too_large_for_a_float(huge):
    """float() of such an int raises OverflowError; it is refused with the
    same ValueError as an infinite bound."""
    p = partition_from_assignment([0, 1], 2)
    with pytest.raises(ValueError, match="^part bound must be finite, got "):
        RieszCertificate(p, (huge, 0.7))


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
def test_witness_refuses_an_int_too_large_for_a_float(huge):
    with pytest.raises(ValueError, match="^achieved_norm_sq must be finite and >= 0, got "):
        Witness(1, 0, (0,), np.array([1 + 0j]), huge)


def test_certificate_numbers_are_stored_as_floats():
    cert = RieszCertificate(partition_from_assignment([0, 1, 1], 3), (np.float64(0.5), 1, None))
    assert [type(b) for b in cert.part_bounds] == [float, float, type(None)]
    assert cert.part_bounds == (0.5, 1.0, None)
    wit = Witness(1, 0, (0,), np.array([1.0 + 0j]), np.int64(1))
    assert type(wit.achieved_norm_sq) is float and wit.achieved_norm_sq == 1.0


@pytest.mark.parametrize(
    "k, part, message",
    [(1, -1, "witness part must be >= 0"),
     (1, 2, "witness part 2 out of range for 2 parts"),
     (0, 0, "witness block k must be >= 1")],
    ids=["part-negative", "part-past-the-last", "k-zero"],
)
def test_certificate_rejects_witness_indices_out_of_range(k, part, message):
    """Without range checks, part=-1 would be compared with the last part's
    bound, and part=2 on two parts would raise IndexError."""
    with pytest.raises(ValueError, match=message):
        RieszCertificate(partition_from_assignment([0, 1], 2), (0.5, 0.7),
                         Witness(k, part, (0,), np.array([1 + 0j]), 0.8))


def test_certificate_rejects_missing_bound_of_a_nonempty_part():
    """min_part_bound skips None slots, so a None on a nonempty part would
    leave that part's bound out of the certified minimum."""
    with pytest.raises(ValueError, match="part 1 has 1 rows and bound None"):
        RieszCertificate(partition_from_assignment([0, 1], 2), (0.5, None))


def test_certificate_rejects_bound_of_an_empty_part():
    """A bound on an empty part would set the derived min: 0.3 here."""
    with pytest.raises(ValueError, match="part 1 has 0 rows and bound 0.3"):
        RieszCertificate(partition_from_assignment([0, 0], 2), (0.5, 0.3))


def test_certificate_rejects_witness_rows_outside_its_part():
    wit = Witness(1, 0, (1,), np.array([1.0 + 0j]), 0.8)
    with pytest.raises(ValueError, match="witness indices are not all in part 0"):
        RieszCertificate(partition_from_assignment([0, 1], 2), (0.5, 0.7), wit)


def test_certificate_rejects_witness_below_part_bound():
    p = partition_from_assignment([0, 0], 2)
    wit = Witness(1, 0, (0,), np.array([1.0 + 0j]), 0.1)
    with pytest.raises(InternalInconsistencyError):
        RieszCertificate(p, (0.5, None), wit)


# ---------------------------------------------------------------------------
# certify_nonpavable
# ---------------------------------------------------------------------------

def test_select_takes_the_first_row_of_largest_value():
    labels = [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
    bounds = [[0.25, 0.5], [0.5, 0.75], [0.75, 0.5]]  # values 0.25, 0.5, 0.5
    partition, slots = pa._select(labels, bounds, 2, 1.0)
    assert partition == partition_from_assignment((0, 1, 0), 2)
    assert slots == (0.5, 0.75)


def test_select_reads_an_empty_part_as_no_bound():
    """An empty part's inf never sets a row's value and becomes a None slot."""
    labels = np.array([[0, 1], [0, 0]])
    bounds = np.array([[0.25, 0.25], [0.5, np.inf]])
    partition, slots = pa._select(labels, bounds, 2, 1.0)
    assert partition.parts == ((0, 1), ())
    assert slots == (0.5, None)
    assert all(type(b) is float for b in slots if b is not None)


def test_select_raises_the_first_row_above_the_threshold():
    """A later, larger row does not displace the first failure, and a value
    equal to the threshold does not fail."""
    labels = [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
    bounds = [[0.5, 0.75], [0.625, 0.75], [0.875, 0.875]]
    with pytest.raises(CertificationError) as info:
        pa._select(labels, bounds, 2, 0.5)
    assert str(info.value) == "partition keeps min-part bound 0.625 above 0.5"
    assert info.value.partition == partition_from_assignment((0, 1, 0), 2)
    partition, slots = pa._select(labels[:1], bounds[:1], 2, 0.5)
    assert (partition.parts, slots) == (((0, 1), (2,)), (0.5, 0.75))


def test_exhaustive_certification_r2_n2():
    summary = certify_nonpavable(build_nonpavable_general(2, 2), "exhaustive")
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
    summary = certify_nonpavable(build_nonpavable_general(2, 1), "exhaustive")
    assert summary.vacuous
    assert summary.deltas == (1.0, 1.0)
    assert summary.to_json_dict()["vacuous"] is True


@pytest.mark.parametrize("size", [8.0, np.float64(8.0), True], ids=["float", "numpy-float", "bool"])
def test_assignment_size_follows_the_integer_rule(size):
    with pytest.raises(ValueError, match="size must be an integer"):
        pa._check_assignment_budget(size, 2, 256)


def test_sampled_count_past_numpy_index_range_is_a_budget_refusal(monkeypatch):
    """10**19 draws are refused as a budget, before the Gram is formed."""
    def no_gram(_):
        raise AssertionError("gram formed before the index-range check")

    monkeypatch.setattr(pa, "gram", no_gram)
    with pytest.raises(ResourceLimitError, match="past numpy's index range$"):
        certify_nonpavable(build_nonpavable_general(2, 1), "sampled", count=10**19)


def test_sampled_negative_seed_is_refused_by_the_integer_rule(monkeypatch):
    monkeypatch.setattr(pa, "gram", lambda _: pytest.fail("gram formed before the seed check"))
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        certify_nonpavable(build_nonpavable_general(2, 1), "sampled", count=5, seed=-1)


def test_certification_mode_validation():
    fam = build_nonpavable_general(2, 1)
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "exhaustive", count=5)
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "sampled")
    with pytest.raises(ValueError):
        certify_nonpavable(fam, "guess")


def test_certification_respects_budget():
    with pytest.raises(ResourceLimitError):
        certify_nonpavable(build_nonpavable_general(3, 2), "exhaustive", budget=100)


def test_budget_is_checked_before_the_gram(monkeypatch):
    """2^32 assignments for (2, 8) are refused before the Gram is formed."""
    def no_gram(_):
        raise AssertionError("gram formed before the budget check")

    monkeypatch.setattr(pa, "gram", no_gram)
    fam = build_nonpavable_general(2, 8)
    with pytest.raises(ResourceLimitError):
        certify_nonpavable(fam, "exhaustive")
    with pytest.raises(ResourceLimitError):
        best_partition_riesz(fam, 2)


def test_certification_json_shape():
    summary = certify_nonpavable(build_nonpavable_general(2, 2), "sampled", count=50, seed=3)
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
