"""Batched sampled certification against a per-draw loop.

Sampled certify checks its seeded draws in stacks: one eigvalsh call per
stack of equal-size parts and one SVD call per stack of equal-size witness
selections. Every per-draw value must be the per-draw loop's bit for bit,
the first failing draw must fail as it would when the draws are checked one
by one, and certificates must keep the bytes the per-draw loop wrote.
"""

from pathlib import Path

import numpy as np
import pytest

import nonpaving.paving_analysis as pa
from nonpaving import (
    CertificationError,
    InternalInconsistencyError,
    build_nonpavable_general,
    certify_nonpavable,
    gram,
)
from nonpaving.cli import main

from oracles import flat_sampled_values

DATA = Path(__file__).parent / "data"


def draw_labels(family, count, seed):
    return np.random.Generator(np.random.Philox(seed)).integers(
        0, family.r, size=(count, family.count)
    )


def oracle_draws(family, count, seed):
    G = gram(family.vectors)
    return list(flat_sampled_values(G, family.vectors, family.r, family.n, count, seed))


@pytest.mark.parametrize(
    "r, n, count, seed",
    [(2, 3, 1500, 1), (3, 1, 500, 2), (3, 2, 2000, 3), (4, 2, 600, 4)],
    ids=["r2n3", "r3n1-vacuous", "r3n2", "r4n2"],
)
def test_batched_values_match_per_draw_loop_bit_for_bit(r, n, count, seed):
    family = build_nonpavable_general(r, n)
    labels = draw_labels(family, count, seed)
    bounds = pa._sampled_part_bounds(gram(family.vectors), labels, r)
    witness_k, _, achieved = pa._sampled_witnesses(family, labels)
    want = oracle_draws(family, count, seed)
    for d, (want_labels, want_bounds, want_value, want_k, want_achieved) in enumerate(want):
        assert labels[d].tolist() == want_labels
        assert [None if b == np.inf else float(b) for b in bounds[d]] == want_bounds
        assert float(bounds[d].min()) == want_value
        assert (int(witness_k[d]), float(achieved[d])) == (want_k, want_achieved)

    summary = certify_nonpavable(family, "sampled", count=count, seed=seed)
    worst = max(range(count), key=lambda d: (want[d][2], -d))  # first maximizer
    want_labels, want_bounds, want_value, want_k, want_achieved = want[worst]
    cert = summary.certificate
    assert cert.partition.parts == tuple(
        tuple(i for i, a in enumerate(want_labels) if a == j) for j in range(r)
    )
    assert list(cert.part_bounds) == want_bounds
    assert summary.worst_min_part_bound == want_value
    assert (cert.witness.k, cert.witness.achieved_norm_sq) == (want_k, want_achieved)
    assert summary.partitions_checked == count


@pytest.mark.parametrize(
    "r, n, count, seed",
    [(3, 2, 10000, 2010), (4, 8, 200, 7)],
)
def test_sampled_certificate_bytes_unchanged(r, n, count, seed, tmp_path, capsys):
    """Recorded by the per-draw loop; the stacked checks must reproduce it."""
    out = tmp_path / "c.json"
    code = main(["certify", "--r", str(r), "--n", str(n), "--mode", "sampled",
                 "--count", str(count), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / f"cert_r{r}_n{n}_sampled.json").read_bytes()


# ---------------------------------------------------------------------------
# the first failing draw
# ---------------------------------------------------------------------------

COUNT, SEED = 400, 6


def first_failure(family, draws, tol):
    """Index of the first draw failing the bound or the witness check with
    WITNESS_TOL = tol, and whether it fails the bound."""
    deltas = family.schedule.deltas
    threshold = max(deltas[: family.r - 1]) + tol
    for d, (_, _, value, k, achieved) in enumerate(draws):
        if value > threshold:
            return d, True
        if achieved > deltas[k - 1] + tol:
            return d, False
    raise AssertionError("no draw fails")


def parts_of(labels, r):
    return tuple(tuple(i for i, a in enumerate(labels) if a == j) for j in range(r))


def test_bound_failure_names_the_first_draw_above_the_threshold(monkeypatch):
    family = build_nonpavable_general(3, 2)
    draws = oracle_draws(family, COUNT, SEED)
    top = max(family.schedule.deltas[:2])
    tol = sorted(v for _, _, v, _, _ in draws)[int(0.95 * COUNT)] - top
    threshold = top + tol
    first = next(d for d, draw in enumerate(draws) if draw[2] > threshold)
    assert first > 0
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    # every batched witness passes, so the first draw above the threshold
    # is the first failing draw
    monkeypatch.setattr(pa, "_sampled_witnesses",
                        lambda fam, labels: (np.ones(len(labels), int),
                                             np.zeros(len(labels), int),
                                             np.full(len(labels), -np.inf)))
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert info.value.partition.parts == parts_of(draws[first][0], 3)
    assert str(info.value) == (
        f"partition keeps min-part bound {draws[first][2]} above {threshold}"
    )


def test_bound_failure_takes_precedence_over_a_witness_failure(monkeypatch):
    """With the threshold just below draw 0's value, draw 0 fails both checks
    (a part bound never exceeds a witness's achieved norm on that part)."""
    family = build_nonpavable_general(3, 2)
    draws = oracle_draws(family, COUNT, SEED)
    tol = np.nextafter(draws[0][2], -np.inf) - max(family.schedule.deltas[:2])
    assert first_failure(family, draws, tol) == (0, True)
    k, achieved = draws[0][3], draws[0][4]
    assert achieved > family.schedule.deltas[k - 1] + tol
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert info.value.partition.parts == parts_of(draws[0][0], 3)


def test_witness_failure_names_the_first_failing_draw(monkeypatch):
    """A slightly negative WITNESS_TOL fails only the draws whose witness has
    the least slack below its delta; the first of them is re-checked alone
    and fails. Many draws share a witness, so the message alone does not
    tell them apart: the partitions given to witness_coefficients do."""
    family = build_nonpavable_general(3, 2)
    deltas = family.schedule.deltas
    draws = oracle_draws(family, COUNT, SEED)
    slack = sorted({deltas[k - 1] - a for _, _, _, k, a in draws})
    tol = -(slack[0] + slack[1]) / 2
    first, bound_failed = first_failure(family, draws, tol)
    assert first > 0 and not bound_failed
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    checked = []
    real = pa.witness_coefficients

    def spy(fam, partition):
        checked.append(partition.parts)
        return real(fam, partition)

    monkeypatch.setattr(pa, "witness_coefficients", spy)
    with pytest.raises(InternalInconsistencyError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert checked == [parts_of(draws[first][0], 3)]
    _, _, _, k, achieved = draws[first]
    assert str(info.value) == f"witness achieved {achieved}, above delta_{k} = {deltas[k - 1]}"
