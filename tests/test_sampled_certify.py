"""Batched sampled certification against a per-draw loop.

Sampled certify checks its seeded draws in stacks: one eigvalsh call per
stack of equal-size parts and one SVD call per stack of distinct equal-size
witness selections. It solves every draw's largest part first and all parts
only of the draws that could fail or be the worst. Every per-draw value must
be the per-draw loop's bit for bit, the first failing draw must fail as it
would when the draws are checked one by one, and certificates must keep the
bytes the per-draw loop wrote.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# largest parts first: the work done and the outcome kept
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "r, n, count, seed, eigensolves, settled, svds",
    [(3, 2, 10000, 2010, 10093, 31, 116), (4, 8, 2000, 7, 2060, 15, 6003)],
    ids=["r3n2", "r4n8"],
)
def test_sampled_work_counts_are_pinned(r, n, count, seed, eigensolves, settled, svds,
                                        monkeypatch):
    """Matrices given to eigvalsh and svd, summed over their stacks. Every
    draw's largest part is solved once; all r parts only of the settled
    draws (a full pass solves r * count)."""
    family = build_nonpavable_general(r, n)
    solved = {"eigvalsh": 0, "svd": 0}
    for name in solved:
        real = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            solved[_name] += a.shape[0] if a.ndim == 3 else 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    batches = []
    real_parts = pa._sampled_part_bounds

    def parts_spy(G, labels, num_parts):
        batches.append(len(labels))
        return real_parts(G, labels, num_parts)

    monkeypatch.setattr(pa, "_sampled_part_bounds", parts_spy)
    certify_nonpavable(family, "sampled", count=count, seed=seed)
    assert solved == {"eigvalsh": eigensolves, "svd": svds}
    assert sum(batches) == settled
    assert solved["eigvalsh"] <= count + r * sum(batches)


@pytest.mark.parametrize(
    "r, n, count, seed", [(2, 2, 3000, 0), (3, 1, 1000, 6)], ids=["r2n2", "r3n1"]
)
def test_tied_maxima_give_the_first_maximizer(r, n, count, seed):
    """(2, 2) has 2^8 labelings and (3, 1) 3^9, so the draws repeat some and
    several tie at the largest value, bit for bit. In the (3, 1) sample a
    later maximizer has the larger largest-part bound, so the earlier one
    is settled only because its bound ties the largest value."""
    family = build_nonpavable_general(r, n)
    draws = oracle_draws(family, count, seed)
    values = [draw[2] for draw in draws]
    worst = values.index(max(values))
    assert values.count(values[worst]) > 1
    summary = certify_nonpavable(family, "sampled", count=count, seed=seed)
    labels, bounds, value, k, achieved = draws[worst]
    cert = summary.certificate
    assert cert.partition.parts == parts_of(labels, r)
    assert list(cert.part_bounds) == bounds
    assert summary.worst_min_part_bound == value
    assert (cert.witness.k, cert.witness.achieved_norm_sq) == (k, achieved)


FAMILIES = {(r, n): build_nonpavable_general(r, n) for r, n in [(2, 2), (2, 3), (3, 1), (3, 2)]}


def largest_part_bound(labels, bounds, r):
    sizes = [labels.count(j) for j in range(r)]
    return bounds[sizes.index(max(sizes))]


def per_draw_outcome(family, draws, tol):
    """(error type, partition, message) of checking the draws one by one
    with WITNESS_TOL = tol; on a pass (None, partition, certificate values)
    of the first maximizer."""
    r, deltas = family.r, family.schedule.deltas
    threshold = max(deltas[: r - 1]) + tol
    for labels, _, value, k, achieved in draws:
        if value > threshold:
            return (CertificationError, parts_of(labels, r),
                    f"partition keeps min-part bound {value} above {threshold}")
        if achieved > deltas[k - 1] + tol:
            return (InternalInconsistencyError, parts_of(labels, r),
                    f"witness achieved {achieved}, above delta_{k} = {deltas[k - 1]}")
    values = [draw[2] for draw in draws]
    labels, bounds, value, k, achieved = draws[values.index(max(values))]
    return None, parts_of(labels, r), (bounds, value, k, achieved)


def tolerances(family, draws, kind):
    """Candidate WITNESS_TOL values: thresholds at the draws' values
    ("value"), halfway between a draw's value and the larger bound of its
    largest part where that bound is below the largest value ("gap"), or
    witness limits at the draws' achieved norms, the default tolerance
    included ("slack")."""
    deltas = family.schedule.deltas
    top = max(deltas[: family.r - 1])
    if kind == "value":
        return sorted({value - top for _, _, value, _, _ in draws})
    if kind == "gap":
        most = max(value for _, _, value, _, _ in draws)
        return sorted({(value + lead) / 2 - top for labels, bounds, value, _, _ in draws
                       if value + 1e-9 < (lead := largest_part_bound(labels, bounds, family.r))
                       < most})
    return sorted({achieved - deltas[k - 1] for _, _, _, k, achieved in draws} | {pa.WITNESS_TOL})


@settings(max_examples=60, deadline=None)
@given(
    rn=st.sampled_from(sorted(FAMILIES)),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["value", "gap", "slack"]),
    data=st.data(),
)
def test_outcome_matches_per_draw_loop(rn, count, seed, kind, data):
    """With a "gap" tolerance the worst draw fails, and some draw's largest
    part is above the threshold while its value is not: that draw must be
    settled, neither failing nor hiding an earlier failure."""
    family = FAMILIES[rn]
    r = family.r
    draws = oracle_draws(family, count, seed)
    marks = tolerances(family, draws, kind)
    assume(marks)
    tol = data.draw(st.sampled_from(marks))
    if kind == "gap":
        threshold = max(family.schedule.deltas[: r - 1]) + tol
        assert any(largest_part_bound(labels, bounds, r) > threshold >= value
                   for labels, bounds, value, _, _ in draws)
    want = per_draw_outcome(family, draws, tol)
    event("passed" if want[0] is None else want[0].__name__)

    checked = []
    real = pa.witness_coefficients

    def spy(fam, partition):
        checked.append(partition.parts)
        return real(fam, partition)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pa, "WITNESS_TOL", tol)
        mp.setattr(pa, "witness_coefficients", spy)
        try:
            summary = certify_nonpavable(family, "sampled", count=count, seed=seed)
        except (CertificationError, InternalInconsistencyError) as exc:
            partition = exc.partition.parts if isinstance(exc, CertificationError) else checked[-1]
            assert (type(exc), partition, str(exc)) == want
            return
    cert = summary.certificate
    assert want[0] is None
    assert cert.partition.parts == want[1]
    assert (list(cert.part_bounds), summary.worst_min_part_bound,
            cert.witness.k, cert.witness.achieved_norm_sq) == want[2]


def test_draw_with_only_its_largest_part_above_the_threshold_passes(monkeypatch):
    """Every witness passes and the threshold lies halfway between a draw's
    value and its largest part's bound, below the worst value: the first
    draw whose value is above it fails, not an earlier draw whose largest
    part alone is above it."""
    family = build_nonpavable_general(3, 2)
    draws = oracle_draws(family, COUNT, SEED)
    tol = max(tolerances(family, draws, "gap"))
    threshold = max(family.schedule.deltas[:2]) + tol
    first = next(d for d, draw in enumerate(draws) if draw[2] > threshold)
    assert any(largest_part_bound(labels, bounds, 3) > threshold
               for labels, bounds, _, _, _ in draws[:first])
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
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
