"""Batched sampled certification against a per-draw loop.

Sampled certify checks its seeded draws in stacks, one eigvalsh call per
stack of equal-size parts. It solves every draw's largest part first and all
parts only of the draws that could fail or be the worst. Every per-draw value
must be the per-draw loop's bit for bit, the first draw above the threshold
must fail as it would when the draws are checked one by one, and
certificates must keep the bytes the per-draw loop wrote. No draw's witness
is computed but the reported one's: the block-structure check proves the
others (tests/test_block_structure.py).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import nonpaving.paving_analysis as pa
from nonpaving import (
    CertificationError,
    FrameFamily,
    InternalInconsistencyError,
    build_nonpavable_general,
    certify_nonpavable,
    gram,
    partition_from_assignment,
    witness_coefficients,
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
    want = oracle_draws(family, count, seed)
    for d, (want_labels, want_bounds, want_value, want_k, want_achieved) in enumerate(want):
        assert labels[d].tolist() == want_labels
        assert [None if b == np.inf else float(b) for b in bounds[d]] == want_bounds
        assert float(bounds[d].min()) == want_value
        wit = witness_coefficients(family, partition_from_assignment(labels[d], r))
        assert (wit.k, wit.achieved_norm_sq) == (want_k, want_achieved)

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
    # no draw fails on its own witness, so the first draw above the
    # threshold is the first failing draw
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert info.value.partition.parts == parts_of(draws[first][0], 3)
    assert str(info.value) == (
        f"partition keeps min-part bound {draws[first][2]} above {threshold}"
    )


def test_bound_failure_takes_precedence_over_a_witness_failure(monkeypatch):
    """With the threshold just below draw 0's value, draw 0 fails both checks
    (a part bound never exceeds a witness's achieved norm on that part), and
    so would the reported draw's witness: the bound failure is raised."""
    family = build_nonpavable_general(3, 2)
    draws = oracle_draws(family, COUNT, SEED)
    tol = np.nextafter(draws[0][2], -np.inf) - max(family.schedule.deltas[:2])
    assert first_failure(family, draws, tol) == (0, True)
    values = [draw[2] for draw in draws]
    for _, _, _, k, achieved in (draws[0], draws[values.index(max(values))]):
        assert achieved > family.schedule.deltas[k - 1] + tol
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert info.value.partition.parts == parts_of(draws[0][0], 3)


def test_witness_failure_names_the_first_failing_draw(monkeypatch):
    """Only the reported (worst) draw's witness is computed, so it is the
    first and only draw that can fail a witness check. With WITNESS_TOL
    just below that witness's slack, the threshold stays above every drawn
    value, and a per-draw witness check would have failed an earlier draw;
    a spy on witness_coefficients shows that only the reported draw is
    checked."""
    family = build_nonpavable_general(3, 2)
    deltas = family.schedule.deltas
    draws = oracle_draws(family, COUNT, SEED)
    values = [draw[2] for draw in draws]
    worst = values.index(max(values))
    labels, _, _, k, achieved = draws[worst]
    tol = achieved - deltas[k - 1] - 1e-9
    assert max(values) <= max(deltas[:2]) + tol
    assert first_failure(family, draws, tol)[0] < worst
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    checked = []
    real = pa.witness_coefficients

    def spy(fam, partition):
        checked.append(partition.parts)
        return real(fam, partition)

    monkeypatch.setattr(pa, "witness_coefficients", spy)
    with pytest.raises(InternalInconsistencyError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert checked == [parts_of(labels, 3)]
    assert str(info.value) == f"witness achieved {achieved}, above delta_{k} = {deltas[k - 1]}"


# ---------------------------------------------------------------------------
# largest parts first: the work done and the outcome kept
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "r, n, count, seed, eigensolves, settled, svds",
    [(3, 2, 10000, 2010, 538, 31, 2), (4, 8, 2000, 7, 2045, 15, 3)],
    ids=["r3n2", "r4n8"],
)
def test_sampled_work_counts_are_pinned(r, n, count, seed, eigensolves, settled, svds,
                                        monkeypatch):
    """Matrices given to eigvalsh and svd, summed over their stacks. A
    draw's largest part is solved at most once, and only while it has at
    most rn rows or no settled value is above the rank cap; the other
    r - 1 parts only of the settled draws (a full pass solves r * count).
    (3, 2) solves 476 balanced draws' largest parts of 10,000 (every one
    solved 10,093 matrices); every (4, 8) value is rounding noise, so all
    2,000 largest parts are solved. The only SVDs are the reported
    witness's, one per block k < r, whatever the draw count."""
    family = build_nonpavable_general(r, n)
    solved = {"eigvalsh": 0, "svd": 0}
    for name in solved:
        real = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            solved[_name] += a.shape[0] if a.ndim == 3 else 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    kept = []
    real_values = pa._sampled_values

    def values_spy(*args):
        draws, bounds = real_values(*args)
        kept.append(len(draws))
        return draws, bounds

    monkeypatch.setattr(pa, "_sampled_values", values_spy)
    certify_nonpavable(family, "sampled", count=count, seed=seed)
    assert solved == {"eigvalsh": eigensolves, "svd": svds}
    assert kept == [settled]
    assert solved["eigvalsh"] <= count + (r - 1) * settled


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
    with WITNESS_TOL = tol: the first draw above the threshold fails, and
    otherwise the first maximizer's witness is checked, no other's. On a
    pass, (None, partition, certificate values) of the first maximizer."""
    r, deltas = family.r, family.schedule.deltas
    threshold = max(deltas[: r - 1]) + tol
    for labels, _, value, _, _ in draws:
        if value > threshold:
            return (CertificationError, parts_of(labels, r),
                    f"partition keeps min-part bound {value} above {threshold}")
    values = [draw[2] for draw in draws]
    labels, bounds, value, k, achieved = draws[values.index(max(values))]
    if achieved > deltas[k - 1] + tol:
        return (InternalInconsistencyError, parts_of(labels, r),
                f"witness achieved {achieved}, above delta_{k} = {deltas[k - 1]}")
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
    assert certify_outcome(family, count, seed, tol) == want


def certify_outcome(family, count, seed, tol):
    """Sampled certify's outcome with WITNESS_TOL = tol, in the form of
    `per_draw_outcome`; a witness failure names the partition whose
    witness was checked."""
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
            return type(exc), partition, str(exc)
    cert = summary.certificate
    return None, cert.partition.parts, (list(cert.part_bounds), summary.worst_min_part_bound,
                                        cert.witness.k, cert.witness.achieved_norm_sq)


def test_draw_with_only_its_largest_part_above_the_threshold_passes(monkeypatch):
    """The threshold lies halfway between a draw's value and its largest
    part's bound, below the worst value: the first draw whose value is
    above it fails, not an earlier draw whose largest part alone is above
    it."""
    family = build_nonpavable_general(3, 2)
    draws = oracle_draws(family, COUNT, SEED)
    tol = max(tolerances(family, draws, "gap"))
    threshold = max(family.schedule.deltas[:2]) + tol
    first = next(d for d, draw in enumerate(draws) if draw[2] > threshold)
    assert any(largest_part_bound(labels, bounds, 3) > threshold
               for labels, bounds, _, _, _ in draws[:first])
    monkeypatch.setattr(pa, "WITNESS_TOL", tol)
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "sampled", count=COUNT, seed=SEED)
    assert info.value.partition.parts == parts_of(draws[first][0], 3)
    assert str(info.value) == (
        f"partition keeps min-part bound {draws[first][2]} above {threshold}"
    )


# ---------------------------------------------------------------------------
# the rank cap: a largest part of more than rn rows is bounded, not solved
# ---------------------------------------------------------------------------


def rank_cap_tolerance(family, level):
    """WITNESS_TOL putting the certify threshold at the last float below
    the rank cap ("below"), the first above it ("above"), or the default."""
    if level == "default":
        return pa.WITNESS_TOL
    cap = pa._prune_margin(gram(family.vectors))
    top = max(family.schedule.deltas[: family.r - 1])
    step = np.inf if level == "above" else -np.inf
    tol = cap - top
    while (top + tol > cap) != (level == "above"):
        tol = np.nextafter(tol, step)
    return tol


@pytest.mark.parametrize("level", ["below", "above", "default"])
@pytest.mark.parametrize(
    "r, n, count, seed",
    [(2, 3, 500, 21), (3, 1, 500, 22), (3, 2, 500, 23), (4, 2, 500, 24), (4, 8, 100, 25)],
    ids=["r2n3", "r3n1", "r3n2", "r4n2", "r4n8"],
)
def test_rank_cap_keeps_the_per_draw_outcome(r, n, count, seed, level):
    """Below the cap every largest part is solved. Above it the draws with
    a part of more than rn rows are not, unless no settled value is above
    the cap: every (4, 8) value is rounding noise, so there all are solved,
    and with the threshold just above the cap the worst draw's witness
    fails. Either way the error or the certificate is the per-draw loop's."""
    family = build_nonpavable_general(r, n)
    draws = oracle_draws(family, count, seed)
    tol = rank_cap_tolerance(family, level)
    want = per_draw_outcome(family, draws, tol)
    assert certify_outcome(family, count, seed, tol) == want
    noise = max(value for _, _, value, _, _ in draws) <= pa._prune_margin(gram(family.vectors))
    assert noise == ((r, n) == (4, 8))


@pytest.mark.parametrize(
    "make, num_parts",
    [pytest.param(lambda r=r, n=n: build_nonpavable_general(r, n), r, id=f"r{r}n{n}")
     for r, n in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                  (3, 1), (3, 2), (3, 3), (4, 2), (4, 8)]]
    + [pytest.param(lambda: unit_rows_family(5, 24, 6), 3, id="random-unit-24x6")],
)
def test_singular_parts_compute_at_most_the_rank_cap(make, num_parts):
    """Every part of more than dim rows has an exactly singular Gram, and
    the bound computed for it (the bits of `riesz_lower_bound`) is at most
    the cap `_prune_margin(G)`. Over 500 seeded draws of each family the
    largest such bound was 0.0017 of the cap, for (2, 2)."""
    family = make()
    G = gram(family.vectors)
    labels = np.random.Generator(np.random.Philox(family.count)).integers(
        0, num_parts, size=(500, family.count))
    bounds = pa._sampled_part_bounds(G, labels, num_parts)
    sizes = np.stack([(labels == j).sum(axis=1) for j in range(num_parts)], axis=1)
    singular = bounds[sizes > family.dim]
    assert singular.size > 0
    assert singular.max() <= pa._prune_margin(G)


def test_label_bounds_solve_only_the_selected_rows():
    """A labeling whose target is -1 or a label it does not use selects no
    row and gets inf; every other gets `riesz_lower_bound` of the rows it
    gives its target, bit for bit, from one stacked call whatever the mix
    of selection sizes."""
    family = build_nonpavable_general(3, 2)
    G = gram(family.vectors)
    labels = np.random.Generator(np.random.Philox(5)).integers(0, 3, size=(300, family.count))
    labels[:20] %= 2  # label 2 absent from the first 20 rows
    targets = np.tile([2, -1, 0, 1, 2], 60)
    bounds = pa._label_bounds(G, labels, targets)
    assert sum(2 not in lab for lab, target in zip(labels, targets) if target == 2) >= 8
    for d, (lab, target) in enumerate(zip(labels, targets)):
        idx = np.flatnonzero(lab == target)
        assert bounds[d] == (pa.riesz_lower_bound(family, idx) if idx.size else np.inf)


def unit_rows_family(seed, rows, dim):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return FrameFamily(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
