"""The branch-and-bound partition search against the flat walk it replaces.

The search must report exactly what walking every labeled partition in
enumeration order reports: the same first maximizer, the same float bit for
bit, the same first partition above a certify threshold, and byte-identical
certificates. Only the certificate's witness is computed; the block-structure
check (tests/test_block_structure.py) proves every other one.
"""

import bisect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nonpaving.paving_analysis as pa
from nonpaving import (
    CertificationError,
    FrameFamily,
    InternalInconsistencyError,
    best_partition_riesz,
    build_nonpavable_general,
    certify_nonpavable,
    gram,
    riesz_lower_bound,
)
from nonpaving.cli import main

from oracles import flat_max_min_partition, flat_partition_values

DATA = Path(__file__).parent / "data"


def random_family(seed, rows, dim):
    rng = np.random.default_rng(seed)
    return FrameFamily(rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim)))


def repeated_rows_family(seed):
    # every row appears twice, so many partitions tie exactly
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    return FrameFamily(base[[0, 1, 2, 3, 0, 1, 2, 3]])


CASES = [
    pytest.param(lambda: build_nonpavable_general(2, 1), 2, id="r2n1"),
    pytest.param(lambda: build_nonpavable_general(2, 2), 2, id="r2n2"),
    pytest.param(lambda: build_nonpavable_general(2, 3), 2, id="r2n3"),
    pytest.param(lambda: build_nonpavable_general(2, 4), 2, id="r2n4"),
    pytest.param(lambda: build_nonpavable_general(3, 1), 3, id="r3n1"),
    pytest.param(lambda: FrameFamily(np.eye(2, dtype=complex)), 2, id="orthonormal"),
    pytest.param(lambda: random_family(1, 8, 3), 2, id="random-r2-a"),
    pytest.param(lambda: random_family(2, 9, 4), 2, id="random-r2-b"),
    pytest.param(lambda: random_family(3, 6, 2), 3, id="random-r3-a"),
    pytest.param(lambda: random_family(4, 7, 3), 3, id="random-r3-b"),
    pytest.param(lambda: repeated_rows_family(5), 2, id="repeated-rows"),
]


@pytest.mark.parametrize("make, num_parts", CASES)
def test_search_matches_flat_walk_bit_for_bit(make, num_parts):
    family = make()
    parts, value = best_partition_riesz(family, num_parts)
    want_parts, want_value = flat_max_min_partition(gram(family.vectors), num_parts)
    assert parts.parts == want_parts
    assert value == want_value


@pytest.mark.parametrize("seed, rows, num_parts", [(11, 8, 2), (12, 6, 3)])
def test_threshold_raises_on_first_partition_above_it(seed, rows, num_parts):
    G = gram(random_family(seed, rows, 3).vectors)
    values = sorted({v for _, v in flat_partition_values(G, num_parts)})
    threshold = values[len(values) // 2]
    first = next(p for p, v in flat_partition_values(G, num_parts) if v > threshold)
    with pytest.raises(CertificationError) as info:
        pa._partition_search(G, num_parts, threshold=threshold)
    assert info.value.partition.parts == first


@pytest.mark.parametrize("r, n", [(2, 3), (2, 4), (3, 1)])
def test_part_bounds_match_flat_evaluation(r, n):
    """A leaf's value is the min of freshly computed part bounds; a running
    min over the prefixes reads 0.39999999999999986 for (2, 4), not
    0.40000000000000013."""
    family = build_nonpavable_general(r, n)
    result = pa._partition_search(gram(family.vectors), r)
    bounds = tuple(riesz_lower_bound(family, p) if p else None for p in result.partition.parts)
    assert result.part_bounds == bounds
    assert result.value == min(b for b in bounds if b is not None)


@pytest.mark.parametrize(
    "name", ["cert_r2_n3_exhaustive", "cert_r2_n4_exhaustive",
             "cert_r3_n2_sampled", "cert_r4_n8_sampled"]
)
def test_stored_part_bounds_are_riesz_lower_bounds(name):
    """One formula for a part's bound: every stored per-part bound, from the
    exhaustive search or the stacked sampled eigensolves, is bit for bit
    what the public riesz_lower_bound returns for that part."""
    cert = json.loads((DATA / f"{name}.json").read_text())
    family = build_nonpavable_general(cert["family"]["r"], cert["family"]["n"])
    want = [riesz_lower_bound(family, p) if p else None for p in cert["partition"]]
    assert cert["per_part_bounds"] == want


def test_prune_margin_covers_every_computed_rise():
    """Exact part bounds only fall as rows are appended; computed ones also
    rise, by ulps, so the search can prune only with the margin above them."""
    G = gram(build_nonpavable_general(2, 3).vectors)
    size = G.shape[0]
    value, prefix_min = {}, {}
    worst_rise = -np.inf
    for mask in range(1, 1 << size):  # a prefix's mask is smaller than its extension's
        idx = [i for i in range(size) if mask >> i & 1]
        value[mask] = float(np.linalg.eigvalsh(G[np.ix_(idx, idx)])[0])
        parent = mask & ~(1 << idx[-1])
        if parent:
            prefix_min[mask] = min(value[parent], prefix_min.get(parent, np.inf))
            worst_rise = max(worst_rise, value[mask] - prefix_min[mask])
    assert 0.0 < worst_rise < pa._prune_margin(G)


@pytest.mark.parametrize(
    "n, nodes, eigensolves, rejected, rank_cut, map_checks",
    [(3, 60, 64, 17, 4, 250), (4, 150, 154, 45, 4, 692)],
    ids=["r2n3", "r2n4"],
)
def test_search_work_counts_are_pinned(n, nodes, eigensolves, rejected, rank_cut, map_checks):
    """Against 2**(4n) partitions with two eigensolves each in the flat walk.

    nodes are the lex-leader prefixes examined, one eigensolve each;
    eigensolves add the four part bounds of the two structured incumbents
    (the alternating split's orbit is itself, so no image is re-evaluated);
    rank_cut counts the prefixes whose appended part would hold more than
    2n rows, cut before the symmetry test and the eigensolve. Without the
    row group and incumbent the walk took 1,090 and 6,914 nodes; without
    the rank cut, 61 and 151 nodes with 20 and 48 rejected. map_checks
    counts the (prefix, row map) pairs the symmetry test is given: only the
    maps whose wake row the prefix labels, where rescanning every live map
    at every prefix gave 547 and 1,505.
    """
    family = build_nonpavable_general(2, n)
    result = pa._partition_search(gram(family.vectors), 2, family=family, dim=family.dim)
    assert (result.nodes, result.eigensolves, result.rejected, result.rank_cut,
            result.map_checks) == (nodes, eigensolves, rejected, rank_cut, map_checks)


def test_exhaustive_job_set_eigensolves_are_pinned(tmp_path, capsys, monkeypatch):
    """Matrices solved by eigvalsh in the benchmark's exhaustive job set:
    certify (2, 4), then sweep r = 2 over n = 1..4 (five builds' tightness
    checks included), counted both through np.linalg.eigvalsh and through
    the gufunc `_eig_min` calls directly. Without the rank cut the walk
    solved 428; without row group and incumbent, 15,145; the flat walk two
    per partition, 270,880."""
    solved = []

    def counting(real):
        def solve(a, *args, **kwargs):
            solved.append(a.size // (a.shape[-1] * a.shape[-1]))
            return real(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(pa, "_eigvalsh_lo", counting(pa._eigvalsh_lo))
    assert main(["certify", "--r", "2", "--n", "4", "--mode", "exhaustive",
                 "--out", str(tmp_path / "c.json")]) == 0
    assert main(["sweep", "--r", "2", "--n-list", "1,2,3,4",
                 "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert sum(solved) == 423


def test_search_reaches_the_recorded_r3_n2_maximum():
    """3**18 partitions, over the default budget; the flat walk's recorded
    first maximum is 0.34054302431686606, while the canonical leaf of its
    orbit computes 0.340543024316866, so the orbit re-evaluation decides.
    Without the rank cut the walk took 7,388 nodes, 7,418 eigensolves and
    746 rejected prefixes. The symmetry test is given 2,752 (prefix, row
    map) pairs, where rescanning every live map at every prefix gave 6,012."""
    family = build_nonpavable_general(3, 2)
    result = pa._partition_search(gram(family.vectors), 3, family=family, dim=family.dim)
    assert result.value == 0.34054302431686606
    assert (result.nodes, result.eigensolves, result.rejected, result.rank_cut,
            result.map_checks) == (6899, 6929, 669, 566, 2752)
    bounds = tuple(riesz_lower_bound(family, p) if p else None for p in result.partition.parts)
    assert result.part_bounds == bounds


def test_search_matches_trivial_group_search_r2_n5(monkeypatch):
    """(2, 5) has 2**20 partitions, too many for the flat oracle in a test;
    the walk with the trivial row group is exact by relabeling alone."""
    family = build_nonpavable_general(2, 5)
    G = gram(family.vectors)
    reduced = pa._partition_search(G, 2, family=family)
    monkeypatch.setattr(pa, "_row_group", lambda *args: ([], 0.0))
    trivial = pa._partition_search(G, 2, family=family)
    assert trivial.rejected == 0 < reduced.rejected
    assert reduced.partition == trivial.partition
    assert reduced.part_bounds == trivial.part_bounds
    assert reduced.value == trivial.value


@pytest.mark.parametrize("n, calls", [(3, 1), (4, 1)])
def test_exhaustive_svd_calls_are_pinned(n, calls, monkeypatch):
    """One SVD call, for the certificate's witness on its one block (r = 2):
    the block-structure check proves every other witness without one.
    Solving every witness row set would take n + 1 stacked calls, one per
    set size, or 43 and 164 calls one set at a time."""
    real = np.linalg.svd
    made = []

    def counting(*args, **kwargs):
        made.append(args[0].shape)
        return real(*args, **kwargs)

    family = build_nonpavable_general(2, n)
    monkeypatch.setattr(np.linalg, "svd", counting)
    certify_nonpavable(family, "exhaustive")
    assert len(made) == calls


@pytest.mark.parametrize("n", [3, 4])
def test_exhaustive_certificate_bytes_unchanged(n, tmp_path, capsys):
    """Recorded from the flat walk; the search must reproduce it byte for byte."""
    out = tmp_path / "c.json"
    code = main(["certify", "--r", "2", "--n", str(n), "--mode", "exhaustive",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / f"cert_r2_n{n}_exhaustive.json").read_bytes()


def test_exhaustive_certify_rejects_a_bad_witness_entry(perturbed_family):
    """A family entry 1e-10 off the block structure is refused after the
    search (which passes: no split of it keeps a bound above the threshold),
    since the structure check cannot prove its witnesses."""
    with pytest.raises(InternalInconsistencyError, match="block 1 rows differ"):
        certify_nonpavable(perturbed_family, "exhaustive")


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_certify_reports_flat_first_failure_before_witnesses(tmp_path, capsys, monkeypatch):
    """With WITNESS_TOL at -0.1 the threshold is delta_1 - 0.1 = 0.4 for
    (2, 3): the structured incumbent (0.5) is above it, so the walk prunes
    against 0.4 and names the flat walk's first partition above 0.4. The
    search runs before the certificate's witness, which would fail too, as
    a sampled bound failure comes before it."""
    monkeypatch.setattr(pa, "WITNESS_TOL", -0.1)
    family = build_nonpavable_general(2, 3)
    threshold = family.schedule.deltas[0] - 0.1
    first, value = next((p, v) for p, v in flat_partition_values(gram(family.vectors), 2)
                        if v > threshold)
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "exhaustive")
    assert info.value.partition.parts == first
    out = tmp_path / "c.json"
    assert main(["certify", "--r", "2", "--n", "3", "--mode", "exhaustive",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"partition keeps min-part bound {value} above {threshold}" in err
    assert not out.exists()


def test_certify_threshold_is_delta_1_for_every_r(monkeypatch):
    """(3, 2) has delta_1 = 0.6 and delta_2 = 0.9, and its exact best
    min-part bound is 0.340543024316866. With WITNESS_TOL at -0.26 the
    threshold delta_1 - 0.26 = 0.34 is below that, so the walk names a
    partition of that bound; a threshold read from delta_2 (0.64) would
    pass every partition instead."""
    monkeypatch.setattr(pa, "WITNESS_TOL", -0.26)
    family = build_nonpavable_general(3, 2)
    with pytest.raises(CertificationError) as info:
        certify_nonpavable(family, "exhaustive", budget=3**18)
    value = min(pa.riesz_lower_bound(family, p) for p in info.value.partition.parts)
    assert str(info.value) == f"partition keeps min-part bound {value} above {0.6 - 0.26}"
    assert round(value, 15) == 0.340543024316866


@pytest.mark.parametrize("r, n", [(2, 2), (2, 3), (3, 1)])
def test_row_reduced_threshold_search_matches_flat_walk(r, n):
    """At, just below and just above every distinct flat value, the walk
    with the row group, with and without the rank cut, raises with the flat
    walk's first partition above the threshold, or returns its first
    maximizer when there is none. Every value of a split with a part of
    more than rn rows is rounding noise, so thresholds at those values put
    the level below the rank cap, where the walk solves those parts."""
    family = build_nonpavable_general(r, n)
    G = gram(family.vectors)
    maps, _ = pa._row_group(G, r * n, pa._prune_margin(G))
    assert len(maps) == 2 * r * n - 1
    flat = list(flat_partition_values(G, r))
    first_at = {}
    for i, (_, v) in enumerate(flat):
        first_at.setdefault(v, i)
    values = sorted(first_at)
    first_from = [len(flat)] * (len(values) + 1)  # first labeling with a value in values[k:]
    for k in reversed(range(len(values))):
        first_from[k] = min(first_at[values[k]], first_from[k + 1])
    thresholds = [t for v in values
                  for t in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    for dim, threshold in itertools.product((None, r * n), thresholds):
        i = first_from[bisect.bisect_right(values, threshold)]
        if i == len(flat):
            result = pa._partition_search(G, r, threshold=threshold, family=family, dim=dim)
            assert (result.partition.parts, result.value) == flat[first_at[values[-1]]]
            continue
        with pytest.raises(CertificationError) as info:
            pa._partition_search(G, r, threshold=threshold, family=family, dim=dim)
        assert info.value.partition.parts == flat[i][0]
        assert str(info.value) == f"partition keeps min-part bound {flat[i][1]} above {threshold}"


def test_failing_search_stops_at_its_first_failing_leaf(monkeypatch):
    """(3, 2) at threshold 0.3: the walk meets a leaf above it after 5,843
    of the 6,899 nodes a full walk takes (one part bound each), and goes
    no further. Without the rank cut it took 6,309 of 7,388."""
    family = build_nonpavable_general(3, 2)
    real = pa._eig_min
    nodes = []

    def counting(H):
        nodes.append(H.shape[0])
        return real(H)

    monkeypatch.setattr(pa, "_eig_min", counting)
    with pytest.raises(CertificationError, match="bound 0.340543024316866 above 0.3"):
        pa._partition_search(gram(family.vectors), 3, threshold=0.3, family=family,
                             dim=family.dim)
    assert len(nodes) == 5843
