"""The symmetries the exhaustive search walks one representative of.

Relabeling the parts keeps every part, so every bit. Shifting or reflecting
the row index of every block keeps every part's exact spectrum on a stacked
DFT family, and the computed values stay within the window `_row_group`
reports. A family whose Gram lacks that invariance gets the trivial group,
and a walk that passes a certify threshold names the flat walk's first
partition above it from the orbits it evaluates, so both still report what
the flat walk reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonpaving.paving_analysis as pa
from nonpaving import (
    CertificationError,
    StackedDftFrame,
    best_partition_riesz,
    build_nonpavable_general,
    gram,
    partition_from_assignment,
    riesz_lower_bound,
)

from oracles import (
    first_appearance_relabeling,
    flat_max_min_partition,
    flat_partition_values,
    lex_leader_live_maps,
    row_group_by_maps,
)

FAMILIES = {(r, n): build_nonpavable_general(r, n) for r, n in [(2, 3), (3, 2)]}


def labeling_value(family, labels, num_parts):
    parts = partition_from_assignment(labels, num_parts).parts
    return min(riesz_lower_bound(family, p) for p in parts if p)


@st.composite
def labelings(draw):
    r, n = draw(st.sampled_from(sorted(FAMILIES)))
    family = FAMILIES[(r, n)]
    labels = draw(st.lists(st.integers(0, r - 1), min_size=family.count,
                           max_size=family.count))
    return family, labels


@settings(max_examples=60, deadline=None)
@given(case=labelings(), data=st.data())
def test_relabeled_image_gives_identical_bits(case, data):
    family, labels = case
    perm = data.draw(st.permutations(range(family.r)))
    image = [perm[lab] for lab in labels]
    canonical = pa._canonical(np.array([image, labels]), family.r).tolist()
    assert canonical == [first_appearance_relabeling(labels)] * 2
    assert labeling_value(family, image, family.r) == labeling_value(family, labels, family.r)


@settings(max_examples=60, deadline=None)
@given(case=labelings(), data=st.data())
def test_row_map_image_computes_within_the_window(case, data):
    family, labels = case
    G = gram(family.vectors)
    maps, window = pa._row_group(G, family.r * family.n, pa._prune_margin(G))
    assert len(maps) == 2 * family.r * family.n - 1
    assert 0 < window < 3 * pa._prune_margin(G)
    g = data.draw(st.sampled_from(maps))
    image = [labels[y] for y in g]
    gap = abs(labeling_value(family, image, family.r) - labeling_value(family, labels, family.r))
    assert gap <= window


@pytest.mark.parametrize("r, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2)])
def test_stacked_row_group_matches_one_gather_per_map(r, n):
    """One indexed read for all 2rn images gives the maps and the defect,
    so the window, bit for bit as one np.ix_ gather and norm per map."""
    G = gram(build_nonpavable_general(r, n).vectors)
    margin = pa._prune_margin(G)
    maps, window = pa._row_group(G, r * n, margin)
    assert (maps, window) == row_group_by_maps(G, r * n, margin)
    assert maps


def family_maps(r, n):
    G = gram(build_nonpavable_general(r, n).vectors)
    return pa._row_group(G, r * n, pa._prune_margin(G))[0]


WALK_MAPS = {(r, n): family_maps(r, n) for r, n in [(2, 3), (2, 4), (3, 2)]}


@st.composite
def label_walks(draw):
    """A family's maps and a walk: legs of (rows to go back, labels to try)."""
    r, n = draw(st.sampled_from(sorted(WALK_MAPS)))
    size = r * r * n
    legs = st.tuples(st.integers(0, size),
                     st.lists(st.integers(0, r - 1), min_size=1, max_size=size))
    return WALK_MAPS[(r, n)], draw(st.lists(legs, min_size=1, max_size=8))


@settings(max_examples=120, deadline=None)
@given(walk=label_walks())
def test_carried_symmetry_state_gives_the_rescan_verdict(walk):
    """Depth first over restricted-growth prefixes, as the search walks
    them, the states `_advance` carries down give the plain rescan's verdict
    at every prefix, and its live maps: each live map has one state, filed
    under its wake row max(x, g[x]) past the prefix, whose image relabeled
    by first appearance equals the labels below x. A label whose prefix is
    rejected is not appended, as the search does not descend there."""
    maps, legs = walk
    size = len(maps[0])
    pending = [[] for _ in range(size + 1)]
    for g in maps:
        pending[g[0]].append((g + (size,), 0, ()))
    labels = [0] * size
    path = []  # (parts used, states pushed) per labeled row
    for back, tries in legs:
        for _ in range(min(back, len(path))):
            for wake, _ in path.pop()[1]:
                pending[wake].pop()
        for label in tries[:size - len(path)]:
            i = len(path)
            used = path[-1][0] if path else 0
            labels[i] = min(label, used)
            moved = pa._advance(pending[i], labels, i)
            live = lex_leader_live_maps(labels, i, maps)
            assert (moved is None) == (live is None)
            if moved is None:
                continue
            for wake, state in moved:
                pending[wake].append(state)
            path.append((max(used, labels[i] + 1), moved))
            carried = [(wake, state) for wake in range(i + 1, size + 1) for state in pending[wake]]
            assert sorted(state[0][:size] for _, state in carried) == sorted(live)
            for wake, (g, x, seen) in carried:
                assert wake == max(x, g[x]) == g[x]
                image = [labels[g[y]] for y in range(x)]
                assert first_appearance_relabeling(image) == labels[:x]
                assert list(seen) == list(dict.fromkeys(image))


@pytest.mark.parametrize("n", range(3, 17))
def test_alternating_split_attains_delta_1(n):
    """Row a of block k in part (a + k - 1) mod 2: its computed value is
    within 4 eps of delta_1 = 2/(n + 1), the most any split can keep."""
    family = build_nonpavable_general(2, n)
    a = np.arange(2 * n)
    alternating = np.concatenate([a % 2, (a + 1) % 2])
    assert any((row == alternating).all() for row in pa._structured_labelings(family, 2))
    value = labeling_value(family, alternating, 2)
    assert abs(value - family.schedule.deltas[0]) <= 4 * np.finfo(np.float64).eps


def permuted_rows_family(r, n):
    """A built family with rows 1 and 2 of block 1 swapped: still r-tight
    with the same schedule, but its Gram is not shift invariant."""
    family = build_nonpavable_general(r, n)
    order = np.arange(family.count)
    order[[1, 2]] = order[[2, 1]]
    return StackedDftFrame(family.vectors[order], family.layout)


def test_gram_defect_falls_back_to_the_trivial_group():
    family = permuted_rows_family(2, 3)
    G = gram(family.vectors)
    assert pa._row_group(G, 6, pa._prune_margin(G)) == ([], 0.0)
    result = pa._partition_search(G, 2, family=family)
    assert result.rejected == 0
    parts, value = best_partition_riesz(family, 2)
    want_parts, want_value = flat_max_min_partition(G, 2)
    assert parts.parts == want_parts
    assert value == want_value


def test_walk_from_below_the_threshold_names_the_flat_first_failure(monkeypatch):
    """An all-zero incumbent (value 0) lets the row-reduced walk start under
    a 0.45 threshold; it names the flat walk's first partition above 0.45."""
    family = FAMILIES[(2, 3)]
    G = gram(family.vectors)
    monkeypatch.setattr(pa, "_structured_labelings",
                        lambda fam, parts: np.zeros((1, fam.count), dtype=np.int64))
    first = next(p for p, v in flat_partition_values(G, 2) if v > 0.45)
    with pytest.raises(CertificationError) as info:
        pa._partition_search(G, 2, threshold=0.45, family=family)
    assert info.value.partition.parts == first
