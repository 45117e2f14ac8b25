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

from oracles import flat_max_min_partition, flat_partition_values

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
    assert pa._canonical(image) == pa._canonical(labels)
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
