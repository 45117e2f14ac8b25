import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from nonpaving import (
    ResourceLimitError,
    block_layout,
    build_nonpavable_general,
    delta_schedule,
    dft_matrix,
    doubled_family,
    doubling_step,
    frame_bounds,
    gram,
    gram_block_residual,
    restriction_identity_residual,
    row_square_sums,
    sidecar_dict,
    FrameFamily,
    StackedDftFrame,
)
from nonpaving import constructions, frame_ops
from nonpaving.cli import main

from oracles import (
    closed_form_r2,
    column_orthogonality_defect_by_pairs,
    column_square_sums_by_columns,
    delta_fraction,
    doubling_by_blocks,
    gram_block_residual_by_pairs,
    partial_sum_fraction,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# delta_schedule
# ---------------------------------------------------------------------------

def test_schedule_r2_n3():
    sched = delta_schedule(2, 3)
    assert sched.deltas == (0.5, 1.5)


def test_schedule_r3_n2():
    sched = delta_schedule(3, 2)
    npt.assert_allclose(sched.deltas, (0.6, 0.9, 1.5), atol=1e-15)
    npt.assert_allclose(sched.partial_sums, (0.6, 1.5, 3.0), atol=1e-15)


def test_schedule_r2_n1_is_all_ones():
    assert delta_schedule(2, 1).deltas == (1.0, 1.0)


def test_schedule_r2_n2():
    sched = delta_schedule(2, 2)
    npt.assert_allclose(sched.deltas, (2.0 / 3.0, 4.0 / 3.0), atol=1e-16)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_schedule_invariants(r, n):
    """Every delta matches the exact rational; partials telescope; total is r."""
    sched = delta_schedule(r, n)
    for k in range(1, r + 1):
        assert sched.deltas[k - 1] == float(delta_fraction(r, n, k))
        closed = float(partial_sum_fraction(r, n, k))
        assert abs(sched.partial_sums[k - 1] - closed) <= 1e-12
        if k < r:
            assert sched.partial_sums[k - 1] < r
    assert abs(sched.partial_sums[-1] - r) <= 1e-12
    # base case of the recursion
    assert abs(sched.deltas[0] - r / ((r - 1) * n + 1)) <= 1e-15


@pytest.mark.parametrize("r", range(2, 7))
def test_schedule_monotone_in_n(r):
    """For k < r the deltas head to zero in n.

    delta_k(n) is a ratio of a linear to a quadratic in n, so it decays like
    1/n eventually but is NOT monotone from n = 1 when k is close to r: the
    stationary point sits at n^2 = k(k-1)/((r-k)(r-k+1)), e.g. delta_3 rises
    from 1 to 16/15 between n = 1 and n = 2 at r = 4. Strict decrease is
    asserted from n = k onward (which clears the stationary point), plus a
    decay-ratio check over a 4x window: a clean 1/3 for k <= r-2 (and all of
    r <= 3), a looser 1/2 for the slow k = r-1 cases.
    """
    by_n = {n: delta_schedule(r, n).deltas for n in range(1, 33)}
    for k in range(1, r):
        values = [by_n[n][k - 1] for n in range(1, 33)]
        tail = values[k - 1 :]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        ratio_cap = 1.0 / 3.0 if (k <= r - 2 or r <= 3) else 0.5
        assert by_n[32][k - 1] < by_n[8][k - 1] * ratio_cap


def test_schedule_not_monotone_near_last_block():
    # the documented counterexamples to decrease-from-n=1
    assert delta_schedule(4, 1).deltas[2] < delta_schedule(4, 2).deltas[2]
    assert delta_schedule(5, 2).deltas[3] == delta_schedule(5, 3).deltas[3]


@pytest.mark.parametrize("r,n", [(594, 2), (3000, 3)])
def test_schedule_accepts_large_r(r, n):
    """Past r of a few hundred the accumulated partial sums drift from their
    closed forms by more than 1e-12 (2.3e-12 at (3000, 3)), yet stay within
    the rounding bound (k + 1) eps c. Only the schedule is formed: the
    (594, 2) family alone would be a 705,672 x 1,188 complex matrix."""
    sched = delta_schedule(r, n)
    for k, total in enumerate(sched.partial_sums, start=1):
        closed = float(partial_sum_fraction(r, n, k))
        assert abs(total - closed) <= (k + 1) * 2.0**-52 * closed


@pytest.mark.parametrize("k,error", [(1, 1e-9), (3, 1e-13)])
def test_schedule_refuses_a_wrong_delta(monkeypatch, k, error):
    """A delta wrong by a relative 1e-13 is refused too: delta_3 = 1.5 of
    (3, 2) off by 1.5e-13 puts the total 56 times its rounding bound
    4 eps 3 from 3, though within the former absolute 1e-12."""
    original = constructions._delta_value
    monkeypatch.setattr(constructions, "_delta_value",
                        lambda r, n, j: original(r, n, j) * (1 + error if j == k else 1))
    with pytest.raises(ValueError, match=f"partial sum through delta_{k} deviates from"):
        delta_schedule(3, 2)


def test_schedule_rejects_small_r():
    with pytest.raises(ValueError):
        delta_schedule(1, 3)


def test_schedule_rejects_small_n():
    with pytest.raises(ValueError):
        delta_schedule(2, 0)


def test_schedule_rejects_bool():
    with pytest.raises(ValueError):
        delta_schedule(True, 2)


# ---------------------------------------------------------------------------
# block_layout
# ---------------------------------------------------------------------------

def test_layout_r3_n2_widths_and_weights():
    layout = block_layout(3, 2)
    width = 6
    for k, b in enumerate(layout.blocks, start=1):
        assert b.zero_width + b.band_width + b.tail_width == width
        assert b.zero_width == (k - 1) * 1
    # last block has no band
    assert layout.blocks[-1].band_width == 0
    assert layout.blocks[-1].band_weight == 0.0
    sched = delta_schedule(3, 2)
    assert layout.blocks[0].band_weight == pytest.approx(math.sqrt(3.0))
    assert layout.blocks[1].band_weight == pytest.approx(math.sqrt(3.0 - 0.6))
    for k in range(3):
        assert layout.blocks[k].tail_weight == pytest.approx(math.sqrt(sched.deltas[k]))


def test_layout_column_weights_cover_the_row():
    layout = block_layout(2, 3)
    w1 = layout.column_weights(1)
    assert w1.shape == (6,)
    npt.assert_allclose(w1[:2], math.sqrt(2.0))
    npt.assert_allclose(w1[2:], math.sqrt(0.5))
    w2 = layout.column_weights(2)
    npt.assert_allclose(w2[:2], 0.0)
    npt.assert_allclose(w2[2:], math.sqrt(1.5))
    assert list(layout.band_columns(1)) == [0, 1]
    assert list(layout.band_columns(2)) == []


def test_layout_band_disappears_at_n1():
    layout = block_layout(4, 1)
    for b in layout.blocks:
        assert b.zero_width == 0
        assert b.band_width == 0
        assert b.tail_width == 4


# ---------------------------------------------------------------------------
# the stacked families
# ---------------------------------------------------------------------------

def test_r2_n2_shape_and_sums():
    fam = build_nonpavable_general(2, 2)
    assert fam.vectors.shape == (8, 4)
    npt.assert_allclose(row_square_sums(fam.vectors), np.ones(8), atol=1e-10)
    npt.assert_allclose(column_square_sums_by_columns(fam.vectors), 2.0 * np.ones(4), atol=1e-10)
    assert column_orthogonality_defect_by_pairs(fam.vectors) <= 1e-10


def test_r2_n1_is_two_plain_dft_blocks():
    fam = build_nonpavable_general(2, 1)
    base = dft_matrix(2)
    npt.assert_array_equal(fam.vectors, np.vstack([base, base]))
    assert fam.vacuous


@pytest.mark.parametrize("n", range(1, 17))
def test_closed_form_r2_oracle_equals_general_route(n):
    """The numpy-only closed form and the general stack agree bitwise."""
    expected = build_nonpavable_general(2, n).vectors
    got = closed_form_r2(n)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_general_r3_n2_shape_and_sums():
    fam = build_nonpavable_general(3, 2)
    assert fam.vectors.shape == (18, 6)
    npt.assert_allclose(row_square_sums(fam.vectors), np.ones(18), atol=1e-10)
    npt.assert_allclose(column_square_sums_by_columns(fam.vectors), 3.0 * np.ones(6), atol=1e-10)
    assert column_orthogonality_defect_by_pairs(fam.vectors) <= 1e-10


def test_general_zero_prefix_structure():
    fam = build_nonpavable_general(3, 3)
    rn = 9
    for k in range(1, 4):
        block = fam.vectors[(k - 1) * rn : k * rn]
        bands = fam.layout.blocks[k - 1]
        assert bands.zero_width == (k - 1) * 2
        if bands.zero_width:
            assert np.max(np.abs(block[:, : bands.zero_width])) == 0.0
        live = block[:, bands.zero_width :]
        assert np.min(np.abs(live)) > 0.0


def test_general_r4_n3_per_block_column_decomposition():
    """A column in band k collects delta_j from each earlier block's tail,
    the band weight squared from block k, and nothing from later blocks."""
    fam = build_nonpavable_general(4, 3)
    sched = fam.schedule
    rn = 12
    for k in range(1, 4):
        col = fam.layout.band_columns(k)[0]
        contributions = [
            float(np.sum(np.abs(fam.vectors[j * rn : (j + 1) * rn, col]) ** 2))
            for j in range(4)
        ]
        for j in range(k - 1):
            assert contributions[j] == pytest.approx(sched.deltas[j], abs=1e-10)
        assert contributions[k - 1] == pytest.approx(
            sched.residual_weight_sq(k), abs=1e-10
        )
        for j in range(k, 4):
            assert contributions[j] == pytest.approx(0.0, abs=1e-15)
        assert sum(contributions) == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("r,n", [(2, 4), (3, 3), (4, 2)])
def test_general_families_are_unit_norm_r_tight(r, n):
    fam = build_nonpavable_general(r, n)
    npt.assert_allclose(row_square_sums(fam.vectors), np.ones(r * r * n), atol=1e-10)
    lo, hi = frame_bounds(fam)
    assert abs(lo - r) <= 1e-8 and abs(hi - r) <= 1e-8
    assert not fam.vacuous


def test_one_build_checks_its_schedule_and_tightness_once(monkeypatch, column_passes):
    """One (3, 2) build makes one schedule (three delta evaluations, one per
    block), validates (r, n) once, and decides tightness with one
    is_tight_frame call on one column product V^*V and one eigensolve."""
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(constructions.DeltaSchedule, "__post_init__")
    counting(constructions, "_delta_value")
    counting(constructions, "_validate_r_n")
    counting(frame_ops, "is_tight_frame")
    counting(np.linalg, "eigvalsh")
    fam = build_nonpavable_general(3, 2)
    assert calls == {
        "__post_init__": 1,
        "_delta_value": 3,
        "_validate_r_n": 1,
        "is_tight_frame": 1,
        "eigvalsh": 1,
    }
    assert column_passes == [(18, 6)]
    assert fam.layout.schedule is fam.schedule


def test_stacked_frame_rejects_vectors_of_another_shape():
    """The (2, 3) family's vectors do not fit the (2, 2) layout: the shape
    check refuses them before the tightness rule runs."""
    with pytest.raises(ValueError, match=r"expected shape \(8, 4\), got \(12, 6\)"):
        StackedDftFrame(build_nonpavable_general(2, 3).vectors, block_layout(2, 2))


def test_block_rows_span_each_block():
    layout = block_layout(3, 2)
    assert [layout.block_rows(k) for k in (1, 2, 3)] == [range(0, 6), range(6, 12), range(12, 18)]
    with pytest.raises(ValueError):
        layout.block_rows(4)


@pytest.mark.parametrize("method", ["residual_weight_sq", "column_weights", "band_columns",
                                    "block_rows"])
@pytest.mark.parametrize("k", [True, 1.0, np.float64(2.0), 0, 4],
                         ids=["bool", "float", "numpy-float", "zero", "past-r"])
def test_block_number_follows_the_integer_rule(method, k):
    """A block number of the (3, 2) layout is an integer in [1, 3]: True would
    name block 1, and a float would index a tuple (TypeError) or pass as 1."""
    layout = block_layout(3, 2)
    owner = layout.schedule if method == "residual_weight_sq" else layout
    with pytest.raises(ValueError, match=r"^k must be "):
        getattr(owner, method)(k)


def test_sidecar_dict_round_trips_the_layout():
    fam = build_nonpavable_general(3, 2)
    side = sidecar_dict(fam)
    assert side["r"] == 3 and side["n"] == 2
    assert side["deltas"] == [0.6, 0.9, 1.5]
    assert len(side["layout"]) == 3
    assert side["layout"][2]["band_width"] == 0


def test_build_sidecar_bytes_unchanged(tmp_path, capsys):
    """Recorded when the schedule and layout were stored fields; deriving
    them from (r, n) must reproduce it."""
    assert main(["build", "--r", "3", "--n", "2", "--out", str(tmp_path / "fam")]) == 0
    capsys.readouterr()
    assert (tmp_path / "fam.json").read_bytes() == (DATA / "sidecar_r3_n2.json").read_bytes()


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def test_doubling_two_ones_exactly():
    seed = FrameFamily(np.array([[1.0], [1.0]], dtype=complex))
    out = doubling_step(seed)
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[s, s], [s, s], [s, -s], [s, -s]], dtype=complex)
    npt.assert_allclose(out.vectors, expected, atol=1e-15)
    g = gram(out.vectors)
    npt.assert_allclose(g[:2, :2], [[1, 1], [1, 1]], atol=1e-15)
    npt.assert_allclose(g[2:, 2:], [[1, 1], [1, 1]], atol=1e-15)
    npt.assert_allclose(g[:2, 2:], 0.0, atol=1e-15)


def test_doubling_preserves_frame_bounds():
    fam = build_nonpavable_general(2, 2)
    before = frame_bounds(fam)
    after = frame_bounds(doubling_step(fam))
    assert abs(before[0] - after[0]) <= 1e-10
    assert abs(before[1] - after[1]) <= 1e-10


def test_doubling_shrinks_entries():
    fam = build_nonpavable_general(2, 2)
    out = doubling_step(fam)
    assert np.max(np.abs(out.vectors)) == pytest.approx(
        np.max(np.abs(fam.vectors)) / math.sqrt(2.0), abs=1e-15
    )


@pytest.mark.parametrize("r,n,steps", [(2, 2, 3), (2, 4, 6), (3, 2, 2)])
def test_doubling_bits_equal_the_block_matrix(r, n, steps):
    """Every step against [[V, V], [V, -V]] / sqrt 2, compared as 64-bit
    patterns so that -0.0 and 0.0 count as different."""
    v = build_nonpavable_general(r, n).vectors
    for _ in range(steps):
        expected = doubling_by_blocks(v)
        v = doubling_step(FrameFamily(v)).vectors
        assert v.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


def test_doubling_keeps_signed_zeros_of_the_block_matrix():
    seed = FrameFamily(np.array([[0.0, -0.0 + 1j], [-0.0 - 0.0j, 1.0]]))
    expected = doubling_by_blocks(seed.vectors)
    out = doubling_step(seed).vectors
    assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
    assert np.signbit(out.real).any() and not np.signbit(out.real).all()


def test_doubled_family_zero_steps_is_input():
    fam = build_nonpavable_general(2, 2)
    assert doubled_family(fam, 0) is fam


def test_doubled_family_twice_on_two_ones():
    seed = FrameFamily(np.array([[1.0], [1.0]], dtype=complex))
    out = doubled_family(seed, 2)
    assert out.vectors.shape == (8, 4)
    npt.assert_allclose(row_square_sums(out.vectors), np.ones(8), atol=1e-12)
    assert frame_bounds(out) == pytest.approx((2.0, 2.0), abs=1e-10)


def test_doubled_family_rejects_negative_steps():
    with pytest.raises(ValueError):
        doubled_family(build_nonpavable_general(2, 1), -1)


def test_doubled_family_respects_entry_budget():
    fam = build_nonpavable_general(2, 2)  # 8 x 4
    with pytest.raises(ResourceLimitError):
        doubled_family(fam, 10)  # 8192 x 4096 = 2^25 entries
    # one step below the default budget is fine at a budget of exactly 32*4^9
    doubled_family(fam, 9, entry_budget=1 << 23)
    with pytest.raises(ResourceLimitError) as excinfo:
        doubled_family(fam, 9, entry_budget=(1 << 23) - 1)
    assert str(excinfo.value) == (
        "doubled family would hold 32*4^9 entries, over the budget of 8388607"
    )
    # a numpy integer budget takes the same rule
    with pytest.raises(ResourceLimitError, match=r"32\*4\^10 entries"):
        doubled_family(fam, 10, entry_budget=np.int64(1 << 24))


def test_doubled_empty_family_is_within_any_budget():
    """An empty family holds 0 entries at every step, so no step count is
    over the entry budget, but its column count still doubles: past numpy's
    index range the call is refused, not left to numpy's ValueError."""
    out = doubled_family(FrameFamily(np.zeros((0, 2))), 13)
    assert out.vectors.shape == (0, 2**14)
    with pytest.raises(ResourceLimitError, match=r"^a 0 x 2305843009213693952 array of "
                       r"16-byte entries is past numpy's index range$"):
        doubled_family(FrameFamily(np.zeros((0, 2))), 60)


def test_build_past_numpy_index_range_is_a_budget_refusal(monkeypatch):
    """(2, 10**20) is refused as a budget, before the DFT is formed."""
    def no_dft(_):
        raise AssertionError("dft_matrix called before the index-range check")

    monkeypatch.setattr(constructions, "dft_matrix", no_dft)
    with pytest.raises(ResourceLimitError) as excinfo:
        build_nonpavable_general(2, 10**20)
    assert str(excinfo.value) == (
        f"a {4 * 10**20} x {2 * 10**20} array of 16-byte entries is past numpy's index range"
    )


def test_build_entry_budget_is_one_budget_refusal(monkeypatch):
    """(16, 129) would hold 33024 x 2064 entries, over 2^24: refused before
    the DFT is formed."""
    def no_dft(_):
        raise AssertionError("dft_matrix called before the entry budget")

    monkeypatch.setattr(constructions, "dft_matrix", no_dft)
    with pytest.raises(ResourceLimitError) as excinfo:
        build_nonpavable_general(16, 129)
    assert str(excinfo.value) == (
        "family would hold 33024*2064 entries, over the budget of 16777216"
    )


def test_build_entry_budget_admits_its_bound(monkeypatch):
    """r^3 n^2 entries equal to the budget are built: (2, 3) holds 12 x 6."""
    monkeypatch.setattr(constructions, "DEFAULT_ENTRY_BUDGET", 72)
    assert build_nonpavable_general(2, 3).vectors.size == 72
    with pytest.raises(ResourceLimitError, match=r"^family would hold 18\*6 entries"):
        build_nonpavable_general(3, 2)


def test_gram_block_residual_small():
    fam = build_nonpavable_general(2, 2)
    out = doubled_family(fam, 3)
    assert gram_block_residual(out, fam) <= 1e-12


@pytest.mark.parametrize("r,n,steps", [(2, 2, 3), (2, 4, 6), (3, 1, 5), (3, 2, 3), (2, 3, 4), (2, 1, 0)])
def test_gram_block_residual_bits_equal_the_block_pairs(r, n, steps):
    """C products (0, x) against one per pair of copies i <= j: 64 against
    2,080 for (2, 4) K = 6. M = 9 and M = 18 are not multiples of 4, where
    slices of a block-row product lose the pair products' bits."""
    fam = build_nonpavable_general(r, n)
    out = doubled_family(fam, steps)
    assert constructions._signed_copies(out.vectors, fam.count, fam.dim)
    expected = gram_block_residual_by_pairs(out.vectors, fam.vectors)
    assert gram_block_residual(out, fam) == expected


@pytest.mark.parametrize("r,n,steps", [(3, 1, 5), (2, 4, 6)])
def test_doubled_gram_block_has_the_bits_of_block_zero_xor(r, n, steps):
    """The identity the shortcut rests on: block (i, j) of a doubled Gram is
    block (0, i xor j) bit for bit, as every term is the same up to exact
    sign flips, summed in the same order. A BLAS whose bits depend on where
    its operands sit in memory breaks it, and this fails."""
    fam = build_nonpavable_general(r, n)
    V = doubled_family(fam, steps).vectors
    M, C = fam.count, 2**steps
    Vc = V.conj()

    def block(i, j):
        return (V[i * M : (i + 1) * M] @ Vc[j * M : (j + 1) * M].T).tobytes()

    first = [block(0, x) for x in range(C)]
    assert [(i, j) for i in range(C) for j in range(C) if block(i, j) != first[i ^ j]] == []


def _flipped_copy_block(fam, steps, i, c):
    """A doubled family with block (i, c) negated: entries still +-F/2^(K/2),
    signs no longer the Sylvester matrix's."""
    V = np.array(doubled_family(fam, steps).vectors)
    M, d = fam.count, fam.dim
    V[i * M : (i + 1) * M, c * d : (c + 1) * d] *= -1
    return V


def _three_copies(fam):
    """Three signed copies, C = 3: Gram block (1, 2) is 3 G, larger than any
    block (0, x), so pairs (0, x) alone would miss the maximum."""
    return np.kron([[1, 1, 1], [1, -1, -1], [1, -1, -1]], fam.vectors)


def test_gram_block_residual_falls_back_to_every_pair():
    """Both fallbacks give the pair-by-pair value: a negated copy block, and
    three copies (C not a power of two)."""
    fam = build_nonpavable_general(2, 2)
    for damaged in (_flipped_copy_block(fam, 2, 1, 2), _three_copies(fam)):
        expected = gram_block_residual_by_pairs(damaged, fam.vectors)
        assert gram_block_residual(FrameFamily(damaged), fam) == expected > 0.1


def test_signed_copy_test_passes_a_doubled_family_and_refuses_each_damage():
    fam = build_nonpavable_general(2, 2)
    M, d = fam.count, fam.dim
    V = doubled_family(fam, 2).vectors
    assert constructions._signed_copies(V, M, d)
    nudged = np.array(V)
    nudged[20, 3] += 1e-3
    first_row = np.array(V)
    first_row[:M, 3 * d] *= -1  # block row 0 is no longer B, B, B, B
    damaged = {
        "nudged entry": nudged,
        "negated copy block": _flipped_copy_block(fam, 2, 1, 2),
        "negated column of block row 0": first_row,
        "three copies": _three_copies(fam),
        "columns not C*d": V[:, : 3 * d],
    }
    assert [k for k, W in damaged.items() if constructions._signed_copies(W, M, d)] == []


def test_gram_block_residual_bits_equal_the_block_pairs_when_damaged():
    fam = build_nonpavable_general(2, 2)
    damaged = np.array(doubled_family(fam, 2).vectors)
    damaged[20, 3] += 1e-3
    expected = gram_block_residual_by_pairs(damaged, fam.vectors)
    assert gram_block_residual(FrameFamily(damaged), fam) == expected > 1e-4


def test_gram_block_residual_detects_damage():
    fam = build_nonpavable_general(2, 1)
    out = doubled_family(fam, 1)
    damaged = FrameFamily(out.vectors + 0.01)
    assert gram_block_residual(damaged, fam) > 1e-3


def test_restriction_identity_on_random_coefficients():
    fam = build_nonpavable_general(2, 2)
    out = doubled_family(fam, 3)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(100, 8)) + 1j * rng.normal(size=(100, 8))
    assert restriction_identity_residual(out, fam, coeffs) <= 1e-10


def test_restriction_identity_rejects_bad_width():
    fam = build_nonpavable_general(2, 2)
    out = doubled_family(fam, 1)
    with pytest.raises(ValueError):
        restriction_identity_residual(out, fam, np.ones((1, 5)))
