"""Acceptance gate: nine numbered end-to-end criteria.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
success). The criteria pin construction fidelity, the projection bridge,
exhaustive and sampled non-pavability certificates, witness soundness, a
certificate re-checked from its JSON file alone, the doubling map,
degenerate-input flagging, and CLI determinism, each at its stated tolerance
and runtime budget. The column checks (criteria 1, 2 and 8) and the re-check
(criterion 6) use the independent oracles of tests/oracles.py, not the
package's own helpers.
"""

import json
import math
import time

import numpy as np

from nonpaving import (
    build_nonpavable_general,
    best_partition_riesz,
    certify_nonpavable,
    delta_schedule,
    dft_matrix,
    doubled_family,
    frame_bounds,
    gram,
    gram_block_residual,
    partition_from_assignment,
    projection_from_tight_frame,
    restriction_identity_residual,
    row_square_sums,
    witness_coefficients,
)
from nonpaving.cli import main as cli_main

from oracles import (
    closed_form_r2,
    column_orthogonality_defect_by_pairs,
    column_square_sums_by_columns,
    delta_fraction,
    jacobi_hermitian_eigenvalues,
)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_two_block_construction_fidelity():
    start = time.perf_counter()
    worst_defect = worst_row = worst_col = 0.0
    for n in range(1, 17):
        fam = build_nonpavable_general(2, n)
        worst_defect = max(worst_defect, column_orthogonality_defect_by_pairs(fam.vectors))
        worst_row = max(worst_row, float(np.max(np.abs(row_square_sums(fam.vectors) - 1.0))))
        worst_col = max(
            worst_col, float(np.max(np.abs(column_square_sums_by_columns(fam.vectors) - 2.0)))
        )
    elapsed = time.perf_counter() - start
    ok = worst_defect <= 1e-10 and worst_row <= 1e-10 and worst_col <= 1e-10 and elapsed < 1.0
    report(
        1,
        ok,
        f"r=2, n=1..16: defect {worst_defect:.2e}, row dev {worst_row:.2e}, "
        f"col dev {worst_col:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_general_r_fidelity():
    start = time.perf_counter()
    worst_row = worst_col = worst_total = worst_partial = 0.0
    for r in (2, 3, 4):
        for n in range(1, 7):
            fam = build_nonpavable_general(r, n)
            worst_row = max(
                worst_row, float(np.max(np.abs(row_square_sums(fam.vectors) - 1.0)))
            )
            worst_col = max(
                worst_col, float(np.max(np.abs(column_square_sums_by_columns(fam.vectors) - r)))
            )
            sched = delta_schedule(r, n)
            worst_total = max(worst_total, abs(sum(sched.deltas) - r))
            for k in range(1, r + 1):
                closed = r * k / ((r - k) * n + k)
                worst_partial = max(worst_partial, abs(sched.partial_sums[k - 1] - closed))
    elapsed = time.perf_counter() - start
    ok = (
        worst_row <= 1e-10
        and worst_col <= 1e-10
        and worst_total <= 1e-12
        and worst_partial <= 1e-12
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"r=2..4, n=1..6: row dev {worst_row:.2e}, col dev {worst_col:.2e}, "
        f"sum dev {worst_total:.2e}, partial dev {worst_partial:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_projection_bridge():
    worst_idem = worst_diag = worst_trace = 0.0
    for r in (2, 3, 4):
        for n in range(1, 7):
            fam = build_nonpavable_general(r, n)
            P = gram(fam.vectors / math.sqrt(r))
            worst_idem = max(worst_idem, float(np.max(np.abs(P @ P - P))))
            worst_diag = max(
                worst_diag, float(np.max(np.abs(np.diag(P).real - 1.0 / r)))
            )
            worst_trace = max(worst_trace, abs(float(np.trace(P).real) - r * n))
            proj = projection_from_tight_frame(fam, float(r))
            assert proj.rank == r * n
    ok = worst_idem <= 1e-8 and worst_diag <= 1e-10 and worst_trace <= 1e-6
    report(
        3,
        ok,
        f"all criterion-2 families: idempotency {worst_idem:.2e}, "
        f"diag dev {worst_diag:.2e}, trace dev {worst_trace:.2e}",
    )


def test_criterion_4_exhaustive_non_pavability():
    start = time.perf_counter()
    attained = {}
    for n in (2, 3):
        _, value = best_partition_riesz(build_nonpavable_general(2, n), 2)
        attained[n] = value
    elapsed = time.perf_counter() - start
    ceilings_ok = attained[2] <= 2.0 / 3.0 + 1e-8 and attained[3] <= 0.5 + 1e-8
    # The certified ceiling 2/(n+1) tightens strictly from 2/3 to 1/2 and the
    # n=3 attained value sits strictly under the n=2 ceiling. The attained
    # values themselves move UP (1 - 1/sqrt(3) = 0.4226 at n=2, exactly 1/2 at
    # n=3): n=2 undershoots its ceiling while n=3 meets it, so the literal
    # attained sequence does not decrease. Both values are printed so the
    # behavior is visible.
    tightens_ok = attained[3] < 2.0 / 3.0 - 1e-8
    ok = ceilings_ok and tightens_ok and elapsed < 60.0
    report(
        4,
        ok,
        f"all 2^(4n) splits: attained max-min {attained[2]:.10f} (n=2, ceiling 2/3) "
        f"and {attained[3]:.10f} (n=3, ceiling 1/2); ceiling tightens 2/3 -> 1/2 "
        f"(attained values themselves rise), {elapsed:.2f}s",
    )


def test_criterion_5_witness_soundness():
    start = time.perf_counter()
    worst_margin = -math.inf  # achieved minus its delta_k cap
    worst_band = 0.0
    worst_chain = 0.0
    for r in (2, 3):
        for n in (2, 3):
            fam = build_nonpavable_general(r, n)
            deltas = fam.schedule.deltas
            rng = np.random.Generator(np.random.Philox(100 + 10 * r + n))
            labels = rng.integers(0, r, size=(1000, fam.count))
            base = dft_matrix(r * n)
            for row in labels:
                partition = partition_from_assignment(row.tolist(), r)
                wit = witness_coefficients(fam, partition)
                worst_margin = max(
                    worst_margin, wit.achieved_norm_sq - deltas[wit.k - 1]
                )
                rows = fam.vectors[list(wit.indices), :]
                band = list(fam.layout.band_columns(wit.k))
                if band:
                    worst_band = max(
                        worst_band,
                        float(np.max(np.abs(wit.coefficients @ rows[:, band]))),
                    )
                if r == 2:
                    # witness rows live in the first block, so the plain DFT
                    # rows with the same indices give the unweighted combination
                    combo = wit.coefficients @ base[list(wit.indices), :]
                    off_band = combo.copy()
                    off_band[: n - 1] = 0.0
                    rhs = 2.0 / (n + 1) * float(np.sum(np.abs(off_band) ** 2))
                    worst_chain = max(worst_chain, abs(wit.achieved_norm_sq - rhs))
    elapsed = time.perf_counter() - start
    ok = (
        worst_margin <= 1e-8
        and worst_band <= 1e-10
        and worst_chain <= 1e-8
        and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"r=2..3, n=2..3, 1000 seeded partitions each: achieved-delta margin "
        f"{worst_margin:.2e}, band residual {worst_band:.2e}, "
        f"norm-chain dev {worst_chain:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_certificate_recheck(tmp_path, capsys):
    """An exhaustive (2, 3) certificate re-checked from its JSON file alone,
    against the oracles: the closed-form family, Jacobi part bounds and exact
    delta values."""
    path = tmp_path / "cert.json"
    argv = ["certify", "--r", "2", "--n", "3", "--mode", "exhaustive", "--out", str(path)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    cert = json.loads(path.read_text(encoding="utf-8"))
    vectors = closed_form_r2(3)
    g = vectors @ vectors.conj().T
    parts = cert["partition"]
    covers = sorted(i for part in parts for i in part) == list(range(len(vectors)))
    bound_dev = max(
        abs(bound - jacobi_hermitian_eigenvalues(g[np.ix_(part, part)])[0])
        for part, bound in zip(parts, cert["per_part_bounds"], strict=True)
    )
    wit = cert["witness"]
    rows = wit["indices"]
    in_part = set(rows) <= set(parts[wit["j"]])
    coefficients = np.array([complex(re, im) for re, im in wit["coefficients"]])
    unit_dev = abs(float(np.linalg.norm(coefficients)) - 1.0)
    norm_dev = abs(float(np.sum(np.abs(coefficients @ vectors[rows]) ** 2)) - wit["achieved"])
    margin = wit["achieved"] - float(delta_fraction(2, 3, wit["k"]))
    ok = (
        covers
        and bound_dev <= 1e-12
        and in_part
        and unit_dev <= 1e-12
        and norm_dev <= 1e-12
        and margin <= 1e-8
    )
    report(
        6,
        ok,
        f"r=2 n=3 exhaustive certificate from its JSON: partition covers rows {covers}, "
        f"part-bound dev {bound_dev:.2e}, witness rows in part {in_part}, "
        f"unit-coefficient dev {unit_dev:.2e}, witness norm dev {norm_dev:.2e}, "
        f"achieved-delta margin {margin:.2e}",
    )


def test_criterion_7_doubling():
    fam = build_nonpavable_general(2, 2)
    seed_max = float(np.max(np.abs(fam.vectors)))
    rng = np.random.Generator(np.random.Philox(77))
    coeffs = rng.standard_normal((100, 8)) + 1j * rng.standard_normal((100, 8))
    worst_entry = worst_block = worst_restrict = worst_bounds = 0.0
    for steps in (1, 2, 3):
        out = doubled_family(fam, steps)
        max_entry = float(np.max(np.abs(out.vectors)))
        worst_entry = max(
            worst_entry, max_entry - (2.0 ** (-steps / 2.0) * seed_max + 1e-12)
        )
        worst_block = max(worst_block, gram_block_residual(out, fam))
        worst_restrict = max(
            worst_restrict, restriction_identity_residual(out, fam, coeffs)
        )
        lo, hi = frame_bounds(out)
        worst_bounds = max(worst_bounds, abs(lo - 2.0), abs(hi - 2.0))
    ok = (
        worst_entry <= 0.0
        and worst_block <= 1e-12
        and worst_restrict <= 1e-10
        and worst_bounds <= 1e-8
    )
    report(
        7,
        ok,
        f"r=2 n=2, K=1..3: entry-bound slack {worst_entry:.2e}, gram off-block "
        f"{worst_block:.2e}, restriction {worst_restrict:.2e}, "
        f"bounds dev {worst_bounds:.2e}",
    )


def test_criterion_8_degenerate_n1_flagged_vacuous():
    construction_ok = True
    for r in (2, 3, 4):
        fam = build_nonpavable_general(r, 1)
        construction_ok &= column_orthogonality_defect_by_pairs(fam.vectors) <= 1e-10
        construction_ok &= float(np.max(np.abs(row_square_sums(fam.vectors) - 1.0))) <= 1e-10
        col_dev = float(np.max(np.abs(column_square_sums_by_columns(fam.vectors) - r)))
        construction_ok &= col_dev <= 1e-10
        construction_ok &= all(d == 1.0 for d in fam.schedule.deltas)
        P = gram(fam.vectors / math.sqrt(r))
        construction_ok &= float(np.max(np.abs(P @ P - P))) <= 1e-8
        construction_ok &= float(np.max(np.abs(np.diag(P).real - 1.0 / r))) <= 1e-10
    exhaustive = certify_nonpavable(build_nonpavable_general(2, 1), "exhaustive")
    sampled = certify_nonpavable(
        build_nonpavable_general(3, 1), "sampled", count=100, seed=5
    )
    flags_ok = (
        exhaustive.vacuous
        and sampled.vacuous
        and exhaustive.to_json_dict()["vacuous"] is True
        and sampled.to_json_dict()["vacuous"] is True
        and list(exhaustive.deltas) == [1.0, 1.0]
        and list(sampled.deltas) == [1.0, 1.0, 1.0]
    )
    ok = construction_ok and flags_ok
    report(
        8,
        ok,
        "n=1 families pass criteria 1-3 checks and certificates carry "
        f"vacuous=true with unit deltas (construction {construction_ok}, flags {flags_ok})",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run_all(into):
        into.mkdir()
        commands = [
            ["build", "--r", "2", "--n", "3", "--out", str(into / "fam")],
            ["verify", "--r", "3", "--n", "2", "--out", str(into / "verify.json")],
            ["certify", "--r", "2", "--n", "2", "--mode", "sampled",
             "--count", "128", "--seed", "11", "--out", str(into / "cert.json")],
            ["certify", "--r", "2", "--n", "2", "--mode", "exhaustive",
             "--out", str(into / "cert_ex.json")],
            ["double", "--r", "2", "--n", "2", "--k", "2", "--out", str(into / "dbl")],
            ["sweep", "--r", "2", "--n-list", "1,2,3", "--out", str(into / "sweep.csv")],
        ]
        for argv in commands:
            assert cli_main(argv) == 0, argv
        capsys.readouterr()  # drop the "wrote ..." chatter

    run_all(tmp_path / "first")
    run_all(tmp_path / "second")
    names = [
        "fam.csv", "fam.json", "verify.json", "cert.json", "cert_ex.json",
        "dbl.csv", "dbl.json", "sweep.csv",
    ]
    mismatched = [
        name
        for name in names
        if (tmp_path / "first" / name).read_bytes()
        != (tmp_path / "second" / name).read_bytes()
    ]
    ok = not mismatched
    report(
        9,
        ok,
        "repeated CLI runs (all five subcommands, fixed flags and seeds) are "
        + ("byte-identical across " + str(len(names)) + " files"
           if ok else f"NOT byte-identical: {mismatched}"),
    )
