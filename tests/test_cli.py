import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from nonpaving import dft_matrix, read_matrix_csv, write_matrix_csv
from nonpaving.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_writes_matrix_and_sidecar(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    code, out, _ = run(capsys, "build", "--r", "2", "--n", "2", "--out", prefix)
    assert code == 0
    assert "fam.csv" in out and "fam.json" in out
    matrix = read_matrix_csv(prefix + ".csv")
    assert matrix.shape == (8, 4)
    side = json.loads((tmp_path / "fam.json").read_text())
    npt.assert_allclose(side["deltas"], [2.0 / 3.0, 4.0 / 3.0], atol=1e-15)


def test_build_r3_n2(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    code, _, _ = run(capsys, "build", "--r", "3", "--n", "2", "--out", prefix)
    assert code == 0
    assert read_matrix_csv(prefix + ".csv").shape == (18, 6)
    side = json.loads((tmp_path / "g.json").read_text())
    assert side["deltas"] == [0.6, 0.9, 1.5]


def test_build_rejects_r1(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--r", "1", "--n", "2",
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert "r must be >= 2" in err


def test_build_io_failure_is_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--r", "2", "--n", "1",
                       "--out", str(tmp_path / "no" / "such" / "dir" / "x"))
    assert code == 2
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_built_family_in_memory(capsys):
    code, out, _ = run(capsys, "verify", "--r", "2", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["tight_constant"] == pytest.approx(2.0, abs=1e-8)
    assert report["projection_check"]["diag"] == pytest.approx(0.5, abs=1e-10)
    assert report["projection_check"]["rank"] == 8


def test_verify_dft_csv(tmp_path, capsys):
    path = tmp_path / "dft.csv"
    write_matrix_csv(dft_matrix(4), path)
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["tight_constant"] == pytest.approx(1.0, abs=1e-8)
    assert report["failed_checks"] == []


def test_verify_round_trip_matches_in_memory_verdict(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    assert run(capsys, "build", "--r", "3", "--n", "2", "--out", prefix)[0] == 0
    code_file, out_file, _ = run(capsys, "verify", "--in", prefix + ".csv")
    code_mem, out_mem, _ = run(capsys, "verify", "--r", "3", "--n", "2")
    assert code_file == code_mem == 0
    assert out_file == out_mem  # bit-identical reports either way


def test_verify_corrupted_entry_names_column_check(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    assert run(capsys, "build", "--r", "2", "--n", "2", "--out", prefix)[0] == 0
    matrix = np.array(read_matrix_csv(prefix + ".csv"))
    matrix[0, 0] *= 2.0  # fault injection
    write_matrix_csv(matrix, tmp_path / "bad.csv")
    code, out, err = run(capsys, "verify", "--in", str(tmp_path / "bad.csv"))
    assert code == 3
    report = json.loads(out)
    assert "column-square-sums" in report["failed_checks"]
    assert report["passed"] is False
    assert "column-square-sums" in err


def test_verify_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/m.csv")
    assert code == 2
    assert "error" in err


def test_verify_unparsable_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("not a matrix\n")
    code, _, _ = run(capsys, "verify", "--in", str(path))
    assert code == 2


def test_verify_rejects_conflicting_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--in", "whatever.csv", "--r", "2", "--n", "2")
    assert code == 1
    assert "not both" in err


def test_verify_requires_some_input(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 1


def test_verify_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--r", "2", "--n", "1", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_exhaustive_r2_n2(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    code, stdout, _ = run(capsys, "certify", "--r", "2", "--n", "2",
                          "--mode", "exhaustive", "--out", out)
    assert code == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["partitions_checked"] == 256
    assert cert["worst_min_part_bound"] <= 2.0 / 3.0 + 1e-8
    assert cert["passed"] is True
    assert "256 partitions" in stdout


def test_certify_exhaustive_r2_n3(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "certify", "--r", "2", "--n", "3",
                     "--mode", "exhaustive", "--out", out)
    assert code == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["partitions_checked"] == 4096
    assert cert["worst_min_part_bound"] <= 0.5 + 1e-8


def test_certify_sampled_r3_n2(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "certify", "--r", "3", "--n", "2", "--mode", "sampled",
                     "--count", "1000", "--seed", "1", "--out", out)
    assert code == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["partitions_checked"] == 1000
    assert cert["seed"] == 1
    assert cert["worst_min_part_bound"] <= 0.9 + 1e-8


def test_certify_vacuous_flag(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    code, stdout, _ = run(capsys, "certify", "--r", "2", "--n", "1",
                          "--mode", "exhaustive", "--out", out)
    assert code == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["vacuous"] is True
    assert cert["bound_delta"] == [1.0, 1.0]
    assert "vacuous" in stdout


def test_certify_exhaustive_over_budget_is_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, "certify", "--r", "3", "--n", "2",
                       "--mode", "exhaustive", "--out", str(tmp_path / "c.json"))
    assert code == 4
    assert "resource limit" in err


def test_certify_count_only_for_sampled(tmp_path, capsys):
    code, _, err = run(capsys, "certify", "--r", "2", "--n", "1",
                       "--mode", "exhaustive", "--count", "5",
                       "--out", str(tmp_path / "c.json"))
    assert code == 1
    assert "sampled" in err


def test_certify_sampled_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "certify", "--r", "2", "--n", "2", "--mode", "sampled",
                       "--count", "5", "--seed", "-1", "--out", str(out))
    assert code == 1
    assert err == "nonpaving: error: --seed must be >= 0\n"
    assert not out.exists()


def test_certify_internal_check_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    import nonpaving.paving_analysis as pa

    # (3, 2) witnesses come within 0.05 of their delta, so they fail; the
    # certify threshold, 0.9 - 0.05, stays above every drawn min-part bound
    monkeypatch.setattr(pa, "WITNESS_TOL", -0.05)
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "certify", "--r", "3", "--n", "2", "--mode", "sampled",
                       "--count", "50", "--seed", "1", "--out", str(out))
    assert code == 3
    assert err.startswith("nonpaving: internal check failed: witness achieved ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# double
# ---------------------------------------------------------------------------

def test_double_zero_steps_matches_build(tmp_path, capsys):
    build_prefix = str(tmp_path / "b")
    double_prefix = str(tmp_path / "d")
    assert run(capsys, "build", "--r", "2", "--n", "2", "--out", build_prefix)[0] == 0
    assert run(capsys, "double", "--r", "2", "--n", "2", "--k", "0",
               "--out", double_prefix)[0] == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_double_three_steps(tmp_path, capsys):
    prefix = str(tmp_path / "d3")
    code, _, _ = run(capsys, "double", "--r", "2", "--n", "2", "--k", "3",
                     "--out", prefix)
    assert code == 0
    report = json.loads((tmp_path / "d3.json").read_text())
    assert (report["rows"], report["cols"]) == (64, 32)
    assert report["max_entry"] <= report["max_entry_bound"] + 1e-12
    assert report["gram_offblock_residual"] <= 1e-12
    assert report["restriction_identity_residual"] <= 1e-10
    assert report["passed"] is True
    assert read_matrix_csv(prefix + ".csv").shape == (64, 32)


def test_double_negative_seed_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "double", "--r", "2", "--n", "1", "--k", "1",
                       "--seed", "-1", "--out", str(tmp_path / "d"))
    assert code == 1
    assert err == "nonpaving: error: --seed must be >= 0\n"
    assert not (tmp_path / "d.csv").exists()


def test_double_entry_budget_is_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, "double", "--r", "2", "--n", "2", "--k", "12",
                       "--out", str(tmp_path / "big"))
    assert code == 4
    assert "resource limit" in err


def test_double_rejects_negative_steps(tmp_path, capsys):
    code, _, _ = run(capsys, "double", "--r", "2", "--n", "2", "--k", "-1",
                     "--out", str(tmp_path / "x"))
    assert code == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_r2_delta_column(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "sweep", "--r", "2", "--n-list", "1,2,3,4",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,delta_1,delta_2,best_min_part_riesz"
    first_deltas = [float(line.split(",")[1]) for line in lines[1:]]
    npt.assert_allclose(first_deltas, [1.0, 2.0 / 3.0, 0.5, 0.4], atol=1e-15)
    # exhaustive best value fits the default sweep budget up to n = 2 (2^16)
    best = [line.split(",")[3] for line in lines[1:]]
    assert best[0] != "" and best[1] != ""
    assert float(best[1]) <= 2.0 / 3.0 + 1e-8


def test_sweep_r3_best_column_blank_when_over_budget(capsys):
    code, out, _ = run(capsys, "sweep", "--r", "3", "--n-list", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,delta_1,delta_2,delta_3,best_min_part_riesz"
    for line in lines[1:]:
        assert line.endswith(",")  # 3^(9n) assignments never fit 2^16


def test_sweep_r3_delta1_values(capsys):
    code, out, _ = run(capsys, "sweep", "--r", "3", "--n-list", "2,4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(0.6, abs=1e-15)
    assert float(rows[1][1]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_sweep_empty_n_list(capsys):
    code, out, _ = run(capsys, "sweep", "--r", "2", "--n-list", "")
    assert code == 0
    assert out == "n,delta_1,delta_2,best_min_part_riesz\n"


def test_sweep_rejects_bad_n_list(capsys):
    code, _, err = run(capsys, "sweep", "--r", "2", "--n-list", "2,x")
    assert code == 1
    assert "comma-separated" in err


# ---------------------------------------------------------------------------
# determinism and the module entry point
# ---------------------------------------------------------------------------

def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        assert run(capsys, "build", "--r", "2", "--n", "3",
                   "--out", str(d / "fam"))[0] == 0
        assert run(capsys, "certify", "--r", "2", "--n", "2", "--mode", "sampled",
                   "--count", "64", "--seed", "9", "--out", str(d / "cert.json"))[0] == 0
        assert run(capsys, "double", "--r", "2", "--n", "1", "--k", "2",
                   "--out", str(d / "dbl"))[0] == 0
        assert run(capsys, "sweep", "--r", "2", "--n-list", "1,2",
                   "--out", str(d / "sweep.csv"))[0] == 0
    for name in ("fam.csv", "fam.json", "cert.json", "dbl.csv", "dbl.json", "sweep.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes(), name


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "nonpaving", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for word in ("build", "verify", "certify", "double", "sweep"):
        assert word in proc.stdout


def test_module_entry_point_build(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nonpaving", "build", "--r", "2", "--n", "1"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "family_r2_n1.csv").exists()
    assert (tmp_path / "family_r2_n1.json").exists()


def test_usage_error_exit_code_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nonpaving", "build", "--r", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr  # missing --n is a usage error, not argparse's 2
    # an import failure also exits 1; the message shows the parser ran
    assert "required: --n" in proc.stderr, proc.stderr
