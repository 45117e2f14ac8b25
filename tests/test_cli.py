import gc
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from nonpaving import (
    FrameFamily,
    build_nonpavable_general,
    dft_matrix,
    read_matrix_csv,
    write_matrix_csv,
)
from nonpaving.cli import main
from nonpaving.errors import InternalInconsistencyError

DATA = Path(__file__).parent / "data"


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


def test_verify_zero_matrix_is_not_tight(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    write_matrix_csv(np.zeros((3, 2)), path)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["failed_checks"] == ["row-square-sums", "tightness"]
    assert report["tight_constant"] is None
    assert report["projection_check"] is None
    assert "tightness" in err


def test_verify_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/m.csv")
    assert code == 2
    assert "error" in err


def test_verify_unparsable_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("not a matrix\n")
    code, _, _ = run(capsys, "verify", "--in", str(path))
    assert code == 2


def test_verify_empty_matrix_is_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("# 0 3\n")
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "parse error" in err


@pytest.mark.parametrize("cols", ["100000000000", "99999999999999999999"])
def test_verify_oversized_header_is_exit_2(tmp_path, capsys, cols):
    """A header's column count sizes nothing before the rows confirm it:
    2 x 10**11 would need 2.91 TiB, 10**20 columns exceed numpy's limit."""
    path = tmp_path / "wide.csv"
    rows = 2 if cols == "100000000000" else 1
    path.write_text(f"# {rows} {cols}\n" + "1+0j\n" * rows)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert f"row 0 has 1 entries, expected {cols}" in err


def test_verify_underscored_header_is_exit_2(tmp_path, capsys):
    """int('1_0') is 10, so ten unit rows would read as a tight 10 x 1 frame."""
    path = tmp_path / "under.csv"
    path.write_text("# 1_0 1\n" + "1+0j\n" * 10)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("nonpaving: parse error:")
    assert "non-integer dimensions in header" in err


def test_verify_non_utf8_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"# 1 1\n\xff\xfe\n")
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("nonpaving: parse error:") and "latin.csv" in err


@pytest.mark.parametrize("text,message", [
    ("#\u20032\u20031\n1+0j\u20281+0j\n", "header must be '# rows cols'"),
    ("# 2 1\n1+0j\u20281+0j\n", "expected 2 rows, found 1"),
], ids=["em-space-header", "line-separator-row"])
def test_verify_unicode_separators_are_exit_2(tmp_path, capsys, text, message):
    """str.split() and str.splitlines() break at U+2003 and U+2028, so split
    as text the first file, one physical row, reads as a tight 2 x 1 matrix."""
    path = tmp_path / "unicode.csv"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"nonpaving: parse error: {path}: {message}\n"


@pytest.mark.parametrize("text,where", [
    ("# 1 1\n1e200+0j\n", "row 0"),  # the entry squares to inf
    ("# 1 2\n1e154+0j,1e154+0j\n", "row 0"),  # finite squares, infinite row sum
    ("# 2 1\n1e154+0j\n1e154+0j\n", "column 0"),  # finite row sums, infinite column sum
], ids=["entry", "row-sum", "column-sum"])
def test_verify_overflowing_square_sum_is_exit_2(tmp_path, capsys, text, where):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("nonpaving: parse error:")
    assert f"square sum of {where} is not finite" in err


_ROW = ",".join(["0.5+0.5j"] * 50) + "\n"


@pytest.mark.parametrize("text,message", [
    ("# 100 50\n" + _ROW * 99 + _ROW.replace("0.5+0.5j\n", "0.5+0.5i\n"),
     "bad entry '0.5+0.5i' at (99, 49)"),
    ("# 2 3\n1+0j,nan+0j,1+0j\nnan+0j,1+0j,nan+0j\n", "non-finite entry at (0, 1)"),
    ("# 2 3\n1+0j,1+0j,inf+0j\ninf+0j,inf+0j,1+0j\n", "non-finite entry at (0, 2)"),
    ("# 2 3\n1+0j,1+0j,zzz\naaa,1+0j,1+0j\n", "bad entry 'zzz' at (0, 2)"),
    ("# 2 2\n1+0j,inf+0j\nbad,1+0j\n", "non-finite entry at (0, 1)"),
    # complex() takes both; the writer makes neither
    ("# 1 1\n1_0+0j\n", "bad entry '1_0+0j' at (0, 0)"),
    ("# 1 1\n(1+0j)\n", "bad entry '(1+0j)' at (0, 0)"),
], ids=["after-duplicates", "repeated-nan", "repeated-inf", "first-of-two-bad",
        "non-finite-before-bad", "underscore", "parentheses"])
def test_verify_names_first_bad_entry_in_row_major_order(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"nonpaving: parse error: {path}: {message}\n"


def test_verify_huge_entry_is_tight_without_overflow(tmp_path, capsys):
    """A single nonzero vector is tight whatever its size: |1e154|^2 = 1e308 is
    finite, and the column product must not overflow on the way to it."""
    path = tmp_path / "big.csv"
    path.write_text("# 1 1\n1e154+0j\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "verify", "--in", str(path))
    report = json.loads(out)
    assert code == 3
    assert "tightness" not in report["failed_checks"]
    assert report["tight_constant"] == 1e308


def test_verify_in_forms_one_column_product_and_no_family(tmp_path, capsys, column_passes,
                                                          monkeypatch):
    path = tmp_path / "fam.csv"
    write_matrix_csv(build_nonpavable_general(3, 2).vectors, path)
    families = []
    original = FrameFamily.__post_init__
    monkeypatch.setattr(FrameFamily, "__post_init__",
                        lambda self: families.append(1) or original(self))
    column_passes.clear()
    assert run(capsys, "verify", "--in", str(path))[0] == 0
    assert column_passes == [(18, 6)]
    assert families == []


def test_verify_in_memory_forms_two_column_products(capsys, column_passes):
    # one for the build's tightness rule, one for the report
    assert run(capsys, "verify", "--r", "3", "--n", "2")[0] == 0
    assert column_passes == [(18, 6), (18, 6)]


def test_verify_inconsistent_tightness_is_a_failed_check(tmp_path, capsys, monkeypatch):
    """A classifier that finds its two measurements inconsistent fails the
    tightness check and skips the projection check: exit 3, not a traceback."""
    import nonpaving.cli as cli

    def inconsistent(column_pass, tol):
        raise InternalInconsistencyError("tightness characterizations disagree")

    monkeypatch.setattr(cli, "_classify_tightness", inconsistent)
    path = tmp_path / "fam.csv"
    write_matrix_csv(build_nonpavable_general(2, 2).vectors, path)
    code, out, err = run(capsys, "verify", "--in", str(path))
    report = json.loads(out)
    assert code == 3
    assert report["failed_checks"] == ["tightness"]
    assert report["tight_constant"] is None
    assert report["projection_check"] is None
    assert err == "verification failed: tightness\n"


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


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    """A dropped argparse parser (about 300 objects), or a search's
    self-referencing closure, is cyclic garbage that holds its memory until
    a full collection, so a process running many commands piles it up."""
    assert run(capsys, "sweep", "--r", "2", "--n-list", "1")[0] == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, "certify", "--r", "2", "--n", "3", "--mode", "exhaustive",
                   "--out", str(tmp_path / "c.json"))[0] == 0
        assert run(capsys, "sweep", "--r", "2", "--n-list", "1,2,3")[0] == 0
        assert run(capsys, "build", "--r", "3", "--n", "2", "--out", str(tmp_path / "f"))[0] == 0
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_certify_sampled_r3_n2(tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "certify", "--r", "3", "--n", "2", "--mode", "sampled",
                     "--count", "1000", "--seed", "1", "--out", out)
    assert code == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["partitions_checked"] == 1000
    assert cert["seed"] == 1
    assert cert["worst_min_part_bound"] <= 0.9 + 1e-8


def test_certify_sampled_count_defaults_to_1000(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--r", "2", "--n", "1", "--mode", "sampled",
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["partitions_checked"] == 1000


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


def test_certify_count_too_long_to_print_is_exit_4(tmp_path, capsys):
    """8^4800 has more digits than Python prints; the refusal names it as a
    power and is made before the count is formed."""
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "certify", "--r", "8", "--n", "75", "--out", str(out))
    assert code == 4
    assert err == (
        "nonpaving: resource limit: 8^4800 assignments exceed the budget of 16777216\n"
    )
    assert not out.exists()


def test_certify_exhaustive_refuses_before_building(tmp_path, capsys, monkeypatch):
    """The r^(r^2 n) budget is checked before the r^2 n x rn family exists."""
    import nonpaving.cli as cli

    def never(r, n):
        raise AssertionError("family built before the budget check")

    monkeypatch.setattr(cli, "build_nonpavable_general", never)
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "certify", "--r", "8", "--n", "75", "--out", str(out))
    assert code == 4
    assert err == (
        "nonpaving: resource limit: 8^4800 assignments exceed the budget of 16777216\n"
    )
    assert not out.exists()


def test_certify_refused_allocation_is_exit_4(tmp_path, capsys):
    """10**15 draws of 16 labels need 114 PiB, more than any address space
    holds, so the allocation is refused before anything is written."""
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "certify", "--r", "2", "--n", "4", "--mode", "sampled",
                       "--count", str(10**15), "--out", str(out))
    assert code == 4
    assert err.startswith("nonpaving: resource limit: ")
    assert not out.exists()


_PAST_INTP = str(10**20)  # above 2^63 - 1: numpy could never index these sizes


@pytest.mark.parametrize("argv", [
    ["build", "--r", "2", "--n", _PAST_INTP, "--out", "fam"],
    ["verify", "--r", "2", "--n", _PAST_INTP, "--out", "report.json"],
    ["double", "--r", "2", "--n", _PAST_INTP, "--k", "1", "--out", "dbl"],
    ["certify", "--r", "2", "--n", _PAST_INTP, "--mode", "sampled", "--out", "c.json"],
    ["certify", "--r", "2", "--n", "1", "--mode", "sampled", "--count", str(10**19),
     "--out", "c.json"],
], ids=["build", "verify", "double", "certify-n", "certify-count"])
def test_size_past_numpy_index_range_is_exit_4(tmp_path, capsys, monkeypatch, argv):
    """numpy raises ValueError, not MemoryError, for sizes past intp; they are
    refused before anything is allocated or written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("nonpaving: resource limit: a ")
    assert err.endswith(" is past numpy's index range\n")
    assert list(tmp_path.iterdir()) == []


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


def test_certify_internal_check_failure_is_exit_3(tmp_path, capsys, monkeypatch,
                                                  perturbed_family):
    """A family 1e-10 off the block structure, given to certify in place of
    the built (2, 3) family, fails the structure check in both modes."""
    import nonpaving.cli as cli

    monkeypatch.setattr(cli, "build_nonpavable_general", lambda r, n: perturbed_family)
    out = tmp_path / "c.json"
    for mode in (["exhaustive"], ["sampled", "--count", "50", "--seed", "1"]):
        code, _, err = run(capsys, "certify", "--r", "2", "--n", "3", "--mode", *mode,
                           "--out", str(out))
        assert code == 3
        assert err.startswith("nonpaving: internal check failed: block 1 rows differ ")
        assert not out.exists()


@pytest.mark.parametrize("argv,csv_pin,json_pin", [
    (["build", "--r", "3", "--n", "2"], "build_r3_n2.csv", "sidecar_r3_n2.json"),
    (["double", "--r", "2", "--n", "2", "--k", "3", "--seed", "0"],
     "double_r2_n2_k3.csv", "double_r2_n2_k3.json"),
], ids=["build-r3-n2", "double-r2-n2-k3"])
def test_matrix_file_bytes_unchanged(tmp_path, capsys, argv, csv_pin, json_pin):
    """The matrix CSV and its JSON companion, byte for byte, as recorded
    before the writer deduplicated entries by their 64-bit halves."""
    prefix = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--out", str(prefix))
    assert code == 0
    assert (tmp_path / "out.csv").read_bytes() == (DATA / csv_pin).read_bytes()
    assert (tmp_path / "out.json").read_bytes() == (DATA / json_pin).read_bytes()


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


@pytest.mark.parametrize("name, value, check, key, shape", [
    ("gram_block_residual", lambda doubled, seed: 1.0, "gram-block-structure",
     "gram_offblock_residual", (16, 8)),
    ("restriction_identity_residual", lambda doubled, seed, probes: 1.0,
     "restriction-identity", "restriction_identity_residual", (16, 8)),
    # the seed itself as the "doubled" family: its entries are 2^(1/2) times too large
    ("doubled_family", lambda seed, steps, entry_budget: seed, "entry-bound", None, (8, 4)),
], ids=["gram-block-structure", "restriction-identity", "entry-bound"])
def test_double_failed_check_is_exit_3_and_still_writes(tmp_path, capsys, monkeypatch,
                                                        name, value, check, key, shape):
    import nonpaving.cli as cli

    monkeypatch.setattr(cli, name, value)
    prefix = tmp_path / "d"
    code, out, err = run(capsys, "double", "--r", "2", "--n", "2", "--k", "1",
                         "--out", str(prefix))
    assert code == 3
    assert err == f"doubling checks failed: {check}\n"
    assert out == f"wrote {prefix}.csv\nwrote {prefix}.json\n"
    assert read_matrix_csv(f"{prefix}.csv").shape == shape
    report = json.loads((tmp_path / "d.json").read_text())
    if key is not None:
        assert report[key] == 1.0
    else:
        assert report["max_entry"] > report["max_entry_bound"]
    assert report["failed_checks"] == [check]
    assert report["passed"] is False


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


def test_double_count_too_long_to_print_is_exit_4(tmp_path, capsys):
    """2^20000 copies in each direction: refused by the step count alone."""
    code, _, err = run(capsys, "double", "--r", "2", "--n", "1", "--k", "20000",
                       "--out", str(tmp_path / "big"))
    assert code == 4
    assert err == (
        "nonpaving: resource limit: doubled family would hold 8*4^20000 entries, "
        "over the budget of 16777216\n"
    )
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv,pin", [
    (["--r", "2", "--n-list", "1,2,3,4,5"], "sweep_r2_n1-5.csv"),
    (["--r", "3", "--n-list", "1,2", "--budget", "400000000"], "sweep_r3_n1-2_budget4e8.csv"),
], ids=["r2-n1-5", "r3-n1-2"])
def test_sweep_bytes_unchanged(tmp_path, capsys, argv, pin):
    """The table byte for byte, as written when the search result stored its
    value beside its part bounds: r = 2 leaves n = 5 blank under the default
    budget, and (3, 2) fills in 0.34054302431686606 under a larger one."""
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "sweep", *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / pin).read_bytes()


def test_sweep_r3_best_column_blank_when_over_budget(capsys):
    code, out, _ = run(capsys, "sweep", "--r", "3", "--n-list", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,delta_1,delta_2,delta_3,best_min_part_riesz"
    for line in lines[1:]:
        assert line.endswith(",")  # 3^(9n) assignments never fit 2^16


def test_sweep_huge_n_leaves_best_blank_without_forming_the_count():
    """3^90000000 is never formed: the budget rule refuses it by bit length."""
    proc = subprocess.run(
        [sys.executable, "-m", "nonpaving", "sweep", "--r", "3", "--n-list", "10000000"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == "n,delta_1,delta_2,delta_3,best_min_part_riesz"
    assert row.startswith("10000000,") and row.endswith(",")


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


# ---------------------------------------------------------------------------
# single-flag usage errors and per-subcommand help
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["build", "--r", "1", "--n", "2"], "r must be >= 2"),
    (["verify", "--r", "1", "--n", "2"], "r must be >= 2"),
    (["certify", "--r", "1", "--n", "2"], "r must be >= 2"),
    (["double", "--r", "1", "--n", "2", "--k", "1"], "r must be >= 2"),
    (["sweep", "--r", "1", "--n-list", "1"], "r must be >= 2"),
    (["build", "--r", "2", "--n", "0"], "n must be >= 1"),
    (["double", "--r", "2", "--n", "1", "--k", "-1"], "doubling steps must be >= 0"),
    (["certify", "--r", "2", "--n", "1", "--mode", "sampled", "--count", "0"],
     "--count must be >= 1"),
    (["certify", "--r", "2", "--n", "1", "--budget", "0"], "--budget must be positive"),
    (["sweep", "--r", "2", "--n-list", "1", "--budget", "0"], "--budget must be positive"),
    (["double", "--r", "2", "--n", "1", "--k", "1", "--entry-budget", "0"],
     "--entry-budget must be positive"),
    (["verify", "--r", "2", "--n", "1", "--tol-construct", "0"],
     "tolerances must be positive"),
    (["verify", "--r", "2", "--n", "1", "--tol-eig", "nan"], "tolerances must be positive"),
    (["sweep", "--r", "2", "--n-list", "0"], "--n-list values must be >= 1"),
    (["build", "--r", "two", "--n", "1"], "invalid int value: 'two'"),
    (["verify", "--r", "2", "--n", "1", "--tol-eig", "tiny"], "invalid float value: 'tiny'"),
    (["verify", "--r", "2", "--n", "1", "--tol-eig", "inf"],
     "tolerances must be positive and finite"),
])
def test_single_flag_range_error_is_exit_1(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert message in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub, flags", [
    ("build", ["--r", "--n", "--out"]),
    ("verify", ["--in", "--r", "--n", "--out", "--tol-construct", "--tol-eig"]),
    ("certify", ["--r", "--n", "--mode", "--count", "--seed", "--budget", "--out"]),
    ("double", ["--r", "--n", "--k", "--seed", "--entry-budget", "--out"]),
    ("sweep", ["--r", "--n-list", "--budget", "--out"]),
])
def test_subcommand_help_lists_its_flags(sub, flags):
    proc = subprocess.run(
        [sys.executable, "-m", "nonpaving", sub, "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for flag in flags:
        assert flag in proc.stdout, flag
