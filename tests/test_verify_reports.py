"""Byte-pinned `verify` reports.

Each case runs `nonpaving verify ... --out FILE` and compares FILE byte for
byte with tests/data/verify_<case>.json, and checks the exit code: 0 when
every check passes, 3 when one fails. The cases cover a file and in-memory
families, a matrix that is not tight (no projection check), a tight family
with non-unit rows (projection diagonal fails) and a perturbed family at
default and tight tolerances.
"""

from pathlib import Path

import numpy as np
import pytest

from nonpaving import build_nonpavable_general, dft_matrix, write_matrix_csv
from nonpaving.cli import _verification_report, main

DATA = Path(__file__).parent / "data"


def _perturbed_r2_n2():
    m = np.array(build_nonpavable_general(2, 2).vectors)
    m[0, 0] += 1e-9
    return m


def _random_6x3():
    rng = np.random.default_rng(6)
    return rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))


# name -> (matrix written to a CSV for --in, or None; extra argv; exit code)
CASES = {
    "csv_r3_n2": (lambda: build_nonpavable_general(3, 2).vectors, [], 0),
    "random_6x3": (_random_6x3, [], 3),
    "eye3_zero_row": (lambda: np.vstack([np.eye(3), np.zeros((1, 3))]), [], 3),
    "perturbed_r2_n2": (_perturbed_r2_n2, [], 3),
    "perturbed_r2_n2_tight_tol": (
        _perturbed_r2_n2, ["--tol-construct", "1e-12", "--tol-eig", "1e-12"], 3,
    ),
    "stacked_dft4": (lambda: np.vstack([dft_matrix(4), dft_matrix(4)]), [], 0),
    "mem_r2_n1": (None, ["--r", "2", "--n", "1"], 0),
    "mem_r2_n3": (None, ["--r", "2", "--n", "3"], 0),
    "mem_r3_n2": (None, ["--r", "3", "--n", "2"], 0),
    "mem_r4_n2": (None, ["--r", "4", "--n", "2"], 0),
}


def run_case(name, workdir: Path, out: Path) -> int:
    """Run case `name` with inputs under `workdir`; write its report to `out`."""
    make_matrix, extra, _ = CASES[name]
    argv = ["verify", *extra, "--out", str(out)]
    if make_matrix is not None:
        path = workdir / f"{name}.csv"
        write_matrix_csv(make_matrix(), path)
        argv += ["--in", str(path)]
    return main(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_case(name, tmp_path, out)
    _, err = capsys.readouterr()
    assert code == CASES[name][2]
    assert ("verification failed" in err) == (code == 3)
    assert out.read_bytes() == (DATA / f"verify_{name}.json").read_bytes()


def test_verification_report_peak_memory_is_near_its_projection(traced_peak):
    """The 1024 x 1024 P of the (8, 16) family (16 MiB), then one 4 MiB
    panel of P^2 - P and its moduli: about 1.4 P sizes, where a second
    Hermitized buffer in gram and the whole P @ P - P held 2.5."""
    matrix = build_nonpavable_general(8, 16).vectors
    p_bytes = 16 * matrix.shape[0] ** 2
    peak = traced_peak(lambda: _verification_report(matrix, 1e-10, 1e-8))
    assert peak <= 1.5 * p_bytes
