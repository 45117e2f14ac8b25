"""The walk's per-part eigensolve, `_eig_min`, against np.linalg.eigvalsh.

`_eig_min` calls numpy's LAPACK gufunc `eigvalsh_lo` directly, resolved once
at import, with np.linalg.eigvalsh standing in where numpy lacks that private
name. Both paths must give the wrapper's bits, the same search and the same
certificate bytes, and a LAPACK failure must raise LinAlgError on both, never
leave a NaN in a part bound.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import nonpaving.paving_analysis as pa
from nonpaving import build_nonpavable_general, gram, riesz_lower_bound
from nonpaving.cli import main

DATA = Path(__file__).parent / "data"


def wrapper_min(H):
    return float(np.linalg.eigvalsh(H)[0])


def test_direct_path_is_resolved_here():
    assert pa._eigvalsh_lo is _umath_linalg.eigvalsh_lo


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", range(1, 13))
def test_random_parts_get_the_wrappers_bits(size, seed):
    rng = np.random.default_rng(1000 * seed + size)
    A = rng.normal(size=(size, size + 2)) + 1j * rng.normal(size=(size, size + 2))
    G = A @ A.conj().T
    idx = sorted(rng.permutation(size))
    H = G.take(idx, 0).take(idx, 1)
    assert pa._eig_min(H).hex() == wrapper_min(H).hex()


@pytest.mark.parametrize("r, n, nodes", [(2, 3, 60), (3, 1, 75)])
def test_every_walked_part_gets_the_wrappers_bits(r, n, nodes, monkeypatch):
    family = build_nonpavable_general(r, n)
    real = pa._eig_min
    solved = []

    def recording(H):
        value = real(H)
        solved.append((H, value))
        return value

    monkeypatch.setattr(pa, "_eig_min", recording)
    pa._partition_search(gram(family.vectors), r, family=family, dim=family.dim)
    assert len(solved) == nodes
    assert [value.hex() for _, value in solved] == [wrapper_min(H).hex() for H, _ in solved]


def search_fields(r, n):
    family = build_nonpavable_general(r, n)
    result = pa._partition_search(gram(family.vectors), r, family=family, dim=family.dim)
    bounds = tuple(None if b is None else b.hex() for b in result.part_bounds)
    return (result.partition.parts, bounds, result.nodes, result.eigensolves, result.rejected,
            result.rank_cut, result.map_checks)


@pytest.mark.parametrize("r, n", [(2, 2), (2, 3), (3, 1), (3, 2)])
def test_fallback_search_is_identical(r, n, monkeypatch):
    direct = search_fields(r, n)
    monkeypatch.setattr(pa, "_eigvalsh_lo", np.linalg.eigvalsh)
    assert search_fields(r, n) == direct


@pytest.mark.parametrize("path", ["direct", "fallback"])
@pytest.mark.parametrize("n", [3, 4])
def test_certificate_bytes_on_both_paths(path, n, tmp_path, capsys, monkeypatch):
    if path == "fallback":
        monkeypatch.setattr(pa, "_eigvalsh_lo", np.linalg.eigvalsh)
    out = tmp_path / "c.json"
    assert main(["certify", "--r", "2", "--n", str(n), "--mode", "exhaustive",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"cert_r2_n{n}_exhaustive.json").read_bytes()


def test_import_falls_back_without_the_private_gufunc():
    """With numpy.linalg._umath_linalg unimportable, the wrapper is the name."""
    code = (
        "import sys, numpy as np\n"
        "sys.modules['numpy.linalg._umath_linalg'] = None\n"
        "import nonpaving.paving_analysis as pa\n"
        "from nonpaving import best_partition_riesz, build_nonpavable_general\n"
        "assert pa._eigvalsh_lo is np.linalg.eigvalsh\n"
        "print(best_partition_riesz(build_nonpavable_general(2, 2), 2)[1].hex())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    family = build_nonpavable_general(2, 2)
    assert proc.stdout.strip() == pa.best_partition_riesz(family, 2)[1].hex()


def failing_gufunc(a, *args, **kwargs):
    """What umath_linalg does when LAPACK does not converge: NaN eigenvalues
    and the floating-point invalid flag, raised under the caller's errstate."""
    np.sqrt(np.full(1, -1.0))
    return np.full(a.shape[:-1], np.nan)


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}, {"all": "ignore"}],
                         ids=["default", "raise", "ignore"])
@pytest.mark.parametrize("path", ["direct", "fallback"])
def test_nonconvergence_raises_linalgerror(path, errstate, monkeypatch):
    """The walk (no family, so no stacked incumbent solve comes first) and
    riesz_lower_bound both raise LinAlgError, with no warning, whatever the
    caller's errstate."""
    family = build_nonpavable_general(2, 2)  # its tightness check calls eigvalsh too
    G = gram(family.vectors)
    if path == "direct":
        monkeypatch.setattr(pa, "_eigvalsh_lo", failing_gufunc)
    else:
        monkeypatch.setattr(pa, "_eigvalsh_lo", np.linalg.eigvalsh)
        monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", failing_gufunc)
    with warnings.catch_warnings(), np.errstate(**errstate):
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            pa._partition_search(G, 2)
        with pytest.raises(np.linalg.LinAlgError):
            riesz_lower_bound(family, [0, 1, 2])
