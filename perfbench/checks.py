"""Output-correctness checks for the benchmark jobs, using numpy alone.

Every check rebuilds what it needs from the defining formulas rather than
from `nonpaving`, so a bug in the package cannot vouch for itself. Each
check returns a list of problems; an empty list means the output is correct.
"""

import json
import math
from pathlib import Path

import numpy as np

# Best min-part Riesz bound of the (2, 2) family: worse than delta_1 = 2/3.
BEST_R2_N2 = 0.42264973081037427
# Slack the certifier allows on its bounds, and how close recomputed values
# must come to the stored ones.
CERT_SLACK = 1e-8
RECOMPUTE_TOL = 1e-10
MATRIX_TOL = 1e-12


def deltas(r: int, n: int) -> list[float]:
    """delta_k = r^2 n / (((r-k+1) n + k - 1) ((r-k) n + k)), k = 1..r."""
    return [r * r * n / (((r - k + 1) * n + k - 1) * ((r - k) * n + k)) for k in range(1, r + 1)]


def rebuild(r: int, n: int) -> np.ndarray:
    """The r^2 n x r n stacked rescaled-DFT matrix, from its definition."""
    d = deltas(r, n)
    m = r * n
    jk = np.outer(np.arange(m), np.arange(m)) % m
    dft = (np.cos(2 * np.pi * jk / m) + 1j * np.sin(2 * np.pi * jk / m)) / math.sqrt(m)
    blocks = []
    for k in range(1, r + 1):
        zero = (k - 1) * (n - 1)
        w = np.zeros(m)
        if k < r:
            w[zero:zero + n - 1] = math.sqrt(r - r * (k - 1) / ((r - k + 1) * n + k - 1))
            w[zero + n - 1:] = math.sqrt(d[k - 1])
        else:
            w[zero:] = math.sqrt(d[r - 1])
        blocks.append(dft * w)
    return np.vstack(blocks)


def doubled(v: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        v = np.block([[v, v], [v, -v]]) / math.sqrt(2.0)
    return v


def read_csv_matrix(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        rows, cols = (int(t) for t in f.readline().lstrip("#").split())
    m = np.loadtxt(path, dtype=complex, delimiter=",", comments="#", ndmin=2)
    if m.shape != (rows, cols):
        raise ValueError(f"header says {rows} x {cols}, body is {m.shape}")
    return m


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_certificate(cert: dict, r: int, n: int, mode: str, count: int | None) -> list[str]:
    """Problems with a certificate written by `nonpaving certify`."""
    problems = []
    d = deltas(r, n)
    if cert.get("passed") is not True:
        problems.append("passed is not true")
    if cert.get("family") != {"r": r, "n": n}:
        problems.append(f"family {cert.get('family')} is not r={r}, n={n}")
    expected = r ** (r * r * n) if mode == "exhaustive" else count
    if cert.get("partitions_checked") != expected:
        problems.append(f"partitions_checked {cert.get('partitions_checked')} != {expected}")
    if any(not _close(a, b, 1e-15 * b) for a, b in zip(cert["bound_delta"], d)):
        problems.append("bound_delta does not match the delta schedule")
    worst = cert["worst_min_part_bound"]
    if worst > max(d[: r - 1]) + CERT_SLACK:
        problems.append(f"worst bound {worst} above max delta_1..delta_(r-1)")

    V = rebuild(r, n)
    M = V.shape[0]
    parts = cert["partition"]
    if len(parts) != r or sorted(i for p in parts for i in p) != list(range(M)):
        return problems + ["partition does not split 0..M-1 into r parts"]
    bounds = []
    for p, stored in zip(parts, cert["per_part_bounds"]):
        if not p:
            if stored is not None:
                problems.append("empty part has a bound")
            continue
        rows = V[p]
        lam = float(np.linalg.eigvalsh(rows @ rows.conj().T)[0])
        bounds.append(lam)
        if stored is None or not _close(lam, stored, RECOMPUTE_TOL):
            problems.append(f"part bound {stored} != recomputed {lam}")
    if bounds and not _close(min(bounds), worst, RECOMPUTE_TOL):
        problems.append(f"worst bound {worst} != smallest part bound {min(bounds)}")

    wit = cert["witness"]
    if wit is None:
        return problems + ["certificate has no witness"]
    k, j, idx = wit["k"], wit["j"], wit["indices"]
    c = np.array([complex(re, im) for re, im in wit["coefficients"]])
    lo, hi = (k - 1) * r * n, k * r * n
    if not 1 <= k <= r - 1 or not 0 <= j < r:
        return problems + [f"witness block {k} or part {j} out of range"]
    if len(idx) < n or len(c) != len(idx):
        problems.append("witness needs at least n indices, one coefficient each")
    elif not set(idx) <= set(parts[j]) or not all(lo <= i < hi for i in idx):
        problems.append(f"witness indices are not rows of block {k} in part {j}")
    elif not _close(float(np.linalg.norm(c)), 1.0, 1e-12):
        problems.append("witness coefficients are not a unit vector")
    else:
        achieved = float(np.sum(np.abs(c @ V[idx]) ** 2))
        if not _close(achieved, wit["achieved"], RECOMPUTE_TOL):
            problems.append(f"witness achieved {wit['achieved']} != recomputed {achieved}")
        if achieved > d[k - 1] + CERT_SLACK:
            problems.append(f"witness achieved {achieved} above delta_{k} = {d[k - 1]}")
    return problems


def check_sweep(text: str, r: int, n_list: list[int]) -> list[str]:
    """Problems with the CSV table written by `nonpaving sweep`."""
    lines = text.splitlines()
    header = ["n"] + [f"delta_{k}" for k in range(1, r + 1)] + ["best_min_part_riesz"]
    if not lines or lines[0].split(",") != header or len(lines) != len(n_list) + 1:
        return ["sweep table has the wrong header or row count"]
    problems = []
    for n, line in zip(n_list, lines[1:]):
        cells = line.split(",")
        d = deltas(r, n)
        if cells[0] != str(n) or any(
                not _close(float(a), b, 1e-15 * b) for a, b in zip(cells[1:-1], d)):
            problems.append(f"row n={n}: wrong n or deltas")
            continue
        if not cells[-1]:
            problems.append(f"row n={n}: no exact best value")
            continue
        best = float(cells[-1])
        target = BEST_R2_N2 if (r, n) == (2, 2) else d[0]
        if best > d[0] + CERT_SLACK or (n >= 2 and not _close(best, target, 1e-12)):
            problems.append(f"row n={n}: best {best} not within 1e-12 of {target}")
    return problems


def check_family_csv(path: Path, expected: np.ndarray) -> list[str]:
    try:
        m = read_csv_matrix(path)
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    if m.shape != expected.shape:
        return [f"{path.name}: shape {m.shape} != {expected.shape}"]
    err = float(np.max(np.abs(m - expected)))
    return [] if err <= MATRIX_TOL else [f"{path.name}: differs from the rebuilt matrix by {err}"]


def check_build(work: Path, prefix: str, r: int, n: int) -> list[str]:
    problems = check_family_csv(work / f"{prefix}.csv", rebuild(r, n))
    side = json.loads((work / f"{prefix}.json").read_text())
    if side["r"] != r or side["n"] != n or any(
            not _close(a, b, 1e-15 * b) for a, b in zip(side["deltas"], deltas(r, n))):
        problems.append("sidecar r, n or deltas are wrong")
    return problems


def check_verify(report: dict, r: int, n: int) -> list[str]:
    proj = report.get("projection_check") or {}
    if (report.get("passed") is not True or report.get("failed_checks")
            or not _close(report.get("tight_constant") or 0.0, r, CERT_SLACK)
            or proj.get("rank") != r * n or not _close(proj.get("diag", 0.0), 1 / r, 1e-10)
            or len(report["row_sums"]) != r * r * n
            or not all(_close(s, 1.0, 1e-10) for s in report["row_sums"])):
        return ["verify report does not show a unit-norm r-tight family"]
    return []


def check_double(work: Path, prefix: str, r: int, n: int, steps: int, seed: int) -> list[str]:
    problems = check_family_csv(work / f"{prefix}.csv", doubled(rebuild(r, n), steps))
    rep = json.loads((work / f"{prefix}.json").read_text())
    rows, cols = r * r * n << steps, r * n << steps
    if (rep.get("passed") is not True or (rep["rows"], rep["cols"]) != (rows, cols)
            or rep["steps"] != steps or rep["probe_seed"] != seed
            or rep["max_entry"] > rep["max_entry_bound"] + 1e-12):
        problems.append("doubling report is wrong")
    return problems


def check_job(job, work: Path) -> list[str]:
    """Problems with the outputs `job` left in `work`."""
    a = dict(zip(job.argv[1::2], job.argv[2::2]))
    missing = [o for o in job.outputs if not (work / o).is_file()]
    if missing:
        return [f"missing output {o}" for o in missing]
    r = int(a["--r"]) if "--r" in a else None
    n = int(a["--n"]) if "--n" in a else None
    if job.kind == "certify":
        cert = json.loads((work / a["--out"]).read_text())
        count = int(a["--count"]) if "--count" in a else None
        return check_certificate(cert, r, n, a["--mode"], count)
    if job.kind == "sweep":
        return check_sweep((work / a["--out"]).read_text(), r,
                           [int(t) for t in a["--n-list"].split(",")])
    if job.kind == "build":
        return check_build(work, a["--out"], r, n)
    if job.kind == "verify":
        r, n = job.family
        return check_verify(json.loads((work / a["--out"]).read_text()), r, n)
    if job.kind == "double":
        return check_double(work, a["--out"], r, n, int(a["--k"]), int(a["--seed"]))
    return [f"no check for job kind {job.kind!r}"]
