"""Command line interface.

Subcommands: build, verify, certify, double, sweep. Exit codes are part of
the contract: 0 success, 1 usage error, 2 I/O or parse error, 3 verification,
certification or internal check failure, 4 resource budget exceeded. All
numbers written to files carry 17 significant digits and repeated runs with
identical flags and seeds produce byte-identical files.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constructions import (
    DEFAULT_ENTRY_BUDGET,
    build_nonpavable_general,
    delta_schedule,
    doubled_family,
    gram_block_residual,
    restriction_identity_residual,
    sidecar_dict,
)
from .errors import (
    CertificationError,
    InternalInconsistencyError,
    MatrixParseError,
    ResourceLimitError,
)
from .frame_ops import FrameFamily, is_tight_frame
from .matrix_core import (
    col_square_sums,
    column_orthogonality_defect,
    gram,
    read_matrix_csv,
    row_square_sums,
    write_matrix_csv,
)
from .paving_analysis import (
    DEFAULT_ASSIGNMENT_BUDGET,
    best_partition_riesz,
    certify_nonpavable,
)
from .serialize import dumps_json, format_real

__all__ = ["RunConfig", "main", "console_entry"]

DEFAULT_TOL_CONSTRUCT = 1e-10
DEFAULT_TOL_EIG = 1e-8
# Sweeps are meant to be interactive; exhaustive best-value search is only
# attempted for sizes whose full enumeration stays under this many
# assignments (raise with --budget for bigger exact sweeps).
DEFAULT_SWEEP_BUDGET = 1 << 16

_RESTRICTION_SAMPLES = 100


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments for one CLI invocation."""

    command: str
    r: int | None = None
    n: int | None = None
    steps: int | None = None
    mode: str | None = None
    count: int | None = None
    seed: int = 0
    budget: int = DEFAULT_ASSIGNMENT_BUDGET
    entry_budget: int = DEFAULT_ENTRY_BUDGET
    tol_construct: float = DEFAULT_TOL_CONSTRUCT
    tol_eig: float = DEFAULT_TOL_EIG
    input_path: str | None = None
    out: str | None = None
    n_list: tuple[int, ...] = ()


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for I/O
    # and parse failures here, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nonpaving",
        description=(
            "Build stacked rescaled-DFT tight frames, verify their structure, "
            "and certify that no r-part partition keeps a uniform Riesz bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an (r, n) family; write matrix CSV + JSON sidecar")
    p.add_argument("--r", type=int, required=True, help="number of DFT blocks (>= 2)")
    p.add_argument("--n", type=int, required=True, help="band size parameter (>= 1)")
    p.add_argument("--out", help="output prefix (default family_r{r}_n{n})")

    p = sub.add_parser("verify", help="check unit rows, tightness, and the projection bridge")
    p.add_argument("--in", dest="input_path", help="matrix CSV to verify")
    p.add_argument("--r", type=int, help="build this r in memory instead of reading a file")
    p.add_argument("--n", type=int, help="build this n in memory instead of reading a file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--tol-construct", type=float, default=DEFAULT_TOL_CONSTRUCT)
    p.add_argument("--tol-eig", type=float, default=DEFAULT_TOL_EIG)

    p = sub.add_parser("certify", help="certify the family over partitions; write a certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--count", type=int, help="partitions to draw in sampled mode (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (sampled mode)")
    p.add_argument("--budget", type=int, default=DEFAULT_ASSIGNMENT_BUDGET,
                   help="max assignments for exhaustive mode")
    p.add_argument("--out", help="certificate path (default certificate_r{r}_n{n}.json)")

    p = sub.add_parser("double", help="apply the doubling map K times; write matrix + report")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", dest="steps", type=int, required=True, help="doubling steps (>= 0)")
    p.add_argument("--seed", type=int, default=0, help="seed for restriction-identity probes")
    p.add_argument("--entry-budget", type=int, default=DEFAULT_ENTRY_BUDGET)
    p.add_argument("--out", help="output prefix (default doubled_r{r}_n{n}_k{K})")

    p = sub.add_parser("sweep", help="tabulate deltas (and exact best bounds when cheap) over n")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-list", required=True,
                   help="comma-separated n values, e.g. 1,2,3,4 (may be empty)")
    p.add_argument("--budget", type=int, default=DEFAULT_SWEEP_BUDGET,
                   help="max assignments for the exact best-value column")
    p.add_argument("--out", help="write the CSV table here instead of stdout")

    return parser


def _parse_n_list(text: str) -> tuple[int, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    try:
        values = tuple(int(t) for t in items)
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise ValueError("--n-list values must be >= 1")
    return values


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    r = getattr(ns, "r", None)
    n = getattr(ns, "n", None)
    input_path = getattr(ns, "input_path", None)

    if command == "verify":
        if input_path is None and (r is None or n is None):
            raise ValueError("verify needs --in FILE or both --r and --n")
        if input_path is not None and (r is not None or n is not None):
            raise ValueError("verify takes --in or --r/--n, not both")
    if r is not None and r < 2:
        raise ValueError("r must be >= 2")
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")

    steps = getattr(ns, "steps", None)
    if steps is not None and steps < 0:
        raise ValueError("doubling steps must be >= 0")

    mode = getattr(ns, "mode", None)
    count = getattr(ns, "count", None)
    if command == "certify":
        if mode == "sampled" and count is None:
            count = 1000
        if mode == "exhaustive" and count is not None:
            raise ValueError("--count applies only to sampled mode")
        if count is not None and count < 1:
            raise ValueError("--count must be >= 1")

    seed = getattr(ns, "seed", 0)
    if seed < 0 and (command == "double" or mode == "sampled"):
        raise ValueError("--seed must be >= 0")

    budget = getattr(ns, "budget", DEFAULT_ASSIGNMENT_BUDGET)
    if budget < 1:
        raise ValueError("--budget must be positive")
    entry_budget = getattr(ns, "entry_budget", DEFAULT_ENTRY_BUDGET)
    if entry_budget < 1:
        raise ValueError("--entry-budget must be positive")

    tol_construct = getattr(ns, "tol_construct", DEFAULT_TOL_CONSTRUCT)
    tol_eig = getattr(ns, "tol_eig", DEFAULT_TOL_EIG)
    if not (tol_construct > 0 and tol_eig > 0):
        raise ValueError("tolerances must be positive")

    n_list: tuple[int, ...] = ()
    if command == "sweep":
        n_list = _parse_n_list(ns.n_list)

    return RunConfig(
        command=command,
        r=r,
        n=n,
        steps=steps,
        mode=mode,
        count=count,
        seed=seed,
        budget=budget,
        entry_budget=entry_budget,
        tol_construct=tol_construct,
        tol_eig=tol_eig,
        input_path=input_path,
        out=getattr(ns, "out", None),
        n_list=n_list,
    )


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_build(cfg: RunConfig) -> int:
    family = build_nonpavable_general(cfg.r, cfg.n)
    prefix = cfg.out or f"family_r{cfg.r}_n{cfg.n}"
    matrix_path, sidecar_path = f"{prefix}.csv", f"{prefix}.json"
    write_matrix_csv(family.vectors, matrix_path)
    _write_text(sidecar_path, dumps_json(sidecar_dict(family)))
    print(f"wrote {matrix_path}")
    print(f"wrote {sidecar_path}")
    return 0


def _verification_report(matrix, tol_construct: float, tol_eig: float) -> tuple[dict, list]:
    failed: list[str] = []
    rows = row_square_sums(matrix)
    cols = col_square_sums(matrix)
    defect = column_orthogonality_defect(matrix)

    if float(np.max(np.abs(rows - 1.0))) > tol_construct:
        failed.append("row-square-sums")
    col_mean = float(np.mean(cols))
    if float(np.max(np.abs(cols - col_mean))) > tol_construct:
        failed.append("column-square-sums")
    if defect > tol_construct:
        failed.append("column-orthogonality")

    family = FrameFamily(matrix)
    try:
        tight = is_tight_frame(family, tol_eig)
    except InternalInconsistencyError:
        tight = None
    if tight is None:
        failed.append("tightness")

    projection_check = None
    if tight is not None and tight > 0:
        P = gram(np.asarray(matrix) / math.sqrt(tight))
        idem = float(np.max(np.abs(P @ P - P)))
        trace = float(np.trace(P).real)
        rank = round(trace)
        diag = np.diag(P).real
        diag_mean = float(np.mean(diag))
        diag_dev = float(np.max(np.abs(diag - 1.0 / tight)))
        if idem > tol_eig:
            failed.append("projection-idempotency")
        if diag_dev > tol_construct:
            failed.append("projection-diagonal")
        if abs(trace - rank) > 1e-6 or rank != matrix.shape[1]:
            failed.append("projection-rank")
        projection_check = {
            "idempotency_residual": idem,
            "diag": diag_mean,
            "diag_deviation": diag_dev,
            "rank": int(rank),
            "trace": trace,
        }

    report = {
        "orthogonality_defect": defect,
        "row_sums": [float(x) for x in rows],
        "col_sums": [float(x) for x in cols],
        "tight_constant": tight,
        "projection_check": projection_check,
        "failed_checks": list(failed),
        "passed": not failed,
    }
    return report, failed


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.input_path is not None:
        matrix = read_matrix_csv(cfg.input_path)
    else:
        matrix = build_nonpavable_general(cfg.r, cfg.n).vectors
    report, failed = _verification_report(matrix, cfg.tol_construct, cfg.tol_eig)
    text = dumps_json(report)
    if cfg.out:
        _write_text(cfg.out, text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    if failed:
        print("verification failed: " + ", ".join(failed), file=sys.stderr)
        return 3
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    family = build_nonpavable_general(cfg.r, cfg.n)
    summary = certify_nonpavable(
        family, cfg.mode, count=cfg.count, seed=cfg.seed, budget=cfg.budget
    )
    out = cfg.out or f"certificate_r{cfg.r}_n{cfg.n}.json"
    _write_text(out, dumps_json(summary.to_json_dict()))
    print(f"wrote {out}")
    print(
        f"certified r={cfg.r} n={cfg.n} over {summary.partitions_checked} partitions; "
        f"worst min-part bound {format_real(summary.worst_min_part_bound)}"
        + (" (vacuous: every delta is 1)" if summary.vacuous else "")
    )
    return 0


def cmd_double(cfg: RunConfig) -> int:
    seed_family = build_nonpavable_general(cfg.r, cfg.n)
    doubled = doubled_family(seed_family, cfg.steps, entry_budget=cfg.entry_budget)

    seed_max = float(np.max(np.abs(seed_family.vectors)))
    max_entry = float(np.max(np.abs(doubled.vectors)))
    entry_bound = 2.0 ** (-cfg.steps / 2.0) * seed_max
    offblock = gram_block_residual(doubled, seed_family)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    M = seed_family.count
    probes = rng.standard_normal((_RESTRICTION_SAMPLES, M)) + 1j * rng.standard_normal(
        (_RESTRICTION_SAMPLES, M)
    )
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    restriction = restriction_identity_residual(doubled, seed_family, probes)

    failed: list[str] = []
    if max_entry > entry_bound + 1e-12:
        failed.append("entry-bound")
    if offblock > 1e-12:
        failed.append("gram-block-structure")
    if restriction > 1e-10:
        failed.append("restriction-identity")

    prefix = cfg.out or f"doubled_r{cfg.r}_n{cfg.n}_k{cfg.steps}"
    matrix_path, report_path = f"{prefix}.csv", f"{prefix}.json"
    write_matrix_csv(doubled.vectors, matrix_path)
    report = {
        "r": cfg.r,
        "n": cfg.n,
        "steps": cfg.steps,
        "rows": doubled.count,
        "cols": doubled.dim,
        "max_entry": max_entry,
        "max_entry_bound": entry_bound,
        "gram_offblock_residual": offblock,
        "restriction_identity_residual": restriction,
        "probe_seed": cfg.seed,
        "failed_checks": list(failed),
        "passed": not failed,
    }
    _write_text(report_path, dumps_json(report))
    print(f"wrote {matrix_path}")
    print(f"wrote {report_path}")
    if failed:
        print("doubling checks failed: " + ", ".join(failed), file=sys.stderr)
        return 3
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    header = ["n"] + [f"delta_{k}" for k in range(1, cfg.r + 1)] + ["best_min_part_riesz"]
    lines = [",".join(header)]
    for n in cfg.n_list:
        schedule = delta_schedule(cfg.r, n)
        best = ""
        if cfg.r ** (cfg.r * cfg.r * n) <= cfg.budget:
            family = build_nonpavable_general(cfg.r, n)
            _, value = best_partition_riesz(family, cfg.r, budget=cfg.budget)
            best = format_real(value)
        lines.append(
            ",".join([str(n)] + [format_real(d) for d in schedule.deltas] + [best])
        )
    text = "\n".join(lines) + "\n"
    if cfg.out:
        _write_text(cfg.out, text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "double": cmd_double,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # remapped usage errors and --help
        return int(exc.code or 0)
    try:
        cfg = _config_from_namespace(ns)
    except ValueError as exc:
        print(f"nonpaving: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[cfg.command](cfg)
    except MatrixParseError as exc:
        print(f"nonpaving: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nonpaving: i/o error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"nonpaving: certification failed: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"nonpaving: internal check failed: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"nonpaving: resource limit: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())
