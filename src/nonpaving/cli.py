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
from .frame_ops import (
    CONSTRUCT_TOL,
    FRAME_CONFIRM_TOL,
    _classify_tightness,
    projection_failures,
    projection_numbers,
)
from .matrix_core import (
    _column_pass,
    gram,
    read_matrix_csv,
    row_square_sums,
    write_matrix_csv,
)
from .paving_analysis import (
    DEFAULT_ASSIGNMENT_BUDGET,
    _check_assignment_budget,
    best_partition_riesz,
    certify_nonpavable,
)
from .serialize import dumps_json, format_real

__all__ = ["main", "console_entry"]

_RESTRICTION_SAMPLES = 100

# Built on the first call of `main` and reused: parsing leaves the parser
# unchanged, and a dropped parser is cyclic garbage (about 300 objects) that
# only a full collection frees, which a process running many commands would
# pile up.
_PARSER = None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for I/O
    # and parse failures here, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int, message: str):
    """argparse type: an integer >= low, else a usage error saying `message`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError("tolerances must be positive and finite")
    return value


_positive_float.__name__ = "float"  # keeps argparse's "invalid float value" wording


def _n_list(text: str) -> tuple[int, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    try:
        values = tuple(int(t) for t in items)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n-list must be comma-separated integers, got {text!r}"
        ) from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("--n-list values must be >= 1")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nonpaving",
        description=(
            "Build stacked rescaled-DFT tight frames, verify their structure, "
            "and certify that no r-part partition keeps a uniform Riesz bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    r_type = _int_at_least(2, "r must be >= 2")
    n_type = _int_at_least(1, "n must be >= 1")
    budget_type = _int_at_least(1, "--budget must be positive")

    p = sub.add_parser("build", help="build an (r, n) family; write matrix CSV + JSON sidecar")
    p.add_argument("--r", type=r_type, required=True, help="number of DFT blocks (>= 2)")
    p.add_argument("--n", type=n_type, required=True, help="band size parameter (>= 1)")
    p.add_argument("--out", help="output prefix (default family_r{r}_n{n})")

    p = sub.add_parser("verify", help="check unit rows, tightness, and the projection bridge")
    p.add_argument("--in", dest="input_path", help="matrix CSV to verify")
    p.add_argument("--r", type=r_type, help="build this r in memory instead of reading a file")
    p.add_argument("--n", type=n_type, help="build this n in memory instead of reading a file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--tol-construct", type=_positive_float, default=CONSTRUCT_TOL)
    p.add_argument("--tol-eig", type=_positive_float, default=FRAME_CONFIRM_TOL)

    p = sub.add_parser("certify", help="certify the family over partitions; write a certificate")
    p.add_argument("--r", type=r_type, required=True)
    p.add_argument("--n", type=n_type, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--count", type=_int_at_least(1, "--count must be >= 1"),
                   help="partitions to draw in sampled mode (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (sampled mode)")
    p.add_argument("--budget", type=budget_type, default=DEFAULT_ASSIGNMENT_BUDGET,
                   help="max assignments for exhaustive mode (sampled mode ignores it)")
    p.add_argument("--out", help="certificate path (default certificate_r{r}_n{n}.json)")

    p = sub.add_parser("double", help="apply the doubling map K times; write matrix + report")
    p.add_argument("--r", type=r_type, required=True)
    p.add_argument("--n", type=n_type, required=True)
    p.add_argument("--k", dest="steps", type=_int_at_least(0, "doubling steps must be >= 0"),
                   required=True, help="doubling steps (>= 0)")
    p.add_argument("--seed", type=int, default=0, help="seed for restriction-identity probes")
    p.add_argument("--entry-budget", type=_int_at_least(1, "--entry-budget must be positive"),
                   default=DEFAULT_ENTRY_BUDGET)
    p.add_argument("--out", help="output prefix (default doubled_r{r}_n{n}_k{K})")

    p = sub.add_parser("sweep", help="tabulate deltas (and exact best bounds when cheap) over n")
    p.add_argument("--r", type=r_type, required=True)
    p.add_argument("--n-list", type=_n_list, required=True,
                   help="comma-separated n values, e.g. 1,2,3,4 (may be empty)")
    # Sweeps are meant to be interactive: the exact best-value column is only
    # filled for sizes whose r^M labeled partitions, all covered by the
    # symmetry-reduced search, number at most this budget.
    p.add_argument("--budget", type=budget_type, default=1 << 16,
                   help="max assignments for the exact best-value column")
    p.add_argument("--out", help="write the CSV table here instead of stdout")

    return parser


def _check_args(ns: argparse.Namespace) -> None:
    """Apply the rules that tie flags together; raise ValueError on a breach."""
    if ns.command == "verify":
        if ns.input_path is None and (ns.r is None or ns.n is None):
            raise ValueError("verify needs --in FILE or both --r and --n")
        if ns.input_path is not None and (ns.r is not None or ns.n is not None):
            raise ValueError("verify takes --in or --r/--n, not both")
    sampled = getattr(ns, "mode", None) == "sampled"
    if ns.command == "certify" and not sampled and ns.count is not None:
        raise ValueError("--count applies only to sampled mode")
    if sampled and ns.count is None:
        ns.count = 1000
    if (ns.command == "double" or sampled) and ns.seed < 0:
        raise ValueError("--seed must be >= 0")


def _write(path, content) -> None:
    """Write `content` to the file at `path` and print `wrote PATH`; with no
    path, write it to stdout. Text goes out as UTF-8 with '\\n' line ends;
    other content is a matrix, written as matrix CSV."""
    if not path:
        sys.stdout.write(content)
        return
    if isinstance(content, str):
        Path(path).write_text(content, encoding="utf-8", newline="\n")
    else:
        write_matrix_csv(content, path)
    print(f"wrote {path}")


def _verdict(what: str, failed: list[str]) -> int:
    """0 when no check failed; else name the `failed` checks on stderr and
    return 3."""
    if not failed:
        return 0
    print(f"{what} failed: " + ", ".join(failed), file=sys.stderr)
    return 3


def cmd_build(args: argparse.Namespace) -> int:
    family = build_nonpavable_general(args.r, args.n)
    prefix = args.out or f"family_r{args.r}_n{args.n}"
    _write(f"{prefix}.csv", family.vectors)
    _write(f"{prefix}.json", dumps_json(sidecar_dict(family)))
    return 0


def _verification_report(matrix, tol_construct: float, tol_eig: float) -> dict:
    failed: list[str] = []
    rows = row_square_sums(matrix)
    column_pass = _column_pass(matrix)
    _, _, defect, cols = column_pass

    if float(np.max(np.abs(rows - 1.0))) > tol_construct:
        failed.append("row-square-sums")
    col_mean = float(np.mean(cols))
    if float(np.max(np.abs(cols - col_mean))) > tol_construct:
        failed.append("column-square-sums")
    if defect > tol_construct:
        failed.append("column-orthogonality")

    try:
        tight = _classify_tightness(column_pass, tol_eig)
    except InternalInconsistencyError:
        tight = None
    if tight is None:
        failed.append("tightness")

    projection_check = None
    if tight is not None:
        P = gram(np.asarray(matrix) / math.sqrt(tight))
        projection_check = projection_numbers(P, 1.0 / tight)
        failed += projection_failures(projection_check, matrix.shape[1], tol_eig, tol_construct)

    return {
        "orthogonality_defect": defect,
        "row_sums": [float(x) for x in rows],
        "col_sums": [float(x) for x in cols],
        "tight_constant": tight,
        "projection_check": projection_check,
        "failed_checks": failed,
        "passed": not failed,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.input_path is not None:
        matrix = read_matrix_csv(args.input_path)
    else:
        matrix = build_nonpavable_general(args.r, args.n).vectors
    report = _verification_report(matrix, args.tol_construct, args.tol_eig)
    _write(args.out, dumps_json(report))
    return _verdict("verification", report["failed_checks"])


def cmd_certify(args: argparse.Namespace) -> int:
    if args.mode == "exhaustive":  # refuse before the r^2 n x rn family is built
        _check_assignment_budget(args.r * args.r * args.n, args.r, args.budget)
    family = build_nonpavable_general(args.r, args.n)
    summary = certify_nonpavable(
        family, args.mode, count=args.count, seed=args.seed, budget=args.budget
    )
    out = args.out or f"certificate_r{args.r}_n{args.n}.json"
    _write(out, dumps_json(summary.to_json_dict()))
    print(
        f"certified r={args.r} n={args.n} over {summary.partitions_checked} partitions; "
        f"worst min-part bound {format_real(summary.worst_min_part_bound)}"
        + (" (vacuous: every delta is 1)" if summary.vacuous else "")
    )
    return 0


def cmd_double(args: argparse.Namespace) -> int:
    seed_family = build_nonpavable_general(args.r, args.n)
    doubled = doubled_family(seed_family, args.steps, entry_budget=args.entry_budget)

    seed_max = float(np.max(np.abs(seed_family.vectors)))
    max_entry = float(np.max(np.abs(doubled.vectors)))
    entry_bound = 2.0 ** (-args.steps / 2.0) * seed_max
    offblock = gram_block_residual(doubled, seed_family)
    rng = np.random.Generator(np.random.Philox(args.seed))
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

    prefix = args.out or f"doubled_r{args.r}_n{args.n}_k{args.steps}"
    _write(f"{prefix}.csv", doubled.vectors)
    report = {
        "r": args.r,
        "n": args.n,
        "steps": args.steps,
        "rows": doubled.count,
        "cols": doubled.dim,
        "max_entry": max_entry,
        "max_entry_bound": entry_bound,
        "gram_offblock_residual": offblock,
        "restriction_identity_residual": restriction,
        "probe_seed": args.seed,
        "failed_checks": failed,
        "passed": not failed,
    }
    _write(f"{prefix}.json", dumps_json(report))
    return _verdict("doubling checks", failed)


def cmd_sweep(args: argparse.Namespace) -> int:
    header = ["n"] + [f"delta_{k}" for k in range(1, args.r + 1)] + ["best_min_part_riesz"]
    lines = [",".join(header)]
    for n in args.n_list:
        schedule = delta_schedule(args.r, n)
        try:
            _check_assignment_budget(args.r * args.r * n, args.r, args.budget)
        except ResourceLimitError:
            best = ""
        else:
            family = build_nonpavable_general(args.r, n)
            best = format_real(best_partition_riesz(family, args.r, budget=args.budget)[1])
        lines.append(
            ",".join([str(n)] + [format_real(d) for d in schedule.deltas] + [best])
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "double": cmd_double,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:  # remapped usage errors and --help
        return int(exc.code or 0)
    try:
        _check_args(ns)
    except ValueError as exc:
        print(f"nonpaving: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[ns.command](ns)
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
    except (ResourceLimitError, MemoryError) as exc:  # a budget, or an allocation refused
        print(f"nonpaving: resource limit: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())
