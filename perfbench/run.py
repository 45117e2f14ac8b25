"""Benchmark of the `nonpaving` command line tool.

Each run starts one fresh worker interpreter (worker.py) that runs a
workload's CLI jobs in a closed loop for about `--seconds`, then checks every
output it wrote against numpy-only recomputations (checks.py) and, at the
default seed, against SHA-256 digests recorded at commit e1e1de2
(golden_sha256.json). Set-up time is measured separately, as the median
over several fresh interpreters of the time to `import nonpaving`. Pass
times are reported raw (wall_s) and rescaled to a nominal host speed
(wall_norm_s, see worker.SpeedProbe); only the rescaled one is steady
enough on a shared host to gate on.

    python3 perfbench/run.py --workload exhaustive --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one after another

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. The lines before it
give every metric with its unit and sample count, and the run's provenance.
Run from anywhere; the package is taken from `src/` next to this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from worker import file_digest
from workloads import DEFAULT_SEED, WORKLOADS, jobs_for

# BLAS threads of every process; set before numpy is first imported.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# Everything of one workload, checks included, ends within this many seconds.
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nonpaving; "
    "print(time.perf_counter() - t)"
)
# Gated in BENCHMARK.json. wall_norm_s is the pass time rescaled to the
# nominal speed of worker.SpeedProbe, which keeps it steady on a shared host.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed, not gated: raw wall time, the host speed the probe saw, and the
# job-kind metrics of the workloads that run those jobs (rescaled like
# wall_norm_s).
REPORTED = (
    ("wall_s", "s"),
    ("speed", "ratio"),
    ("certify_s", "s"),
    ("sweep_s", "s"),
    ("partitions_per_s", "1/s"),
    ("build_verify_s", "s"),
    ("double_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment of every child: absolute `src` first on PYTHONPATH, fixed BLAS threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update((var, str(BLAS_THREADS)) for var in BLAS_THREAD_VARS)
    return env


def measure_setup(work: Path, deadline: float) -> list[float]:
    """Seconds a fresh interpreter takes to import nonpaving, SETUP_SAMPLES times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=work,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("importing nonpaving did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"importing nonpaving failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def provenance(args, worker_result: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nonpaving").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": worker_result["numpy"],
        "openblas": worker_result["blas"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "clients": 1,
    }


def run_worker(workload: str, args, work: Path, trace_file: Path, timeout: float) -> dict:
    result_path = work / "worker-result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--result", str(result_path), "--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker for {workload} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result_path.read_text())


def count_failures(workload: str, seed: int, work: Path, result: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every job attempt of every pass.

    A job attempt fails when it exits non-zero, when its output bytes differ
    from the final outputs, or when the final outputs fail their check
    (including, at the default seed, the recorded SHA-256 digests).
    """
    from checks import check_job  # imports numpy, so only after main() fixed the BLAS threads

    golden = json.loads((HERE / "golden_sha256.json").read_text())["digests"][workload]
    jobs = jobs_for(workload, seed)
    final = {o: file_digest(work / o) for job in jobs for o in job.outputs}
    problems: dict[str, list[str]] = {}
    for job in jobs:
        try:
            found = check_job(job, work)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
            found = [f"unreadable output: {exc!r}"]
        for o in job.outputs:
            if (seed == DEFAULT_SEED or o not in job.seeded_outputs) and final[o] != golden[o]:
                found.append(f"{o}: bytes differ from the recorded digest")
        problems[job.name] = found
    attempted = failed = 0
    report = []
    for number, p in enumerate(result["passes"]):
        for job, rec in zip(jobs, p["jobs"]):
            attempted += 1
            why = list(problems[job.name])
            if rec["rc"] != 0:
                why.insert(0, f"exit code {rec['rc']}: {rec['stderr'].strip()}")
            if rec["digests"] != {o: final[o] for o in job.outputs}:
                why.append("output bytes differ from the last pass")
            if why:
                failed += 1
                report.append(f"pass {number} {job.name}: " + "; ".join(why))
    return attempted, failed, report


def job_metrics(workload: str, seed: int, passes: list[dict]) -> dict[str, list[float]]:
    """Per-pass samples of the pass metrics and of the job-kind metrics that apply."""
    jobs = jobs_for(workload, seed)
    samples: dict[str, list[float]] = {}
    for p in passes:
        norm = [rec["seconds"] * rec["speed"] for rec in p["jobs"]]
        by_kind: dict[str, float] = {}
        for job, seconds in zip(jobs, norm):
            by_kind[job.kind] = by_kind.get(job.kind, 0.0) + seconds
        searched = [(job.partitions, seconds) for job, seconds in zip(jobs, norm) if job.partitions]
        derived = {
            "wall_s": p["wall_s"],
            "wall_norm_s": sum(norm),
            "speed": sum(norm) / p["wall_s"],
            "certify_s": by_kind.get("certify"),
            "sweep_s": by_kind.get("sweep"),
            "partitions_per_s": (sum(c for c, _ in searched) / sum(t for _, t in searched)
                                 if searched else None),
            "build_verify_s": (by_kind["build"] + by_kind["verify"]
                               if "build" in by_kind and "verify" in by_kind else None),
            "double_s": by_kind.get("double"),
        }
        for name, value in derived.items():
            if value is not None:
                samples.setdefault(name, []).append(value)
    return samples


def run_workload(workload: str, args) -> dict:
    """Run, check and summarize one workload; returns the printable result."""
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench"
    work = base / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(work, deadline)
        trace_file = base / f"trace-{workload}-seed{args.seed}.npz"
        # leave time for the output checks
        result = run_worker(workload, args, work, trace_file, deadline - time.monotonic() - 10.0)
        attempted, failed, problems = count_failures(workload, args.seed, work, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in result["passes"] if not p["traced"]]
    samples = job_metrics(workload, args.seed, untraced)
    samples["setup_s"] = setup
    samples["peak_rss_mb"] = [result["peak_rss_mb"]]
    rows = [(name, unit, statistics.median(samples[name]), len(samples[name]))
            for name, unit in END_TO_END + REPORTED if name in samples]
    rows.append(("failed_frac", f"of {attempted} jobs", failed / attempted, attempted))
    if args.trace:
        traced = sum(p["traced"] for p in result["passes"])
        rows += [(name, unit, result["layers"][name], traced) for name, unit, _ in LAYER_METRICS]
        rows.append(("trace.spans", "count", result["spans"], traced))
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "rows": rows,
        "problems": problems,
        "provenance": provenance(args, result),
        "trace_file": str(trace_file.relative_to(ROOT)) if args.trace else None,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def print_summary(workload: str, summary: dict) -> None:
    print(f"== {workload}: one closed-loop client, {BLAS_THREADS} BLAS thread(s); "
          "medians over passes, per-layer values per traced pass")
    print(f"{'metric':48} {'value':>16}  {'unit':14} samples")
    for name, unit, value, count in summary["rows"]:
        print(f"{name:48} {value:16.6g}  {unit:14} {count}")
    for line in summary["problems"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if summary["trace_file"]:
        print(f"spans written to {summary['trace_file']}")
    print("provenance " + json.dumps(summary["provenance"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the nonpaving CLI.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update((var, str(BLAS_THREADS)) for var in BLAS_THREAD_VARS)
    if not (ROOT / "src" / "nonpaving" / "__init__.py").is_file():
        print(f"perfbench: no nonpaving package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            summary = run_workload(workload, args)
            print_summary(workload, summary)
            results[workload] = summary["result"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
