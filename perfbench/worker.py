"""One benchmark run in a fresh interpreter: a closed loop over CLI jobs.

Started by run.py with the package's absolute `src` on PYTHONPATH and the
BLAS thread count fixed in the environment. A single client calls
`nonpaving.cli.main(argv)` for each job of the workload, in order, and
starts the next job only when the previous one has returned; there are no
threads. Passes of the job list repeat while one more pass would end nearer
to `--seconds` than stopping does. With `--trace 1`, traced and untraced passes alternate, so the
same process gives the per-layer metrics and the tracing overhead.

The host this runs on is shared, and its speed can swing by 1.5-2x within
seconds. During every pass a SpeedProbe times a fixed loop of float
formatting every 20 ms, and each job's time is also reported rescaled to the
speed at which that loop takes PROBE_NOMINAL_S.

Writes one JSON result to `--result`; run.py checks the outputs.

    python3 perfbench/worker.py --workload sampled --seed 0 --seconds 10 \
        --trace 0 --work-dir WORK --result RESULT.json --trace-file TRACE.npz
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, jobs_for

PROBE_INTERVAL_S = 0.02
# Time of one probe loop, run from the signal handler, when a 2-vCPU Xeon
# host is at full speed; it only sets the scale of the rescaled times.
PROBE_NOMINAL_S = 40e-6


def probe_loop() -> float:
    """Time 40 float-to-text conversions: standard library only, never the package.

    Of the loops tried (integer arithmetic, calls and containers, small numpy
    eigensolves, array sums), this one's slowdown tracked the jobs' best.
    """
    t0 = time.perf_counter()
    for i in range(40):
        format(i * 0.1, ".17g")
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the interpreter's speed every PROBE_INTERVAL_S of wall time.

    A SIGALRM handler runs probe_loop between two bytecodes of whatever is
    running. Probes are evenly spaced in time, so a job that ran for T
    seconds would have taken T * mean(PROBE_NOMINAL_S / probe) at the
    nominal speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _handler(self, signum, frame):
        self.samples.append(probe_loop())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, index: int) -> float:
        """Mean speed relative to nominal over the samples from `index` on."""
        window = self.samples[index:] or self.samples[-1:]
        return statistics.fmean(PROBE_NOMINAL_S / p for p in window) if window else 1.0


def file_digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(cli, job, tracer: Tracer | None) -> tuple[int, float, str]:
    """Run one CLI job; return (exit code, wall seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(job.argv)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # an uncaught error is a failed job, not a crashed run
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return rc, seconds, err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", required=True, help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    import nonpaving.cli as cli
    import numpy

    jobs = jobs_for(args.workload, args.seed)
    work = Path(args.work_dir)
    os.chdir(work)
    tracer = Tracer() if args.trace else None
    job_labels: list[str] = []
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        probe = SpeedProbe()
        records = []
        try:
            with probe:
                for job in jobs:
                    if traced:
                        tracer.job_id = len(job_labels)
                        job_labels.append(f"pass{len(passes)}:{job.name}")
                    first_probe = len(probe.samples)
                    rc, seconds, stderr = run_job(cli, job, tracer if traced else None)
                    records.append({
                        "rc": rc,
                        "seconds": seconds,
                        "speed": probe.speed_since(first_probe),
                        "stderr": stderr[-2000:],
                        "digests": {o: file_digest(work / o) for o in job.outputs},
                    })
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "jobs": records,
                       "wall_s": sum(r["seconds"] for r in records)})

        kinds = {p["traced"] for p in passes}
        if len(kinds) < (2 if tracer else 1):
            continue
        # Stop when one more pass would end further from --seconds than now.
        next_traced = bool(tracer) and len(passes) % 2 == 1
        same = [p["wall_s"] for p in passes if p["traced"] == next_traced]
        if time.perf_counter() - begin + statistics.median(same) / 2 > args.seconds:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }
    if tracer:
        # Rescaled pass times, so that a change of host speed between the
        # traced and the untraced passes does not count as tracing overhead.
        rescaled = {traced: [sum(r["seconds"] * r["speed"] for r in p["jobs"])
                             for p in passes if p["traced"] == traced]
                    for traced in (False, True)}
        traced_passes = [p for p in passes if p["traced"]]
        overhead = statistics.median(rescaled[True]) - statistics.median(rescaled[False])
        result["layers"] = layer_metrics(
            tracer, len(traced_passes), sum(j.partitions for j in jobs), overhead)
        result["spans"] = len(tracer.start)
        tracer.save(args.trace_file, job_labels)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
