"""Job lists of the three benchmark workloads.

A workload is a fixed list of `nonpaving` CLI jobs that one closed-loop
client runs in order, each job starting only after the previous one has
returned. Only the `sampled` and `matrix-io` jobs take seeds, and those are
derived from the benchmark seed; `exhaustive` is the same for every seed.
"""

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0

WORKLOADS = ("exhaustive", "sampled", "matrix-io")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what it is expected to produce.

    kind groups jobs for the end-to-end metrics (certify, sweep, build,
    verify, double); outputs are file names relative to the work directory;
    seeded_outputs are the outputs whose bytes depend on the benchmark seed;
    partitions is how many labeled partitions the job covers; family is
    the (r, n) of the family a `verify --in` job reads.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    seeded_outputs: tuple[str, ...] = ()
    partitions: int = 0
    family: tuple[int, int] | None = None


def derived_seed(seed: int, label: str) -> int:
    """A 32-bit CLI seed that depends only on the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _sampled_certify(r: int, n: int, count: int, seed: int) -> Job:
    name = f"cert_r{r}_n{n}"
    return Job(
        name=name,
        kind="certify",
        argv=("certify", "--r", str(r), "--n", str(n), "--mode", "sampled",
              "--count", str(count), "--seed", str(derived_seed(seed, name)),
              "--out", f"{name}.json"),
        outputs=(f"{name}.json",),
        seeded_outputs=(f"{name}.json",),
        partitions=count,
    )


def jobs_for(workload: str, seed: int) -> tuple[Job, ...]:
    """The job list of one pass of `workload` for benchmark seed `seed`."""
    if workload == "exhaustive":
        return (
            Job("cert_r2_n4", "certify",
                ("certify", "--r", "2", "--n", "4", "--mode", "exhaustive",
                 "--out", "cert_r2_n4.json"),
                ("cert_r2_n4.json",), partitions=2**16),
            Job("sweep_r2", "sweep",
                ("sweep", "--r", "2", "--n-list", "1,2,3,4", "--out", "sweep_r2.csv"),
                ("sweep_r2.csv",), partitions=sum(2 ** (4 * n) for n in (1, 2, 3, 4))),
        )
    if workload == "sampled":
        return (_sampled_certify(3, 2, 10000, seed), _sampled_certify(4, 8, 2000, seed))
    if workload == "matrix-io":
        return (
            Job("fam_r8_n16", "build",
                ("build", "--r", "8", "--n", "16", "--out", "fam_r8_n16"),
                ("fam_r8_n16.csv", "fam_r8_n16.json")),
            Job("verify_r8_n16", "verify",
                ("verify", "--in", "fam_r8_n16.csv", "--out", "verify_r8_n16.json"),
                ("verify_r8_n16.json",), family=(8, 16)),
            Job("dbl_r2_n4_k6", "double",
                ("double", "--r", "2", "--n", "4", "--k", "6",
                 "--seed", str(derived_seed(seed, "dbl_r2_n4_k6")),
                 "--out", "dbl_r2_n4_k6"),
                ("dbl_r2_n4_k6.csv", "dbl_r2_n4_k6.json"),
                seeded_outputs=("dbl_r2_n4_k6.json",)),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
