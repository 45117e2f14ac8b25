"""Time the exhaustive partition walk, `_partition_search`, called directly.

For each size r,n it builds the stacked DFT family and its Gram once, then
times `_partition_search(G, r, family=family, dim=family.dim)`, the call
`best_partition_riesz` makes, with one BLAS thread. The sizes are timed in
turn, round after round, and each reports its fastest round, so a slow spell
of a shared host costs one round of every size rather than every round of
one. Prints a header, then one line per size: r, n, nodes, eigensolves,
milliseconds, microseconds per node (search time over nodes, set-up
included) and the value found:

    python3 tools/time_walk.py                   # (2,4), (3,2) and (2,8), 5 rounds
    python3 tools/time_walk.py 2,3 --repeats 3   # any sizes
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

# BLAS reads these when numpy loads it, so they are set before the import.
os.environ.update((var, "1") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nonpaving.paving_analysis as pa  # noqa: E402
from nonpaving import build_nonpavable_general, gram  # noqa: E402

SIZES = ((2, 4), (3, 2), (2, 8))


def _size(text: str) -> tuple[int, int]:
    r, n = text.split(",")
    return int(r), int(n)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=_size, default=SIZES, metavar="R,N")
    parser.add_argument("--repeats", type=int, default=5, help="rounds over the sizes")
    args = parser.parse_args(argv)
    searches = []
    for r, n in args.sizes:
        family = build_nonpavable_general(r, n)
        searches.append((r, n, gram(family.vectors), family))
    fastest = [math.inf] * len(searches)
    results = [None] * len(searches)
    for _ in range(args.repeats):
        for k, (r, n, G, family) in enumerate(searches):
            start = time.perf_counter()
            results[k] = pa._partition_search(G, r, family=family, dim=family.dim)
            fastest[k] = min(fastest[k], time.perf_counter() - start)
    print("r n nodes eigensolves ms us_per_node value")
    for (r, n, _, _), result, seconds in zip(searches, results, fastest):
        print(f"{r} {n} {result.nodes} {result.eigensolves} {seconds * 1e3:.2f} "
              f"{seconds * 1e6 / result.nodes:.2f} {result.value!r}")


if __name__ == "__main__":
    main()
