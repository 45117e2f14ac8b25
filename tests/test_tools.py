"""The scripts in tools/, run as the README and CHANGES.md run them.

tools/count_code_lines.py: its total is the sum of its per-file lines, and it
lists exactly the package's modules. tools/time_walk.py: its work columns are
the search's own counts.
"""

import subprocess
import sys
from pathlib import Path

import nonpaving.paving_analysis as pa
from nonpaving import build_nonpavable_general, gram

ROOT = Path(__file__).resolve().parent.parent


def test_count_code_lines_totals_every_package_module():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "count_code_lines.py")],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in proc.stdout.splitlines()]
    *files, (total, last) = rows
    assert last == "total"
    assert int(total) == sum(int(count) for count, _ in files)
    assert [name for _, name in files] == sorted(p.name for p in (ROOT / "src" / "nonpaving").glob("*.py"))


def test_time_walk_reports_the_searchs_counts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_walk.py"), "2,3", "3,1", "--repeats", "2"],
        capture_output=True, text=True, check=True,
    )
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["r", "n", "nodes", "eigensolves", "ms", "us_per_node", "value"]
    assert [row[:2] for row in rows] == [["2", "3"], ["3", "1"]]
    for r, n, nodes, eigensolves, ms, per_node, value in rows:
        family = build_nonpavable_general(int(r), int(n))
        result = pa._partition_search(gram(family.vectors), int(r), family=family, dim=family.dim)
        assert (int(nodes), int(eigensolves), value) == (result.nodes, result.eigensolves,
                                                         repr(result.value))
        assert float(ms) > 0 and float(per_node) > 0
