"""tools/count_code_lines.py, run as the README and CHANGES.md run it: its
total is the sum of its per-file lines, and it lists exactly the package's
modules."""

import subprocess
import sys
from pathlib import Path

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
