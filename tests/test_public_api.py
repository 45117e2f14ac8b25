"""The public API stays whole: README's Python example runs, and every name
in nonpaving.__all__ resolves."""

import re
from pathlib import Path

import nonpaving

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in nonpaving.__all__ if not hasattr(nonpaving, name)]
    assert missing == []
    assert len(set(nonpaving.__all__)) == len(nonpaving.__all__)
