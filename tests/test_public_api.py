"""The public API stays whole: README's Python example runs, every name in
nonpaving.__all__ resolves, and each public name is declared once, in the
`__all__` of the module that defines it."""

import inspect
import re
from pathlib import Path

import nonpaving
from nonpaving import constructions, errors, frame_ops, matrix_core, paving_analysis

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in nonpaving.__all__ if not hasattr(nonpaving, name)]
    assert missing == []
    assert len(set(nonpaving.__all__)) == len(nonpaving.__all__)


def test_package_all_is_the_module_lists_in_import_order():
    modules = [matrix_core, frame_ops, constructions, paving_analysis, errors]
    assert nonpaving.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    foreign = [
        (m.__name__, name)
        for m in modules
        for name in m.__all__
        if not (inspect.isclass(obj := getattr(m, name)) or inspect.isfunction(obj))
        or obj.__module__ != m.__name__
    ]
    assert foreign == []
