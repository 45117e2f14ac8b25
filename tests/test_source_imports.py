"""Every name a package module imports is used in that module, every
top-level private helper is used somewhere in the package, every public name
is read by package code or named in README, and the column product V^*V, the
matrix entry rule, the bound-failure message, the certification failure, the
CLI's text output, the budget refusal and the integer lower bound are each
written once, and a matrix is copied only where it is stored.

`__init__.py` is skipped by the import check: its imports are the public
re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

import nonpaving

SRC = Path(__file__).resolve().parent.parent / "src" / "nonpaving"
README = SRC.parent.parent / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _definitions(stmt) -> list[str]:
    """Top-level functions, classes and constants a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt) -> set[str]:
    """Names a statement reads, as bare names, attributes or `from` imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def unreferenced_names(sources: dict[str, str], wanted) -> list[str]:
    """Top-level names for which `wanted(name)` holds that no statement
    references outside their own definition.

    `sources` maps module names to source text; a reference in any module counts.
    """
    stmts = [stmt for source in sources.values() for stmt in ast.parse(source).body]
    refs = [_referenced(stmt) for stmt in stmts]
    unused = []
    for i, stmt in enumerate(stmts):
        for name in filter(wanted, _definitions(stmt)):
            if not any(name in r for j, r in enumerate(refs) if j != i):
                unused.append(name)
    return unused


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private names no statement references outside their own definition."""
    return unreferenced_names(sources, lambda n: n.startswith("_") and not n.startswith("__"))


def test_checker_sees_unused_names():
    source = "import math\nimport numpy as np\nfrom itertools import product, chain\nnp.zeros(chain)\n"
    assert unused_imports(source) == ["math", "product"]


def test_checker_sees_orphaned_private_helpers():
    core = (
        "_LIMIT = 3\n_SPARE: int = 4\n"
        "def _used():\n    return _LIMIT\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
        "def _imported():\n    return 1\n"
        "def public():\n    return _used()\n"
    )
    other = "from .core import _imported\n"
    assert unused_private_names({"core": core, "other": other}) == ["_SPARE", "_recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unused_private_names(sources) == []


def unread_public_names(sources: dict[str, str], public, readme: str) -> list[str]:
    """Names in `public` that no package statement references outside their
    own definition and that README does not name."""
    unread = unreferenced_names(sources, set(public).__contains__)
    return [name for name in unread if not re.search(rf"\b{re.escape(name)}\b", readme)]


def test_checker_sees_test_only_public_names():
    core = "def used():\n    return 1\ndef documented():\n    return 2\ndef orphan():\n    return 3\n"
    other = "from .core import used\n"
    public = ["used", "documented", "orphan"]
    found = unread_public_names({"core": core, "other": other}, public, "call `documented()`")
    assert found == ["orphan"]


# Public names that only the benchmark's tracer reads: perfbench/tracing.py
# looks both up by name (TARGETS) when it installs, so they stay until its
# target list drops them.
TRACED_ONLY = ["col_square_sums", "column_orthogonality_defect"]


def test_every_public_name_is_used_or_documented():
    """A public name is read by package code or named in README; one that
    only tests call belongs in the tests."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readme = README.read_text(encoding="utf-8")
    assert sorted(unread_public_names(sources, nonpaving.__all__, readme)) == TRACED_ONLY


def test_column_product_is_written_once():
    product = re.compile(r"\b(\w+)\.conj\(\)\.T\s*@\s*\1\b")
    sites = [(p.name, m.group(0)) for p in SRC.glob("*.py")
             for m in product.finditer(p.read_text(encoding="utf-8"))]
    assert sites == [("matrix_core.py", "V.conj().T @ V")]


def test_entry_rule_is_written_once():
    """Matrix entries are parsed in one place: one call of the builtin
    complex in matrix_core, where the text also appears in names such as
    format_complex and in docstrings."""
    tree = ast.parse((SRC / "matrix_core.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "complex"]
    assert len(calls) == 1


def test_cli_output_is_written_once():
    """Every text file the CLI writes goes through one write_text call, with
    '\\n' line ends on every platform, and every report it prints to stdout
    through one sys.stdout.write."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    files = [c for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "write_text"]
    stdout = [c for c in calls if ast.unparse(c.func) == "sys.stdout.write"]
    assert (len(files), len(stdout)) == (1, 1)
    assert [k.value.value for k in files[0].keywords if k.arg == "newline"] == ["\n"]


def test_bound_failure_message_is_written_once():
    message = re.compile(r"partition keeps min-part bound \{")
    sites = [p.name for p in SRC.glob("*.py")
             for _ in message.finditer(p.read_text(encoding="utf-8"))]
    assert sites == ["paving_analysis.py"]


def test_empty_part_slot_is_written_once():
    """An empty part's inf bound becomes a None slot in one place, for the
    search and for sampled certification alike."""
    conversion = re.compile(r"None if \w+ == (?:math|np)\.inf")
    sites = [p.name for p in SRC.glob("*.py")
             for _ in conversion.finditer(p.read_text(encoding="utf-8"))]
    assert sites == ["paving_analysis.py"]


def _raise_sites(paths, prefix: str, text: str = "") -> list[str]:
    """Sorted names of the innermost functions holding a `raise` statement
    that starts with `prefix` and contains `text`."""
    sites = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Raise):
            statement = ast.unparse(node)
            if statement.startswith(prefix) and text in statement:
                sites.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(sites)


def test_raise_sites_name_the_innermost_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def outer():\n"
        "    def inner():\n        raise ValueError('x must be >= 1')\n"
        "    raise ValueError('y must be >= 2')\n"
        "class C:\n    def method(self):\n        raise KeyError('z must be >= 3')\n",
        encoding="utf-8",
    )
    assert _raise_sites([module], "raise ValueError", "must be >= ") == ["inner", "outer"]


def test_budget_refusal_is_written_once():
    """Every budget (assignments, entries, numpy's index range) refuses work
    through the one budget check: no command re-derives a budget rule of its
    own."""
    assert _raise_sites(SRC.glob("*.py"), "raise ResourceLimitError") == ["_check_budget"]


def test_certification_failure_is_raised_once():
    """The exhaustive pool and the sampled draws pick their failure, and
    their certificate, through one selection rule."""
    assert _raise_sites(SRC.glob("*.py"), "raise CertificationError") == ["_select"]


def test_integer_bound_is_written_once():
    """Every bounded integer argument goes through _as_int's lower bound; the
    other `must be >= ` refusal is _column_pass's shape check. cli.py is left
    out: its argparse layer words each flag's bound itself."""
    paths = [p for p in SRC.glob("*.py") if p.name != "cli.py"]
    sites = _raise_sites(paths, "raise ValueError", "must be >= ")
    assert sites == ["_as_int", "_column_pass"]


def _call_sites(paths, callee: str) -> list[str]:
    """Sorted qualified names (Class.method, or function) of the innermost
    functions holding a call of `callee` by its bare name."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
            sites.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sorted(sites)


def test_call_sites_are_qualified_by_class(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n    def method(self):\n        return copy(1)\n"
        "def outer():\n    def inner():\n        return copy(2)\n    return obj.copy(3)\n",
        encoding="utf-8",
    )
    assert _call_sites([module], "copy") == ["C.method", "outer.inner"]


def test_matrix_is_copied_only_where_stored():
    """as_complex_matrix copies its input, so it is called only where a
    matrix is kept; a function that only reads a matrix validates it with
    _as_operand, which makes no copy of a complex128 array."""
    sites = _call_sites(SRC.glob("*.py"), "as_complex_matrix")
    assert sites == ["FrameFamily.__post_init__", "ProjectionMatrix.__post_init__"]


def test_part_bounds_are_solved_in_two_places():
    """Every part bound is one call of the LAPACK gufunc `_eigvalsh_lo` in
    _eig_min (the walk's node and riesz_lower_bound) or one stacked
    np.linalg.eigvalsh call in _label_bounds. The incumbent, the orbit
    images and each sampled settle batch are one _label_bounds call each."""
    path = [SRC / "paving_analysis.py"]
    assert _call_sites(path, "_eigvalsh_lo") == ["_eig_min"]
    assert _call_sites(path, "np.linalg.eigvalsh") == ["_label_bounds"]
    assert _call_sites(path, "_eig_min") == ["_partition_search.descend", "riesz_lower_bound"]
    assert _call_sites(path, "_label_bounds") == ["_sampled_part_bounds"] + ["_sampled_values"] * 3
    assert _call_sites(path, "_sampled_part_bounds") == ["_partition_search"] * 2
