"""Run every module's doctests so the examples in docstrings stay honest."""

import ast
import doctest
import inspect
from pathlib import Path

import pytest

import qrationals
import qrationals._oracle
import qrationals.cf
import qrationals.cli
import qrationals.fence
import qrationals.markoff
import qrationals.numeration
import qrationals.polytope
import qrationals.qpoly
import qrationals.snake
import qrationals.verify
import qrationals.words

MODULES = [
    qrationals,
    qrationals._oracle,
    qrationals.cf,
    qrationals.cli,
    qrationals.fence,
    qrationals.markoff,
    qrationals.numeration,
    qrationals.polytope,
    qrationals.qpoly,
    qrationals.snake,
    qrationals.verify,
    qrationals.words,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_assert_statements(module):
    # `python -O` strips asserts, so no result may depend on one
    path = inspect.getsourcefile(module)
    tree = ast.parse(inspect.getsource(module), path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "assert statements in %s at lines %s" % (path, lines)


def test_only_verify_imports_the_oracle():
    # the production path never leans on the brute-force oracles
    found = []
    for path in sorted(Path(qrationals.__file__).parent.glob("*.py")):
        if path.stem == "verify":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "_oracle" in (name.split(".")[-1] for name in names):
                found.append("%s:%d" % (path, node.lineno))
    assert not found, "production modules import _oracle at %s" % ", ".join(found)


def test_only_main_prints_in_the_cli():
    # subcommands return their result; main alone writes it out
    path = inspect.getsourcefile(qrationals.cli)
    tree = ast.parse(inspect.getsource(qrationals.cli), path)
    lines = sorted(
        {
            call.lineno
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name != "main"
            for call in ast.walk(func)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "print"
        }
    )
    assert not lines, "print called outside main in %s at lines %s" % (path, lines)


def test_benchmark_entry_points_exist():
    # the benchmark reads the package by module attribute; a name deleted
    # from the package would crash it while every other test stays green
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(), str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qrationals"
        for alias in node.names
    }
    assert modules, "%s imports no qrationals module" % path
    missing = sorted(
        "%s:%d %s.%s" % (path, node.lineno, node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(getattr(qrationals, node.value.id), node.attr)
    )
    assert not missing, "the benchmark reads names the package lacks: %s" % ", ".join(missing)


# Count hooks of bench/spans.py whose code is gone: Poly has had no __mul__
# since its products moved into the packed kernel, snake.area_histogram and
# polytope.separates were deleted.  Their counters read 0 until the hooks
# are rewritten.
DEAD_HOOKS = {"qpoly.Poly.__mul__", "qpoly.Poly.__rmul__", "snake.area_histogram", "polytope.separates"}


def test_benchmark_count_hooks_resolve():
    # the tracer wraps only the names in a module's __all__ (and the methods
    # of the classes there), so a hooked name moved or made private would
    # zero its counter while every other test stays green
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(path.read_text(), str(path))
    (hooks,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_hooks"]
    keys = [
        key.value
        for node in ast.walk(hooks)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
        for key in node.value.keys
    ]
    assert len(keys) > len(DEAD_HOOKS), "found no count hooks in %s" % path

    def resolves(key):
        module, name, *attr = key.split(".")
        module = getattr(qrationals, module, None)
        if module is None or name not in module.__all__:
            return False
        obj = getattr(module, name)
        return attr[0] in vars(obj) if attr else inspect.isfunction(obj)

    missing = {key for key in keys if not resolves(key)} - DEAD_HOOKS
    assert not missing, "count hooks that no longer resolve: %s" % ", ".join(sorted(missing))
