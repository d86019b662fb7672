"""Run every module's doctests so the examples in docstrings stay honest."""

import ast
import doctest
import inspect

import pytest

import qrationals
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
