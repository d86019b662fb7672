"""Run every module's doctests so the examples in docstrings stay honest."""

import ast
import doctest
import inspect
import sys
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


def _imports_of(path, module):
    """Lines of the file at `path` that import `module` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if module in (name.split(".")[-1] for name in names):
            found.append("%s:%d" % (path, node.lineno))
    return found


def test_only_verify_imports_the_oracle():
    # the production path never leans on the brute-force oracles
    found = [
        line
        for path in sorted(Path(qrationals.__file__).parent.glob("*.py"))
        if path.stem != "verify"
        for line in _imports_of(path, "_oracle")
    ]
    assert not found, "production modules import _oracle at %s" % ", ".join(found)


def test_markoff_imports_nothing_from_snake():
    # a Markoff row's matching count is its number, the area polynomial at
    # q = 1; the snake's scan is only its reference, in verify and the tests
    found = _imports_of(Path(inspect.getsourcefile(qrationals.markoff)), "snake")
    assert not found, "markoff imports snake at %s" % ", ".join(found)


def test_oracle_imports_only_the_lower_modules():
    # the references import the encodings, the polynomial type, the digit
    # model and the polytope's inequalities, never fence, snake or markoff,
    # whose paths they are held against, nor verify or cli
    allowed = {"cf", "numeration", "polytope", "qpoly", "words"}
    path = Path(inspect.getsourcefile(qrationals._oracle))
    found = [
        line
        for other in sorted(path.parent.glob("*.py"))
        if other.stem not in allowed
        for line in _imports_of(path, other.stem)
    ]
    assert not found, "_oracle imports a module outside %s at %s" % (sorted(allowed), ", ".join(found))


def test_numeration_imports_nothing_from_fence():
    # the digit statistics are the kernel's pair, so the digit model sits
    # below the fence, whose `psi_inverse` imports its admissibility check
    # when the fence loads
    found = _imports_of(Path(inspect.getsourcefile(qrationals.numeration)), "fence")
    assert not found, "numeration imports fence at %s" % ", ".join(found)


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


def test_verify_fails_through_one_helper():
    # every check reports a failed claim through `_expect`, so each message
    # has one format: no other code in verify raises AssertionError
    path = inspect.getsourcefile(qrationals.verify)
    tree = ast.parse(inspect.getsource(qrationals.verify), path)
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_fail" not in functions, "%s defines _fail again" % path
    raises = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and any(isinstance(name, ast.Name) and name.id == "AssertionError" for name in ast.walk(node))
    ]
    helper = [node.lineno for node in ast.walk(functions["_expect"]) if isinstance(node, ast.Raise)]
    assert len(raises) == 1 and raises == helper, "AssertionError raised in %s at lines %s" % (path, raises)


# Public functions whose private twin takes what a caller has already
# checked, each kept for the reason given.
TWINS = {
    "qpoly.q_rational": "the CLI passes `_q_rational` the expansion it parsed",
    "snake.prefix_suffix_table": "the CLI passes `_prefix_suffix_table` the word of the expansion it parsed",
    "words.gamma": "the Markoff row checks its word once and calls `_gamma` on it",
}


def _top_level_functions(module):
    tree = ast.parse(inspect.getsource(module), inspect.getsourcefile(module))
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def test_no_function_has_a_private_twin():
    # a check in front of an unchecked twin that does the work defines the
    # quantity twice; fold the twin into its public name
    found = []
    for module in MODULES:
        names = {node.name for node in _top_level_functions(module)}
        found += ["%s.%s" % (module.__name__.split(".")[-1], name) for name in names if "_" + name in names]
    assert sorted(found) == sorted(TWINS), "functions with a private twin: %s" % ", ".join(sorted(found))


def test_no_two_functions_share_a_body():
    # two definitions of one quantity drift apart; bind the second name instead
    bodies = {}
    for module in MODULES:
        for node in _top_level_functions(module):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            key = ast.dump(ast.Module(body=body, type_ignores=[]))
            bodies.setdefault(key, []).append("%s.%s" % (module.__name__, node.name))
    same = [names for names in bodies.values() if len(names) > 1]
    assert not same, "functions with the same body: %s" % same


# The fast paths that `verify` and the tests hold the references against.
FAST_PATHS = (
    (qrationals.fence, "_path_scan"),
    (qrationals.fence, "enumerate_ideals"),
    (qrationals.qpoly, "_q_product_vector"),
    (qrationals.qpoly, "_packed_times_q_integer"),
    (qrationals.cf, "_suffix_pairs"),
    (qrationals.numeration, "_digits"),
    (qrationals.numeration, "numeration_rows"),
    (qrationals.snake.Snake, "classify"),
    (qrationals.snake.Snake, "enclosed_cells"),
    (qrationals.snake, "enumerate_matchings"),
    (qrationals.snake, "prefix_suffix_table"),
    (qrationals.polytope, "convexity_report"),
    (qrationals.polytope, "verify_halfspace_split"),
    (qrationals.polytope, "_halfspace_misses"),
)


def test_no_reference_calls_a_fast_path(monkeypatch):
    # a reference that reached a fast path would stop being independent of
    # what it checks while every claim still passed.  The references are
    # every public function and class that `_oracle` defines, and the four
    # that live in production modules, where the benchmark calls them.
    oracle, fence, numeration, snake = qrationals._oracle, qrationals.fence, qrationals.numeration, qrationals.snake
    one, q = qrationals.qpoly.ONE, qrationals.qpoly.Q
    g = snake.Snake("0100")
    edge_sets = [frozenset(snake.matching_edges(g, m)) for m in snake.enumerate_matchings(g)]
    points = numeration.enumerate_admissible((1, 2, 1))
    hull = oracle.HullSystem(points)
    references = {
        "times": lambda: oracle.times(q + one, q + q.shift(1)),
        "Mat2": lambda: (oracle.Mat2(q, one, one, one) ** 3).transpose().apply((one, q)),
        "L_q": lambda: oracle.L_q(),
        "R_q": lambda: oracle.R_q(),
        "nu_q": lambda: oracle.nu_q("0110"),
        "mu_q": lambda: oracle.mu_q("0110"),
        "mat2_product_vector": lambda: oracle.mat2_product_vector((2, 1, 3), (one, one)),
        "matrix_q_rational": lambda: oracle.matrix_q_rational((3, 2)),
        "xy_pair": lambda: oracle.xy_pair("0110"),
        "phi_by_pop": lambda: [oracle.phi_by_pop(m, g.word) for m in edge_sets],
        "first_cell_perp": lambda: [oracle.first_cell_perp(h, w) for h in (False, True) for w in ("", "0", "01")],
        "partition": lambda: oracle.partition((0, 1, 3, 1)),
        "HullSystem": lambda: oracle.HullSystem.of_expansion((1, 2, 1)).points,
        "in_hull": lambda: [oracle.in_hull(c, hull) for c in ((0, 0, 0), (1, 1, 1), (1, 2, 0), (0, 2, 1))],
        "dot": lambda: oracle.dot((1, -2, 3), (4, 5, 6)),
        "box_scan_report": lambda: oracle.box_scan_report((1, 2, 1), points),
        "matchings_by_backtracking": lambda: snake.matchings_by_backtracking(g),
        "ideals_by_subset_filter": lambda: fence.ideals_by_subset_filter(fence.Fence("0110")),
        "enumerate_admissible": lambda: numeration.enumerate_admissible((2, 2, 2)),
        "christoffel_closure": lambda: qrationals.words.christoffel_closure(8),
    }
    defined = [
        name
        for name, value in vars(oracle).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == oracle.__name__
    ]
    missing = [name for name in defined if name not in references]
    assert not missing, "_oracle defines references with no small-input entry here: %s" % ", ".join(missing)
    unpatched = {name: call() for name, call in references.items()}
    modules = [m for name, m in sys.modules.items() if name == "qrationals" or name.startswith("qrationals.")]
    for owner, name in FAST_PATHS:
        fast = getattr(owner, name)

        def refuse(*args, _name=name, **kwargs):
            raise RuntimeError("%s was called" % _name)

        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is fast:
                    monkeypatch.setattr(holder, attr, refuse)
    for name, call in references.items():
        try:
            got = call()
        except RuntimeError as exc:
            pytest.fail("the reference %s reaches a fast path: %s" % (name, exc))
        assert got == unpatched[name], "the reference %s changed under the patches" % name


def test_the_bounds_keep_each_dropped_claim_covered():
    # verify drops two claims that the bijection row decides for r + s up to
    # bijection_sum, and runs the order check inside that row's loop
    for level, b in qrationals.verify.BOUNDS.items():
        assert b["order_sum"] <= b["bijection_sum"], (
            "%s: order_sum %d > bijection_sum %d: phi as an order isomorphism is decided by phi against the pop "
            "recursion, and the order check runs, only up to bijection_sum"
            % (level, b["order_sum"], b["bijection_sum"])
        )
        assert b["mirror_sum"] <= b["bijection_sum"], (
            "%s: mirror_sum %d > bijection_sum %d: the mirror matching count is decided by the counting theorem "
            "only up to bijection_sum" % (level, b["mirror_sum"], b["bijection_sum"])
        )


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
