import argparse
import ast
import builtins
import contextlib
import hashlib
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

import qrationals
from qrationals import _oracle, cli, fence, markoff, qpoly, snake, verify, words
from qrationals._oracle import Mat2
from qrationals.cf import cf_even, rational_of_word, rationals_with_sum_upto
from qrationals.cli import main
from qrationals.fence import enumerate_ideals, fence_of_rational
from qrationals.markoff import markoff_of
from qrationals.numeration import numeration_rows
from qrationals.qpoly import Q, ZERO
from qrationals.snake import enumerate_matchings, matching_edges, snake_of_rational
from qrationals.words import christoffel, theta


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects option-like tokens itself
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv, expected",
    (
        (("qrat", "7/2"), "(q^4+q^3+2q^2+2q+1)/(q+1)"),
        (("qrat", "1/1"), "1/1"),
        (("qrat", "2/7"), "(q^4+q^3)/(q^4+2q^3+2q^2+q+1)"),
        (("rep", "3", "--cf", "[2;2,2]"), "2,2,1"),
        (("val", "0,0,0", "--cf", "[2;2,2]"), "0"),
        (("rep", "-8", "--cf", "[1;1,1,1,1,1]"), "1,1,1,1,1,1"),
        (("enum", "matchings", "2/7", "--count"), "perp=2 par=7 total=9"),
        (("markoff", "--word", "00101"), "194"),
        (("tree", "sb", "--depth", "1"), "1/2 2"),
    ),
)
def test_documented_outputs(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected + "\n"


README_EXAMPLES = (
    (("qrat", "7/2"), "(q^4+q^3+2q^2+2q+1)/(q+1)"),
    (("rep", "3", "--cf", "[2;2,2]"), "2,2,1"),
    (("val", "2,2,1", "--cf", "[2;2,2]"), "3"),
    (("enum", "matchings", "2/7", "--count"), "perp=2 par=7 total=9"),
    (("markoff", "--word", "00101"), "194"),
    (("tree", "sb", "--depth", "2"), "1/3 2/3 3/2 3"),
)


def test_readme_examples_do_not_rest_on_asserts():
    # python -O strips every assert, so no printed result may depend on one
    script = (
        "import sys\n"
        "from qrationals.cli import main\n"
        "for argv in %r:\n"
        "    if main(list(argv)):\n"
        "        sys.exit(1)\n" % ([argv for argv, _ in README_EXAMPLES],)
    )
    src = os.path.dirname(os.path.dirname(qrationals.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(out + "\n" for _, out in README_EXAMPLES).encode()


# Each golden is written compact; the CLI prints it at indent 2.
@pytest.mark.parametrize(
    "argv, golden",
    (
        (("rep", "3", "--cf", "[2;2,2]"), '{"cf": [2, 2, 2], "n": 3, "digits": [2, 2, 1]}'),
        (("val", "2,2,1", "--cf", "[2;2,2]"), '{"cf": [2, 2, 2], "digits": [2, 2, 1], "n": 3}'),
        (("enum", "ideals", "3/2"), '{"x": "3/2", "ideals": [[], [0], [2], [0, 2], [0, 1, 2]]}'),
        (("enum", "ideals", "3/2", "--count"), '{"filled": 3, "empty": 2, "total": 5}'),
        (
            ("enum", "matchings", "2"),
            '{"x": "2", "matchings": ['
            '{"class": "par", "area": 0, "edges": [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[2, 0], [2, 1]]]}, '
            '{"class": "perp", "area": 1, "edges": [[[1, 0], [1, 1]], [[0, 0], [0, 1]], [[2, 0], [2, 1]]]}, '
            '{"class": "perp", "area": 2, "edges": [[[0, 0], [0, 1]], [[1, 0], [2, 0]], [[1, 1], [2, 1]]]}]}',
        ),
        (("enum", "matchings", "3/2", "--count"), '{"perp": 3, "par": 2, "total": 5}'),
        (("tree", "cw", "--depth", "2"), '{"kind": "cw", "depth": 2, "level": ["1/3", "3/2", "2/3", "3"]}'),
        (("markoff", "--word", "01"), '{"word": "01", "number": 5}'),
        (
            ("markoff", "--word", "01", "--table"),
            '{"word": "01", "number": 5, "q_polynomial": {"0": 1, "1": 1, "2": 2, "3": 1}, '
            '"snake_word": "00", "matching_count": 5}',
        ),
        (
            ("qrat", "5/3", "--shift-check"),
            '{"x": "5/3", "num": {"0": 1, "1": 1, "2": 2, "3": 1}, "den": {"0": 1, "1": 1, "2": 1}, '
            '"shift_check": true}',
        ),
    ),
)
def test_json_goldens(capsys, argv, golden):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(golden), indent=2) + "\n"


def _listing(family, x):
    """The payload and text lines of `enum family x`, built as plain values:
    the digit rows, each ideal's elements, and each matching as a dict
    whose edges `matching_edges` lists."""
    if family == "admissible":
        a = cf_even(x)
        rows = numeration_rows(a)
        return {"cf": a, "rows": rows}, ["%d\t%s" % (n, ",".join(str(d) for d in b)) for n, b in rows]
    if family == "ideals":
        f = fence_of_rational(x)
        ideals = [[i for i in range(f.size) if m >> i & 1] for m in enumerate_ideals(f)]
        return {"x": str(x), "ideals": ideals}, ["{%s}" % ",".join(str(i) for i in ideal) for ideal in ideals]
    g = snake_of_rational(x)
    rows = [
        {"class": g.classify(m), "area": area, "edges": matching_edges(g, m)}
        for m, area in enumerate_matchings(g, area=True)
    ]
    label = {e: "(%d,%d)-(%d,%d)" % (e[0] + e[1]) for e in g.edges}
    lines = [
        "class=%s area=%d edges=%s" % (row["class"], row["area"], ",".join(label[e] for e in row["edges"]))
        for row in rows
    ]
    return {"x": str(x), "matchings": rows}, lines


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in README_EXAMPLES]
    + [("enum", family, "34/55") for family in ("admissible", "ideals", "matchings")]
    + [("table", "84/37")],
)
def test_json_output_is_json_dumps_of_the_payload(capsys, argv):
    if argv[0] == "enum" and "--count" not in argv:
        # a listing's payload is its JSON text, so the payload it writes is built here
        payload, _ = _listing(argv[1], Fraction(argv[2]))
    else:
        args = cli._build_parser().parse_args(list(argv) + ["--format", "json"])
        payload, _, _ = args.func(args)
    assert run(capsys, *argv, "--format", "json") == (0, json.dumps(payload, indent=2) + "\n", "")


def _word_of_four_runs(rng, n):
    """A random n-letter word of four runs: a random 30-letter word has
    some 10^5 matchings, too many for one listing."""
    cuts = [0] + sorted(rng.sample(range(1, n), 3)) + [n]
    first = rng.choice("01")
    return "".join((first if j % 2 == 0 else "10"[int(first)]) * (cuts[j + 1] - cuts[j]) for j in range(4))


@pytest.mark.parametrize("family", ("admissible", "ideals", "matchings"))
def test_listings_write_the_payload_and_lines_they_list(capsys, family):
    # rows are written a byte of their mask at a time: the 45 elements and
    # 136 edges of 45/1 and 1/45 span 6 and 17 bytes, the 31 and 94 of a
    # 30-letter word 4 and 12
    w = _word_of_four_runs(random.Random(3001), 30)
    assert len(w) == 30 and w.count("01") + w.count("10") == 3
    texts = [str(x) for x in rationals_with_sum_upto(40)] + ["45", "1/45", str(rational_of_word(w))]
    assert {"1", "5", "1/5"} <= set(texts)
    for text in texts:
        payload, lines = _listing(family, Fraction(text))
        assert run(capsys, "enum", family, text) == (0, "".join(line + "\n" for line in lines), ""), text
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "enum", family, text, "--format", "json") == (0, expected, ""), text


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.text()
    | st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
)


_SHARED = (3, 4)


@given(json_values)
# equal tuples that hash alike but are written differently
@example([(1, 2), (True, 2)])
@example([(1,), (1.0,)])
@example([(0,), (-0.0,)])
@example([((1, 2), (3, 4)), ((True, 2), (3, 4))])
# one tuple object at two depths, in a list and in a dict
@example([_SHARED, [_SHARED], {"a": _SHARED, "b": [[_SHARED]]}, _SHARED])
@example({"a": _SHARED, "b": {"c": _SHARED}, "d": [_SHARED, (_SHARED, _SHARED)]})
# empty tuples among non-empty ones
@example([(), (1,), ((), ()), ((),), (1, ()), ()])
# lists and tuples of ints only, and ints among other values
@example([[1, 2, 3], (4, 5), [6, True], (7, "8"), [9, 10.0], (-(10**30), 0), [None, 1]])
def test_json_writer_is_json_dumps_at_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_renders_each_edge_once(capsys, monkeypatch):
    # 68/161 has 229 matchings of an 11-letter snake with 37 edges; the
    # listing writes each edge's JSON once, by one format string, and makes
    # no `_json` call per edge or per row: its one call writes x
    calls = []
    depth = [0]
    write = cli._json

    def counting(*args):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return write(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cli, "_json", counting)
    code, out, _ = run(capsys, "enum", "matchings", "68/161", "--format", "json")
    matchings = len(json.loads(out)["matchings"])
    assert (code, matchings) == (0, 229)
    assert len(snake_of_rational(Fraction(68, 161)).edges) == 37
    assert calls == [0]


@pytest.mark.parametrize("family", ("admissible", "ideals", "matchings"))
def test_text_listings_build_no_json(capsys, monkeypatch, family):
    def refuse(*args):
        raise AssertionError("a text listing built JSON")

    monkeypatch.setattr(cli, "_json", refuse)
    _, lines = _listing(family, Fraction(68, 161))
    assert run(capsys, "enum", family, "68/161") == (0, "".join(line + "\n" for line in lines), "")


def test_two_calls_build_one_parser(capsys, monkeypatch):
    # a well-formed argv is read without argparse; two argv left to it
    # build one parser tree between them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "qrat", "7/2") == (0, "(q^4+q^3+2q^2+2q+1)/(q+1)\n", "")
    assert run(capsys, "tree", "sb", "--depth", "1") == (0, "1/2 2\n", "")
    assert built == []
    code, out, _ = run(capsys, "qrat", "--format=json", "7/2")
    assert (code, json.loads(out)["x"]) == (0, "7/2")
    one_tree = len(built)
    assert run(capsys, "tree", "sb", "--depth=1") == (0, "1/2 2\n", "")
    assert one_tree > 0 and len(built) == one_tree


# One well-formed argv per subcommand, `enum` family and format, but verify.
ONE_SHOT_ARGVS = [
    ["qrat", "7/2"],
    ["qrat", "5/3", "--shift-check", "--format", "json"],
    ["rep", "3", "--cf", "[2;2,2]"],
    ["rep", "-8", "--cf", "[1;1,1,1,1,1]", "--format", "json"],
    ["val", "2,2,1", "--cf", "[2;2,2]"],
    ["val", "2,2,1", "--cf", "[2;2,2]", "--format", "json"],
    *(["enum", family, "84/37"] for family in ("admissible", "ideals", "matchings")),
    *(["enum", family, "84/37", "--format", "json"] for family in ("admissible", "ideals", "matchings")),
    ["enum", "ideals", "84/37", "--count"],
    ["enum", "matchings", "84/37", "--count", "--format", "json"],
    ["render", "snake", "7/2"],
    ["render", "fence", "7/2", "--format", "dot"],
    ["table", "84/37"],
    ["table", "84/37", "--format", "json"],
    ["markoff", "--word", "00101", "--table"],
    ["markoff", "--upto", "5000", "--format", "json"],
    ["tree", "sb", "--depth", "3"],
    ["tree", "cw", "--depth", "3", "--format", "json"],
]

# Modules that no one-shot command loads: argparse is left to refused
# argv, and json, fractions (with decimal and numbers) to verify.
UNLOADED = ("argparse", "json", "fractions", "decimal", "numbers")


def _one_shot_runs(imports, watched):
    """For each of ONE_SHOT_ARGVS in turn, run by `main` in one fresh
    interpreter after `imports`: its exit code, its output and the
    modules of `watched` loaded by then."""
    script = (
        "import io, sys\n"
        "sys.path.insert(0, %r)\n"
        "for name in %r:\n"
        "    __import__(name)\n"
        "from qrationals.cli import main\n"
        "out = sys.stdout\n"
        "for argv in %r:\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = main(argv)\n"
        "    text, sys.stdout = sys.stdout.getvalue(), out\n"
        "    print(repr((code, text, [m for m in %r if m in sys.modules])))\n"
        % (os.path.dirname(os.path.dirname(qrationals.__file__)), imports, ONE_SHOT_ARGVS, watched)
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [ast.literal_eval(line) for line in proc.stdout.splitlines()]


def _in_process(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, out


def test_import_and_a_well_formed_call_load_no_argparse(capsys):
    modules = ["qrationals." + m.name for m in pkgutil.iter_modules(qrationals.__path__)]
    runs = _one_shot_runs(modules, UNLOADED)
    assert len(runs) == len(ONE_SHOT_ARGVS)
    for argv, (code, out, loaded) in zip(ONE_SHOT_ARGVS, runs):
        assert ((code, out), loaded) == (_in_process(capsys, argv), []), argv


def test_a_one_shot_command_loads_no_verify(capsys):
    # verify and its oracles are imported by the verify subcommand alone
    runs = _one_shot_runs(["qrationals.cli"], UNLOADED + ("qrationals.verify", "qrationals._oracle"))
    assert len(runs) == len(ONE_SHOT_ARGVS)
    for argv, (code, out, loaded) in zip(ONE_SHOT_ARGVS, runs):
        assert ((code, out), loaded) == (_in_process(capsys, argv), []), argv


def test_library_paths_import_nothing(monkeypatch):
    # a function-local import costs about a microsecond a call, so the
    # paths a one-shot command runs import nothing, on an int or a Fraction
    def refuse(name, *args, **kwargs):
        raise AssertionError("imported %s" % name)

    def paths(x):
        a = cf_even(x)
        return a, qpoly.q_rational(x), qpoly.theorem_pair(a), fence.rank_polynomials(x), snake.prefix_suffix_table(x)

    for x in (5, Fraction(84, 37)):
        expected = paths(x)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "__import__", refuse)
            got = paths(x)
        assert got == expected


def test_val_writes_a_value_of_4300_digits(capsys):
    nines = "9" * 4300
    assert run(capsys, "val", nines, "--cf", "[%s]" % nines) == (0, nines + "\n", "")


def _argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


# the README examples and one argv per subcommand, format and flag
WELL_FORMED = [argv for argv, _ in README_EXAMPLES] + [
    ("qrat", "7/2", "--shift-check", "--format", "json"),
    ("qrat", "--format", "text", "5/3"),
    ("rep", "-8", "--cf", "[1;1,1,1,1,1]", "--format", "json"),
    ("val", "--cf", "[2;2,2]", "2,2,1", "--format", "text"),
    ("enum", "admissible", "3/2", "--format", "json"),
    ("enum", "--count", "ideals", "3/2"),
    ("enum", "matchings", "--format", "json", "2"),
    ("render", "snake", "5/2"),
    ("render", "fence", "5/2", "--format", "dot"),
    ("render", "--format", "svg", "fence", "5/2"),
    ("table", "84/37", "--format", "json"),
    ("markoff", "--upto", "1000", "--format", "json"),
    ("markoff", "--word", "01", "--table"),
    ("markoff", "--table", "--word", "01", "--format", "text"),
    ("tree", "cw", "--depth", "-1", "--format", "json"),
    ("verify", "--level", "deep", "--format", "json"),
    ("verify",),
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_reader_reads_well_formed_argv_as_argparse(argv):
    namespace = cli._parse(argv)
    assert namespace is not None
    assert vars(namespace) == _argparse_namespace(argv)


_TEXTS = ("7/2", "5/3", "2", "[2;2,2]", "2,2,1", "01", "00101", "json", "sb", "-3", "0", "x y")
_HOSTILE = (
    "-",
    "-x",
    "--x",
    "-3/2",
    "-h",
    "--help",
    "--format=json",
    "--form",
    "--",
    "-5",
    "-\u0663",
    "-\u00b2",
    "+5",
    " 5 ",
    "3_0",
    "\u0663",
    "9" * 4301,
    "",
    "--upto",
    "--word",
    "--cf",
    "--depth",
    "--count",
    "qrat",
)


def _values(kind, well_formed):
    values = st.integers(-(10**6), 10**6).map(str) if kind is int else st.sampled_from(kind or _TEXTS)
    return values if well_formed else values | st.sampled_from(_HOSTILE)


@st.composite
def command_argv(draw):
    """(argv, well_formed): an argv drawn from `cli._COMMANDS`.  Unless it
    is well formed, hostile values and tokens are put in and tokens are
    repeated or dropped."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, positionals, options = cli._COMMANDS[name]
    well_formed = draw(st.booleans())
    given = [[draw(_values(kind, well_formed))] for _, kind in positionals]
    pair = draw(st.sampled_from([o for o, _, _, r in options if type(r) is str] or [None]))
    chosen = []
    for option, kind, _, required in options:
        if required is True or option == pair or required is False and draw(st.booleans()):
            chosen.append([option] if kind is bool else [option, draw(_values(kind, well_formed))])
    # the positionals in their order, the options in any order among them
    slots = draw(st.permutations([True] * len(given) + [False] * len(chosen)))
    given, chosen = iter(given), iter(draw(st.permutations(chosen)))
    tokens = [name] + [token for slot in slots for token in next(given if slot else chosen)]
    if not well_formed:
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(tokens)))
            edit = draw(st.sampled_from(("insert", "repeat", "drop")))
            if edit == "insert":
                tokens.insert(at, draw(st.sampled_from(_HOSTILE)))
            elif edit == "repeat" and at < len(tokens):
                tokens.insert(at, tokens[at])
            elif at < len(tokens):
                del tokens[at]
    return tokens, well_formed


@given(command_argv())
@example((["qrat", "7/2", "--form", "json"], False))
@example((["qrat", "--format=json", "7/2"], False))
@example((["qrat", "--", "7/2"], False))
@example((["tree", "sb", "--depth", "1", "--depth", "2"], False))
@example((["markoff", "--upto", "5", "--word", "01"], False))
@example((["rep", "3"], False))
@example((["tree", "sb"], False))
@example((["rep", "9" * 4301, "--cf", "[2;2,2]"], False))
@example((["tree", "sb", "--depth", "-\u0663"], False))
@example((["tree", "sb", "--depth", "\u0663"], False))
@example((["rep", "3_0", "--cf", "[2;2,2]"], False))
@example((["rep", "+5", "--cf", "[2;2,2]", "--format", "json"], False))
@example((["rep", " 5 ", "--cf", ""], False))
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_argparse(drawn):
    # where the reader reads an argv it is argparse's namespace, and where
    # argparse exits the reader has refused
    argv, well_formed = drawn
    namespace = cli._parse(argv)
    expected = _argparse_namespace(argv)
    if well_formed:
        assert namespace is not None
    if namespace is not None:
        assert vars(namespace) == expected
    if expected is None:
        assert namespace is None


def test_shift_check(capsys):
    code, out, _ = run(capsys, "qrat", "5/3", "--shift-check")
    assert code == 0
    assert out.splitlines() == ["(q^3+2q^2+q+1)/(q^2+q+1)", "shift-check ok"]


def test_shift_check_expands_its_rational_once(capsys, monkeypatch):
    # x + 1 is the expansion `_parse_rational` read with a_0 raised by one,
    # and the check reuses the q-rational of x that qrat prints: the kernel
    # runs once for x and once for x + 1
    def refuse(x):
        raise AssertionError("cf_even was called")

    expanded = []

    def counted(a):
        expanded.append(a)
        return q_rational(a)

    q_rational = qpoly._q_rational
    monkeypatch.setattr(qrationals.cf, "cf_even", refuse)
    monkeypatch.setattr(qpoly, "_q_rational", counted)
    monkeypatch.setattr(cli, "_q_rational", counted)
    code, out, _ = run(capsys, "qrat", "5/3", "--shift-check")
    assert code == 0
    assert out.splitlines() == ["(q^3+2q^2+q+1)/(q^2+q+1)", "shift-check ok"]
    assert expanded == [(1, 1, 1, 1), (2, 1, 1, 1)]


def test_enum_admissible_rows(capsys):
    code, out, _ = run(capsys, "enum", "admissible", "2/7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-4\t0,3,1,1"
    assert lines[-1] == "4\t0,0,1,0"
    assert len(lines) == 9


def test_enum_admissible_count(capsys):
    code, out, _ = run(capsys, "enum", "admissible", "2/7", "--count")
    assert code == 0
    assert out == "filled=2 empty=7 total=9\n"


def test_enum_admissible_count_values_no_vector(capsys, monkeypatch):
    def refuse(b, a):
        raise AssertionError("--count needs no valuation")

    monkeypatch.setattr(cli, "val", refuse)
    code, out, _ = run(capsys, "enum", "admissible", "84/37", "--count")
    assert code == 0
    assert out == "filled=84 empty=37 total=121\n"


def test_enum_count_is_the_counting_theorem_with_no_scan(capsys, monkeypatch):
    """Each family of r/s splits as (r, s): the scan's counts, computed
    first, are printed again with every scan made to raise."""
    r, s = _fibonacci(2001), _fibonacci(2000)
    texts = [str(x) for x in rationals_with_sum_upto(12)] + ["%d/%d" % (r, s), "%d/%d" % (s, r)]
    expected = {}
    for text in texts:
        m, n = snake.matching_counts(snake.snake_word(Fraction(text)))
        for family in ("admissible", "ideals", "matchings"):
            first, second = ("perp", "par") if family == "matchings" else ("filled", "empty")
            expected[text, family, "text"] = "%s=%d %s=%d total=%d\n" % (first, m, second, n, m + n)
            expected[text, family, "json"] = json.dumps({first: m, second: n, "total": m + n}, indent=2) + "\n"

    def refuse(*args):
        raise AssertionError("--count runs no scan")

    for module, name in ((snake, "matching_counts"), (snake, "_path_scan"), (fence, "_path_scan")):
        monkeypatch.setattr(module, name, refuse)
    for (text, family, fmt), want in expected.items():
        assert run(capsys, "enum", family, text, "--count", "--format", fmt) == (0, want, ""), (text, family, fmt)


def test_enum_ideals(capsys):
    code, out, _ = run(capsys, "enum", "ideals", "2/7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "{}"
    assert len(lines) == 9


def test_enum_json_round_trip(capsys):
    code, out, _ = run(capsys, "enum", "admissible", "2/7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cf"] == [0, 3, 1, 1]
    assert data["rows"][0] == [-4, [0, 3, 1, 1]]
    assert len(data["rows"]) == 9


def test_qrat_json(capsys):
    code, out, _ = run(capsys, "qrat", "7/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["x"] == "7/2"
    assert data["num"] == {"0": 1, "1": 2, "2": 2, "3": 1, "4": 1}
    assert data["den"] == {"0": 1, "1": 1}


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "84/37")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word\t1001000110"
    assert lines[1] == "len\tprefix_perp\tprefix_par\tsuffix_perp\tsuffix_par"
    assert lines[2] == "0\t1\t1\t1\t1"
    assert lines[-1] == "10\t84\t37\t84\t37"
    assert len(lines) == 13


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_table_of_a_long_word(capsys):
    r, s = _fibonacci(151), _fibonacci(150)
    code, text, _ = run(capsys, "table", "%d/%d" % (r, s))
    assert code == 0
    lines = text.splitlines()
    w = lines[0].split("\t")[1]
    rows = [tuple(int(c) for c in line.split("\t")) for line in lines[2:]]
    code, out, _ = run(capsys, "table", "%d/%d" % (r, s), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == w and len(w) == 149
    assert [[pre, par] for _, pre, par, _, _ in rows] == data["prefixes"]
    assert [[suf, par] for _, _, _, suf, par in rows] == data["suffixes"]
    assert data["prefixes"][-1] == data["suffixes"][-1] == [r, s]
    for j in (0, 1, 2, 37, 74, 111, 148):
        for row, v in ((data["prefixes"][j], w[:j]), (data["suffixes"][j], w[len(w) - j:])):
            y = rational_of_word(theta(v))
            assert row == [y.numerator, y.denominator]


# `table` output, text and JSON (the JSON written compact)
TABLE_84_37 = (
    "word\t1001000110\n"
    "len\tprefix_perp\tprefix_par\tsuffix_perp\tsuffix_par\n"
    "0\t1\t1\t1\t1\n"
    "1\t1\t2\t2\t1\n"
    "2\t3\t1\t3\t1\n"
    "3\t2\t5\t3\t4\n"
    "4\t7\t3\t3\t7\n"
    "5\t4\t9\t10\t7\n"
    "6\t16\t7\t10\t17\n"
    "7\t11\t25\t10\t27\n"
    "8\t34\t15\t10\t37\n"
    "9\t26\t59\t47\t37\n"
    "10\t84\t37\t84\t37\n"
)

TABLE_84_37_JSON = (
    '{"word":"1001000110","prefixes":[[1,1],[1,2],[3,1],[2,5],[7,3],[4,9],[16,7],[11,25],'
    '[34,15],[26,59],[84,37]],"suffixes":[[1,1],[2,1],[3,1],[3,4],[3,7],[10,7],[10,17],'
    '[10,27],[10,37],[47,37],[84,37]]}'
)

TABLE_F31_F30 = (
    "word\t00000000000000000000000000000\n"
    "len\tprefix_perp\tprefix_par\tsuffix_perp\tsuffix_par\n"
    "0\t1\t1\t1\t1\n"
    "1\t2\t1\t2\t1\n"
    "2\t2\t3\t2\t3\n"
    "3\t5\t3\t5\t3\n"
    "4\t5\t8\t5\t8\n"
    "5\t13\t8\t13\t8\n"
    "6\t13\t21\t13\t21\n"
    "7\t34\t21\t34\t21\n"
    "8\t34\t55\t34\t55\n"
    "9\t89\t55\t89\t55\n"
    "10\t89\t144\t89\t144\n"
    "11\t233\t144\t233\t144\n"
    "12\t233\t377\t233\t377\n"
    "13\t610\t377\t610\t377\n"
    "14\t610\t987\t610\t987\n"
    "15\t1597\t987\t1597\t987\n"
    "16\t1597\t2584\t1597\t2584\n"
    "17\t4181\t2584\t4181\t2584\n"
    "18\t4181\t6765\t4181\t6765\n"
    "19\t10946\t6765\t10946\t6765\n"
    "20\t10946\t17711\t10946\t17711\n"
    "21\t28657\t17711\t28657\t17711\n"
    "22\t28657\t46368\t28657\t46368\n"
    "23\t75025\t46368\t75025\t46368\n"
    "24\t75025\t121393\t75025\t121393\n"
    "25\t196418\t121393\t196418\t121393\n"
    "26\t196418\t317811\t196418\t317811\n"
    "27\t514229\t317811\t514229\t317811\n"
    "28\t514229\t832040\t514229\t832040\n"
    "29\t1346269\t832040\t1346269\t832040\n"
)

TABLE_F31_F30_JSON = (
    '{"word":"00000000000000000000000000000","prefixes":[[1,1],[2,1],[2,3],[5,3],[5,8],'
    '[13,8],[13,21],[34,21],[34,55],[89,55],[89,144],[233,144],[233,377],[610,377],'
    '[610,987],[1597,987],[1597,2584],[4181,2584],[4181,6765],[10946,6765],[10946,17711],'
    '[28657,17711],[28657,46368],[75025,46368],[75025,121393],[196418,121393],'
    '[196418,317811],[514229,317811],[514229,832040],[1346269,832040]],"suffixes":[[1,1],'
    '[2,1],[2,3],[5,3],[5,8],[13,8],[13,21],[34,21],[34,55],[89,55],[89,144],[233,144],'
    '[233,377],[610,377],[610,987],[1597,987],[1597,2584],[4181,2584],[4181,6765],'
    '[10946,6765],[10946,17711],[28657,17711],[28657,46368],[75025,46368],[75025,121393],'
    '[196418,121393],[196418,317811],[514229,317811],[514229,832040],[1346269,832040]]}'
)


@pytest.mark.parametrize(
    "rational, text, golden",
    (
        ("84/37", TABLE_84_37, TABLE_84_37_JSON),
        ("1346269/832040", TABLE_F31_F30, TABLE_F31_F30_JSON),
    ),
)
def test_table_goldens(capsys, rational, text, golden):
    assert run(capsys, "table", rational) == (0, text, "")
    expected = json.dumps(json.loads(golden), indent=2) + "\n"
    assert run(capsys, "table", rational, "--format", "json") == (0, expected, "")


# Outputs too long to inline, pinned by length and sha256: the tall
# rational [297; 301, 299, 1] (898 and 601 terms), F_41/F_40 and the
# 40-letter Christoffel word christoffel(13, 27).
DIGEST_GOLDENS = (
    (("qrat", "26819697/90301"), 14432, "10872024f7123bb788d4c5fc2083ea8652cfd587436e7c6fbd5315335733a0ba"),
    (("qrat", "26819697/90301", "--format", "json"), 24992, "0f9217e129a3f76baed4d689f1ba9023aea89f7ec4de0ddb3314a0531a00d41f"),
    (("qrat", "165580141/102334155"), 814, "ab07628b2e6442b56ad13e096ad6a51a4903ce911e00c478a9936100a882b8f6"),
    (("qrat", "165580141/102334155", "--format", "json"), 1438, "cedb9e0b471e7103a7cda989ea7f4c8d491d2203591f7b878469dec043571208"),
    (("markoff", "--word", christoffel(13, 27), "--table"), 3352, "bbedc0f0c8376d840657c185221baa1f194dcfa33a8d7cadc5c82ae6a8e97fa8"),
    (
        ("markoff", "--word", christoffel(13, 27), "--table", "--format", "json"),
        4324,
        "b0d3f576767a046cf1f9bb01de163d3dab52a9251d8e8839f1e214f6aa460633",
    ),
)


@pytest.mark.parametrize("argv, length, digest", DIGEST_GOLDENS)
def test_digest_goldens(capsys, argv, length, digest):
    code, out, err = run(capsys, *argv)
    data = out.encode()
    assert (code, err) == (0, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)


def test_markoff_upto(capsys):
    code, out, _ = run(capsys, "markoff", "--upto", "200")
    assert code == 0
    assert out == "1,2,5,13,29,34,89,169,194\n"


def test_markoff_table(capsys):
    code, out, _ = run(capsys, "markoff", "--word", "01", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("word\tnumber")
    assert lines[1] == "01\t5\tq^3+2q^2+q+1\t00\t5"


def test_markoff_word_of_forty_letters_is_the_integer_product(capsys, monkeypatch):
    def refuse(w):
        raise AssertionError("the number alone needs no table row")

    monkeypatch.setattr(cli, "markoff_row", refuse)
    w = christoffel(13, 27)
    assert len(w) == 40
    code, out, _ = run(capsys, "markoff", "--word", w)
    assert code == 0
    assert out == "%d\n" % markoff_of(w)


def test_markoff_upto_rejects_table(capsys):
    code, _, err = run(capsys, "markoff", "--upto", "10", "--table")
    assert code == 2
    assert "needs --word" in err


def test_tree_levels(capsys):
    code, out, _ = run(capsys, "tree", "cw", "--depth", "2")
    assert code == 0
    assert out == "1/3 3/2 2/3 3\n"
    code, out, _ = run(capsys, "tree", "sb", "--depth", "0")
    assert out == "1\n"


def test_render_fence_dot(capsys):
    code, out, _ = run(capsys, "render", "fence", "4/5", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_render_snake_svg(capsys):
    code, out, _ = run(capsys, "render", "snake", "2/7")
    assert code == 0
    assert out.startswith("<svg")


def test_render_snake_rejects_dot(capsys):
    code, _, err = run(capsys, "render", "snake", "2/7", "--format", "dot")
    assert code == 2
    assert "svg only" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("qrat", "7/0"),
        ("qrat", "-3/2"),
        ("qrat", "x"),
        ("rep", "99", "--cf", "[2;2,2]"),
        ("rep", "3", "--cf", "2;2"),
        ("val", "1,2,0", "--cf", "[2;2,2]"),
        ("tree", "sb", "--depth", "-1"),
        ("tree", "cw", "--depth", "30"),
        ("enum", "matchings", "1/100000"),
        ("enum", "ideals", "75025/46368"),
        ("enum", "admissible", "1000000/999999", "--format", "json"),
    ),
)
def test_parse_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    (
        (("markoff", "--word", "0a1"), "not a binary word: 'a' at position 2 of 3"),
        (("markoff", "--word", "0" * 1999 + "a"), "not a binary word: 'a' at position 2000 of 2000"),
        (("qrat", "7/x"), "not a rational: 'x' at position 3 of 3"),
        (("qrat", "x" * 5000), "not a rational: 'x' at position 1 of 5000"),
        (("qrat", "7/0"), "not a rational: a text of length 3"),
        (("qrat", "--", "-3/2"), "need a positive rational, got a negative one"),
        (("qrat", "--", "-" + "9" * 4000), "need a positive rational, got a negative one"),
        (("qrat", "0"), "need a positive rational, got 0"),
        (("val", "1,x", "--cf", "[2;2,2]"), "digits must be comma-separated integers, got 'x' at position 3 of 3"),
        (
            ("val", "1," * 2499 + "x,", "--cf", "[2;2,2]"),
            "digits must be comma-separated integers, got 'x' at position 4999 of 5000",
        ),
        (("rep", "3", "--cf", "2;2"), "expected [a0;a1,...], got a text of length 3"),
        (("rep", "3", "--cf", "[2;a]"), "expected [a0;a1,...], got 'a' at position 4 of 5"),
        (("rep", "3", "--cf", "[" + "1," * 2498 + "x]"), "expected [a0;a1,...], got 'x' at position 4998 of 4999"),
        (("rep", "3", "--cf", "[2;2,2,0]"), "invalid partial quotients: a_3 < 1 in an expansion of length 4"),
        (("rep", "3", "--cf", "[0]"), "[0] does not expand a positive rational"),
        (("rep", "3", "--cf", "[2;-2]"), "invalid partial quotients: a_1 < 1 in an expansion of length 2"),
    ),
)
def test_parse_errors_name_the_input_by_length_and_first_bad_position(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert len(err.encode()) < 120


def _ones(k):
    """[1;1,...,1] with k partial quotients, 2k - 1 characters."""
    return "[1;" + ",".join(["1"] * (k - 1)) + "]"


@pytest.mark.parametrize(
    "argv, message",
    (
        (
            ("qrat", "1" * 2500 + "/" + "1" * 2499),
            "the word of a 2500/2499-digit rational has more than 10^9 letters, over the limit of 2000 letters",
        ),
        (
            ("enum", "ideals", "1" + "0" * 3000, "--count"),
            "the word of a 3001/1-digit rational has more than 10^9 letters, over the limit of 2000 letters",
        ),
        (
            ("rep", "9" * 4300, "--cf", _ones(2500)),
            "a 4300-digit integer outside [a negative 523-digit integer, a 523-digit integer)",
        ),
        (
            ("rep", "-" + "9" * 4299, "--cf", _ones(2499)),
            "a negative 4299-digit integer outside [0, a 523-digit integer)",
        ),
        (("rep", "17", "--cf", "[2;2,2]"), "17 outside [0, 17)"),
        (
            ("val", ",".join(["7"] * 2500), "--cf", _ones(2500)),
            "digits not admissible for an expansion of length 2500: b_0 is outside [0, a_0]",
        ),
        (
            ("val", "1,2,1", "--cf", "[2;2,2]"),
            "digits not admissible for an expansion of length 3: b_1 = a_1 but b_0 != a_0",
        ),
        (
            ("val", "1,1,0", "--cf", "[2;2,2]"),
            "digits not admissible for an expansion of length 3: b_2 = 0 but b_1 != 0",
        ),
        # valid digits whose value str() would refuse to write, in either format
        (
            ("val", "1,1," + "9" * 4000, "--cf", "[1;%s,%s]" % ("9" * 4000, "9" * 4000)),
            "the value is a 8001-digit integer, over the limit of 4300 digits",
        ),
        (
            ("val", "1,1," + "9" * 4000, "--cf", "[1;%s,%s]" % ("9" * 4000, "9" * 4000), "--format", "json"),
            "the value is a 8001-digit integer, over the limit of 4300 digits",
        ),
    ),
)
def test_refusals_name_long_numbers_by_their_digit_counts(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert len(err.encode()) < 120


@pytest.mark.parametrize(
    "argv, message",
    (
        (("rep", "9" * 4301, "--cf", "[2;2,2]"), "argument n: not an int: a text of length 4301"),
        (("tree", "sb", "--depth", "x" * 5000), "argument --depth: not an int: 'x' at position 1 of 5000"),
        (("markoff", "--upto", "1" * 4400), "argument --upto: not an int: a text of length 4400"),
    ),
)
def test_refused_int_arguments_are_named_by_length(capsys, monkeypatch, argv, message):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(" error: %s\n" % message)
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv, message",
    (
        (("rep", "abc", "--cf", "[2;2,2]"), "argument n: invalid int value: 'abc'"),
        (("markoff", "--upto", "1" * 39 + "x"), "argument --upto: invalid int value: '%sx'" % ("1" * 39)),
        (("markoff", "--upto", "1" * 40 + "x"), "argument --upto: not an int: 'x' at position 41 of 41"),
    ),
)
def test_refused_int_arguments_of_at_most_40_characters_are_echoed(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(" error: %s\n" % message)


# int() alone reads any Unicode decimal digit, and "_" between digits:
# "\u0663/\u0662" (Arabic-Indic) would be 3/2 and "3_0/2" would be 15.
@pytest.mark.parametrize(
    "text, named",
    (
        ("\u0663/\u0662", "'\u0663' at position 1 of 3"),
        ("3/\uff12", "'\uff12' at position 3 of 3"),
        ("3_0/2", "'_' at position 2 of 5"),
        ("1" * 50 + "_0", "'_' at position 51 of 52"),
    ),
)
def test_parse_rational_reads_ascii_digits_only(capsys, text, named):
    code, out, err = run(capsys, "qrat", text)
    assert (code, out, err) == (2, "", "error: not a rational: %s\n" % named)


def _reading_by_fraction(text):
    """What the CLI reads from a rational's text, by `Fraction` as it once
    read it: the Fraction, or the message of its refusal."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            x = Fraction(words._decimal(num), words._decimal(den))
        else:
            x = Fraction(words._decimal(text))
    except (ValueError, ZeroDivisionError):
        return "not a rational: %s" % words._summary(text, "0123456789/")
    if x <= 0:
        return "need a positive rational, got %s" % ("0" if x == 0 else "a negative one")
    letters = sum(cf_even(x)) - 1
    if letters <= cli.MAX_WORD_LENGTH:
        return x
    name = str(x)
    if len(name) > 40:
        name = "a %d/%d-digit rational" % (len(str(x.numerator)), len(str(x.denominator)))
    return "the word of %s has %s letters, over the limit of %d letters" % (
        name,
        letters if letters <= 10**9 else "more than 10^9",
        cli.MAX_WORD_LENGTH,
    )


# A part of a rational's text: a sign or spaces, a run of digits under or
# over 40 characters, and what int() alone would read in it.
_rational_parts = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "", "", "+", "-", " ", " -", "+ ", "--"]),
        st.sampled_from(["", "", "0", "00"]),
        st.one_of(st.text("0123456789", min_size=1, max_size=39), st.text("0123456789", min_size=41, max_size=80)),
        st.sampled_from(["", "", "", "", "", " ", "_0", "\u0662", "\uff12", "x", "/"]),
    ),
)


@given(
    st.one_of(
        _rational_parts,
        st.builds("%s/%s".__mod__, st.tuples(_rational_parts, _rational_parts)),
        st.sampled_from(["0/0", "3/0", "-3/-0", "0/-5", "-0", " 7 / 2 ", "-3/-2", "6/-4", "/", ""]),
    )
)
@settings(max_examples=300)
@example("6/4")
@example("-3/-2")
@example("1" * 2500 + "/" + "1" * 2499)
def test_the_rational_reader_reads_what_fraction_read(text):
    expected = _reading_by_fraction(text)
    if isinstance(expected, str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["qrat", "--", text])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: %s\n" % expected)
        return
    p, q, a = cli._parse_rational(text)
    assert (p, q, cli._rational_text(p, q)) == (expected.numerator, expected.denominator, str(expected))
    assert a == cf_even(expected)


@pytest.mark.parametrize(
    "text, named",
    (
        ("1,\u0662,1", "'\u0662' at position 3 of 5"),
        ("1,2_0,1", "'_' at position 4 of 7"),
    ),
)
def test_parse_digits_reads_ascii_digits_only(capsys, text, named):
    code, out, err = run(capsys, "val", text, "--cf", "[2;2,2]")
    assert (code, out, err) == (2, "", "error: digits must be comma-separated integers, got %s\n" % named)


@pytest.mark.parametrize(
    "argv, message",
    (
        # up to 40 characters argparse echoes the whole text, as for any refused int
        (("rep", "\u0663", "--cf", "[2;2,2]"), "argument n: invalid int value: '\u0663'"),
        (("rep", "3_0", "--cf", "[2;2,2]"), "argument n: invalid int value: '3_0'"),
        (("tree", "sb", "--depth", "\u0661" * 41), "argument --depth: not an int: '\u0661' at position 1 of 41"),
        (("markoff", "--upto", "1" * 40 + "_0"), "argument --upto: not an int: '_' at position 41 of 42"),
    ),
)
def test_int_arguments_read_ascii_digits_only(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(" error: %s\n" % message)


@pytest.mark.parametrize(
    "argv, message",
    (
        (
            ("enum", "a" * 3000, "5/2"),
            "argument family: invalid choice: a text of length 3000 (choose from 'admissible', 'ideals', 'matchings')",
        ),
        (
            ("b" * 3000,),
            "argument command: invalid choice: a text of length 3000 (choose from 'qrat', 'rep', 'val', 'enum', "
            "'render', 'table', 'markoff', 'tree', 'verify')",
        ),
        (("qrat", "5/2", "--" + "c" * 3000), "unrecognized arguments: a text of length 3002"),
        (("enum", "x'\"" * 1000, "5/2"), "argument family: invalid choice: a text of length 3000 (choose from "),
    ),
)
def test_argparse_refusals_name_long_tokens_by_length(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err.splitlines()[-1]
    assert len(err.encode()) < 400


def test_argparse_refusal_of_a_short_choice_is_argparse_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "enum", "ideal", "5/2") == (
        2,
        "",
        "usage: qrationals enum [-h] [--count] [--format {text,json}]\n"
        "                       {admissible,ideals,matchings} rational\n"
        "qrationals enum: error: argument family: invalid choice: 'ideal' "
        "(choose from 'admissible', 'ideals', 'matchings')\n",
    )


def test_listing_limit_names_a_long_rational_by_digit_counts(capsys):
    # F_2002/F_2001 has a word of 2,000 letters and a 419-digit r + s
    r, s = 1, 1
    for _ in range(2000):
        r, s = r + s, r
    code, out, err = run(capsys, "enum", "ideals", "%d/%d" % (r, s))
    assert (code, out) == (2, "")
    assert err == (
        "error: enum ideals a 419/418-digit rational would list a 419-digit integer objects of up "
        "to 2002 elements, over the limit of 1000000 elements; use --count\n"
    )
    assert len(err.encode()) < 200


@pytest.mark.parametrize("family", ("admissible", "ideals", "matchings"))
def test_listing_limit_suggests_count(capsys, monkeypatch, family):
    # 2/7 lists 9 objects of up to 6 elements: 54 is at the limit
    monkeypatch.setattr(cli, "MAX_LISTED_ELEMENTS", 54)
    assert run(capsys, "enum", family, "2/7")[0] == 0
    code, out, err = run(capsys, "enum", family, "3/7")
    assert (code, out) == (2, "")
    assert "use --count" in err
    assert run(capsys, "enum", family, "3/7", "--count")[0] == 0


@pytest.mark.parametrize(
    "argv",
    (
        ("qrat", "%s"),
        ("enum", "ideals", "%s", "--count"),
        ("enum", "admissible", "%s", "--count", "--format", "json"),
        ("render", "snake", "%s"),
        ("table", "%s"),
    ),
)
def test_word_length_limit(capsys, monkeypatch, argv):
    # 7/2 = [3; 2] has the 4-letter word 1110, and 9/2 = [4; 2] the 5-letter 11110
    monkeypatch.setattr(cli, "MAX_WORD_LENGTH", 4)
    assert run(capsys, *(arg.replace("%s", "7/2") for arg in argv))[0] == 0
    code, out, err = run(capsys, *(arg.replace("%s", "9/2") for arg in argv))
    assert (code, out) == (2, "")
    assert "the word of 9/2 has 5 letters, over the limit of 4 letters" in err


def test_markoff_table_word_length_limit(capsys, monkeypatch):
    # the snake word of 001 is 0 gamma(0) 0 = 0000, and that of 011 is 001100
    monkeypatch.setattr(cli, "MAX_WORD_LENGTH", 4)
    assert run(capsys, "markoff", "--word", "001", "--table")[0] == 0
    monkeypatch.setattr(cli, "markoff_row", None)
    code, out, err = run(capsys, "markoff", "--word", "011", "--table")
    assert (code, out) == (2, "")
    assert err == "error: the snake word of the Markoff word has 6 letters, over the limit of 4 letters\n"
    assert run(capsys, "markoff", "--word", "011")[0] == 0


def test_markoff_table_builds_its_snake_word_once(capsys, monkeypatch):
    built = []

    def counted(w):
        built.append(w)
        return words._gamma(w)

    monkeypatch.setattr(markoff, "_gamma", counted)
    code, out, _ = run(capsys, "markoff", "--word", "0010101", "--table")
    assert code == 0 and "\t0000110000110000\t" in out
    assert built == ["01010"]


def test_markoff_table_refuses_a_word_that_is_not_binary_before_its_length(capsys, monkeypatch):
    # 0a10 has 4 letters, and a snake word of 8 by its inner letters
    monkeypatch.setattr(cli, "MAX_WORD_LENGTH", 4)
    monkeypatch.setattr(cli, "markoff_row", None)
    code, out, err = run(capsys, "markoff", "--word", "0a10", "--table")
    assert (code, out) == (2, "")
    assert err == "error: not a binary word: 'a' at position 2 of 4\n"


@pytest.mark.parametrize("word", ("00101", "11011"))
@pytest.mark.parametrize("table", ((), ("--table",)))
def test_markoff_word_length_limit(capsys, monkeypatch, word, table):
    # 00101 is a Christoffel word and 11011 is not; neither is echoed
    monkeypatch.setattr(cli, "MAX_WORD_LENGTH", 4)
    assert run(capsys, "markoff", "--word", "001", *table)[0] == 0
    monkeypatch.setattr(cli, "markoff_of", None)
    monkeypatch.setattr(cli, "markoff_row", None)
    code, out, err = run(capsys, "markoff", "--word", word, *table)
    assert (code, out) == (2, "")
    assert err == "error: the Markoff word has 5 letters, over the limit of 4 letters\n"


def test_markoff_upto_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_MARKOFF_DIGITS", 3)
    code, out, _ = run(capsys, "markoff", "--upto", "999", "--format", "json")
    assert code == 0
    assert json.loads(out)["numbers"][-1] == 985
    monkeypatch.setattr(cli, "markoff_numbers_upto", None)
    code, out, err = run(capsys, "markoff", "--upto", "1000")
    assert (code, out) == (2, "")
    assert err == "error: markoff --upto takes a bound of at most 3 digits, got 4 digits\n"


def test_tree_depth_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TREE_DEPTH", 2)
    assert run(capsys, "tree", "sb", "--depth", "2")[0] == 0
    code, out, err = run(capsys, "tree", "sb", "--depth", "3")
    assert (code, out) == (2, "")
    assert "limit" in err


def test_verify_wiring_reports_and_exits(capsys, monkeypatch):
    rows = [("alpha", True, "", 0.25), ("beta", False, "broke", 1.23456)]
    monkeypatch.setattr(verify, "run_checks", lambda level, report=None: (False, rows))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False
    assert data["checks"][1] == {"name": "beta", "ok": False, "message": "broke", "seconds": 1.235}


def test_verify_text_reports_each_check_and_its_seconds(capsys, monkeypatch):
    def broken(level):
        raise ValueError("broke")

    monkeypatch.setattr(verify, "CHECKS", (("alpha", lambda level: None), ("beta", broken)))
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert re.fullmatch(r"PASS alpha \(\d+\.\d\d s\)\nFAIL beta \(\d+\.\d\d s\): ValueError: broke\n", out)


def test_a_failed_claim_names_its_case_and_the_first_difference():
    with pytest.raises(AssertionError, match=r"^the table fails on \(2, 2\) at index 1: got \[5\], expected \[4\]$"):
        verify._expect("the table", (2, 2), [3, 5, 6], [3, 4, 6])
    with pytest.raises(AssertionError, match=r"^the table fails on 1/2 at index 2: got \[\], expected \[6\]$"):
        verify._expect("the table", Fraction(1, 2), [3, 4], [3, 4, 6])
    with pytest.raises(AssertionError, match=r"^the split fails on 1/2: got False, expected True$"):
        verify._expect("the split", Fraction(1, 2), False)
    verify._expect("the pair", Fraction(1, 2), (1, 2), (1, 2))


def test_corrupted_build_names_the_failing_check(monkeypatch):
    # a wrong lower matrix must be caught by the first golden check
    monkeypatch.setattr(_oracle, "L_q", lambda: Mat2(Q, ZERO, Q, Q))
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][0] == "q-rational goldens"
    assert rows[0][1] is False
    assert re.fullmatch(r"the q-analog (golden|against the Mat2 product) fails on 7/2: got .+, expected .+", rows[0][2])


def test_corrupted_kernel_names_the_failing_check(monkeypatch):
    # a packed kernel that multiplies by 1 in place of [n]_q
    monkeypatch.setattr(qpoly, "_packed_times_q_integer", lambda p, n, width: p)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][0] == "q-rational goldens"
    assert rows[0][1] is False
    assert re.fullmatch(r"the q-analog (golden|against the Mat2 product) fails on 9/2: got .+, expected .+", rows[0][2])
