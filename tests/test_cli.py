import json
import os
import subprocess
import sys

import pytest

import qrationals
from qrationals import _oracle, cli, qpoly, verify
from qrationals._oracle import Mat2
from qrationals.cf import rational_of_word
from qrationals.cli import main
from qrationals.markoff import markoff_of
from qrationals.qpoly import Q, ZERO
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


def test_shift_check(capsys):
    code, out, _ = run(capsys, "qrat", "5/3", "--shift-check")
    assert code == 0
    assert out.splitlines() == ["(q^3+2q^2+q+1)/(q^2+q+1)", "shift-check ok"]


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
    assert "the snake word of 011 has 6 letters, over the limit of 4 letters" in err
    assert run(capsys, "markoff", "--word", "011")[0] == 0


def test_tree_depth_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TREE_DEPTH", 2)
    assert run(capsys, "tree", "sb", "--depth", "2")[0] == 0
    code, out, err = run(capsys, "tree", "sb", "--depth", "3")
    assert (code, out) == (2, "")
    assert "limit" in err


def test_verify_wiring_reports_and_exits(capsys, monkeypatch):
    rows = [("alpha", True, ""), ("beta", False, "broke")]
    monkeypatch.setattr(verify, "run_checks", lambda level, report=None: (False, rows))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False
    assert data["checks"][1] == {"name": "beta", "ok": False, "message": "broke"}


def test_corrupted_build_names_the_failing_check(monkeypatch):
    # a wrong lower matrix must be caught by the first golden check
    monkeypatch.setattr(_oracle, "L_q", lambda: Mat2(Q, ZERO, Q, Q))
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][0] == "q-rational goldens"
    assert rows[0][1] is False
    assert rows[0][2]


def test_corrupted_kernel_names_the_failing_check(monkeypatch):
    # a dense kernel that multiplies by 1 in place of [n]_q
    monkeypatch.setattr(qpoly, "_times_q_integer", lambda p, n: list(p))
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][0] == "q-rational goldens"
    assert rows[0][1] is False
    assert rows[0][2]
