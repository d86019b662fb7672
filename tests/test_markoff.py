from math import gcd
import re

from hypothesis import assume, given, settings, strategies as st
import pytest

from qrationals import fence, markoff, snake, verify
from qrationals._oracle import mu_q, nu_q
from qrationals.markoff import (
    markoff_numbers_upto,
    markoff_of,
    markoff_row,
    markoff_snake_word,
    mu,
    q_markoff,
)
from qrationals.verify import MARKOFF_UPTO_5000
from qrationals.words import all_words, check_word, christoffel, christoffel_closure, gamma_prime

words = st.text(alphabet="01", max_size=8)


def _christoffel_words(max_length):
    return [christoffel(p, n - p) for n in range(1, max_length + 1) for p in range(n + 1) if gcd(p, n - p) == 1]


# mu's letters as integer matrices: RL per 0 and R^2 L^2 per 1
_LETTER_MATRICES = {"0": ((2, 1), (1, 1)), "1": ((5, 2), (2, 1))}


def _mu_by_matrices(w):
    """mu as the product of its letters' matrices, left to right."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for letter in w:
        (e, f), (g, h) = _LETTER_MATRICES[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b), (c, d)


def test_markoff_numbers():
    assert markoff_numbers_upto(5000) == MARKOFF_UPTO_5000
    assert markoff_numbers_upto(200) == [1, 2, 5, 13, 29, 34, 89, 169, 194]
    assert markoff_numbers_upto(1) == [1]
    assert markoff_numbers_upto(0) == []


def test_mu_is_the_product_of_its_letter_matrices():
    for w in [*all_words(12, 1), *_christoffel_words(200)]:
        assert mu(w) == _mu_by_matrices(w), w


def test_mu_goldens():
    assert mu("0") == ((2, 1), (1, 1))
    assert mu("1") == ((5, 2), (2, 1))
    assert mu("00101") == ((463, 194), (284, 119))


@pytest.mark.parametrize(
    "w, number",
    (
        ("0", 1),
        ("1", 2),
        ("01", 5),
        ("001", 13),
        ("011", 29),
        ("0001", 34),
        ("0111", 169),
        ("00101", 194),
        ("01011", 433),
        ("01111111", 195025),
    ),
)
def test_markoff_of_goldens(w, number):
    assert markoff_of(w) == number


def test_words_up_to_length_nine_give_every_small_markoff_number():
    found = set()
    for w in christoffel_closure(9):
        m = markoff_of(w)
        if m <= 5000:
            found.add(m)
    assert sorted(found) == MARKOFF_UPTO_5000


def test_markoff_of_rejects_non_christoffel_words():
    with pytest.raises(ValueError, match="^the Markoff word of 2 letters is not a Christoffel word$"):
        markoff_of("10")
    with pytest.raises(ValueError, match="empty"):
        markoff_of("")
    # mu is a monoid map, so it takes any nonempty binary word
    assert mu("10") == ((12, 7), (5, 3))


def test_q_markoff_goldens():
    assert str(q_markoff("0")) == "1"
    assert str(q_markoff("1")) == "q+1"
    assert str(q_markoff("01")) == "q^3+2*q^2+q+1"
    assert q_markoff("00101").eval_at_one() == 194


@given(words)
def test_mu_q_is_nu_q_after_the_morphism(w):
    assert mu_q(w) == nu_q(gamma_prime(w))


@settings(deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_q_markoff_is_the_mu_q_entry(nk):
    n, k = nk
    assume(gcd(k, n - k) == 1)
    w = christoffel(k, n - k)
    assert q_markoff(w) == mu_q(w).b


@given(st.text(alphabet="01", min_size=1, max_size=8))
def test_q_markoff_specializes_to_the_integer_matrix(w):
    entries = mu_q(w).entries()
    ints = mu(w)
    assert tuple(
        tuple(p.eval_at_one() for p in row) for row in
        (entries[:2], entries[2:])
    ) == ints


@pytest.mark.parametrize("m", ("", "0", "1", "010", "101", "00100"))
def test_area_theorem_samples(m):
    w = "0" + m + "1"
    perp, par = snake.matching_statistics(snake.Snake(markoff_snake_word(w)))
    assert q_markoff(w) == perp + par


def test_area_theorem_rejects_improper_interiors():
    # "0101" doubles the slope 1/1 word, so it is not Christoffel
    with pytest.raises(ValueError, match="Christoffel"):
        q_markoff("0101")


def test_markoff_rows(monkeypatch):
    row = markoff_row("0")
    assert row["number"] == 1
    assert str(row["q_polynomial"]) == "1"
    assert row["snake_word"] is None and row["matching_count"] is None
    row = markoff_row("01")
    assert row["number"] == 5
    assert row["snake_word"] == "00"
    assert row["matching_count"] == 5
    row = markoff_row("00101")
    assert row["number"] == 194
    assert row["snake_word"] == "0000110000"
    assert row["matching_count"] == 194
    # each proper row's count against the snake's scan, run first; the
    # rows are then read with every scan made to raise
    christoffel_words = _christoffel_words(60)
    scanned = {w: sum(snake.matching_counts(markoff_snake_word(w))) for w in christoffel_words if len(w) >= 2}

    def refuse(*args):
        raise AssertionError("a Markoff row runs no scan")

    for module, name in ((snake, "matching_counts"), (snake, "_path_scan"), (fence, "_path_scan")):
        monkeypatch.setattr(module, name, refuse)
    for w in christoffel_words:
        row = markoff_row(w)
        assert row["number"] == markoff_of(w), w
        assert row["matching_count"] == scanned.get(w), w


def test_markoff_of_checks_its_word_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return check_word(w)

    # markoff binds check_word by name, so both bindings are counted
    monkeypatch.setattr("qrationals.words.check_word", counted)
    monkeypatch.setattr(markoff, "check_word", counted)
    christoffel_words = _christoffel_words(30)
    for w in christoffel_words:
        markoff_of(w)
    assert len(calls) == len(christoffel_words)


def test_markoff_row_checks_its_word_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return check_word(w)

    christoffel_words = _christoffel_words(30)
    snake_words = [markoff_snake_word(w) if len(w) >= 2 else None for w in christoffel_words]
    # markoff binds check_word by name, so both bindings are counted
    monkeypatch.setattr("qrationals.words.check_word", counted)
    monkeypatch.setattr(markoff, "check_word", counted)
    rows = [markoff_row(w) for w in christoffel_words]
    assert len(calls) == len(christoffel_words)
    assert [row["snake_word"] for row in rows] == snake_words


def test_every_proper_word_length_five_satisfies_the_area_theorem():
    for n in range(2, 6):
        for p in range(1, n):
            try:
                w = christoffel(p, n - p)
            except ValueError:
                continue
            perp, par = snake.matching_statistics(snake.Snake(markoff_snake_word(w)))
            assert q_markoff(w) == perp + par


def test_area_theorem_check_fails_by_values(monkeypatch):
    # one side of the snake's area polynomial shifted: the row shows both
    # polynomials, not a bool
    statistics = snake.matching_statistics

    def shifted(g):
        perp, par = statistics(g)
        return perp.shift(1), par

    monkeypatch.setattr(snake, "matching_statistics", shifted)
    got, want = re.escape("q^3+2*q^2+q+1"), re.escape("q^4+q^3+q^2+q+1")
    with pytest.raises(AssertionError, match="^the area theorem fails on '01': got %s, expected %s$" % (got, want)):
        verify.check_markoff("desk")
