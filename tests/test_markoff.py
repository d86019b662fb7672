from math import gcd

from hypothesis import assume, given, settings, strategies as st
import pytest

from qrationals._oracle import mu_q, nu_q, verify_area_theorem
from qrationals.markoff import (
    markoff_numbers_upto,
    markoff_of,
    markoff_row,
    mu,
    q_markoff,
)
from qrationals.verify import MARKOFF_UPTO_5000
from qrationals.words import christoffel, christoffel_closure, gamma_prime

words = st.text(alphabet="01", max_size=8)


def test_markoff_numbers():
    assert markoff_numbers_upto(5000) == MARKOFF_UPTO_5000
    assert markoff_numbers_upto(200) == [1, 2, 5, 13, 29, 34, 89, 169, 194]
    assert markoff_numbers_upto(1) == [1]
    assert markoff_numbers_upto(0) == []


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
    assert verify_area_theorem(m)


def test_area_theorem_rejects_improper_interiors():
    # "0101" doubles the slope 1/1 word, so it is not Christoffel
    with pytest.raises(ValueError, match="Christoffel"):
        verify_area_theorem("10")


def test_markoff_rows():
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


def test_every_proper_word_length_five_satisfies_the_area_theorem():
    for n in range(2, 6):
        for p in range(1, n):
            try:
                w = christoffel(p, n - p)
            except ValueError:
                continue
            assert verify_area_theorem(w[1:-1])
