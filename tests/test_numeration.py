from collections import Counter
from fractions import Fraction
from itertools import product

from hypothesis import assume, given, strategies as st
import pytest

from qrationals import cf, numeration
from qrationals._oracle import partition
from qrationals.cf import cf_even, cf_odd, convergents, r_sequence
from qrationals.numeration import (
    enumerate_admissible,
    is_admissible,
    is_filled,
    norm1_statistics,
    numeration_rows,
    rep,
    val,
    z_interval,
)
from qrationals.verify import BOUNDS, TABLE_222, TABLE_2222, TABLE_NEGAFIB, _expansions

rationals = st.builds(Fraction, st.integers(1, 80), st.integers(1, 80))


@st.composite
def expansions(draw):
    first = draw(st.integers(0, 4))
    rest = draw(st.lists(st.integers(1, 4), max_size=4))
    a = (first,) + tuple(rest)
    assume(a != (0,))
    return a


def test_enumerate_admissible_equals_the_filtered_box_in_reversed_digit_order():
    for k in range(1, 6):
        for a in product(range(9), repeat=k):
            if a == (0,) or 0 in a[1:] or sum(a) > 8:
                continue
            box = [b for b in product(*(range(ai + 1) for ai in a)) if is_admissible(b, a)]
            assert enumerate_admissible(a) == sorted(box, key=lambda b: b[::-1])


def test_admissibility_rules():
    a = (2, 2, 2)
    assert is_admissible((0, 0, 0), a)
    assert is_admissible((2, 2, 1), a)
    # odd index at its cap forces the previous digit to its cap
    assert not is_admissible((1, 2, 1), a)
    assert is_admissible((2, 2, 1), a)
    assert not is_admissible((2, 2, 0), a)
    assert is_admissible((2, 0, 0), a)
    # even index at zero forces the previous digit to zero
    assert not is_admissible((1, 1, 0, 1), (2, 2, 2, 2))
    assert is_admissible((0, 0, 0, 1), (2, 2, 2, 2))
    assert not is_admissible((0, 0, 3), a)
    with pytest.raises(ValueError):
        is_admissible((0, 0), a)


def test_enumeration_goldens():
    assert enumerate_admissible((0, 1)) == [(0, 0), (0, 1)]
    assert enumerate_admissible((1, 1)) == [(0, 0), (1, 0), (1, 1)]
    assert len(enumerate_admissible((2, 2, 2))) == 17
    assert len(enumerate_admissible((2, 2, 2, 2))) == 41


@given(expansions())
def test_count_is_the_numerator_weight(a):
    r = r_sequence(a)
    seqs = enumerate_admissible(a)
    assert len(seqs) == r[-1]
    assert len(set(seqs)) == len(seqs)
    assert all(is_admissible(b, a) for b in seqs)


@given(expansions())
def test_partition_sizes_are_the_convergent_pair(a):
    filled, empty = partition(a)
    k = len(a)
    p, q = convergents(a)
    if k % 2 == 0:
        assert (len(filled), len(empty)) == (p[k], q[k])
    assert len(filled) + len(empty) == r_sequence(a)[-1]


def test_partition_goldens():
    filled, empty = partition((0, 2))
    assert (len(filled), len(empty)) == (1, 2)
    filled, empty = partition((0, 1, 3, 1))
    assert (len(filled), len(empty)) == (4, 5)
    filled, empty = partition((2, 2, 2))
    assert (len(filled), len(empty)) == (12, 5)


def test_filled_rule_depends_on_the_leading_term():
    assert is_filled((1, 0), (1, 1))
    assert not is_filled((0, 0), (1, 1))
    assert is_filled((0, 1), (0, 1))
    assert not is_filled((0, 0), (0, 1))


@pytest.mark.parametrize(
    "a, lo, hi",
    (
        ((2, 2, 2), 0, 17),
        ((2, 2, 2, 2), -24, 17),
        ((1, 1, 1, 1, 1, 1), -8, 13),
        ((0, 1), -1, 1),
        ((3, 7), -25, 4),
        ((3, 6, 1), 0, 29),
    ),
)
def test_z_interval(a, lo, hi):
    assert z_interval(a) == (lo, hi)


@pytest.mark.parametrize(
    "a, table",
    (
        ((2, 2, 2), TABLE_222),
        ((2, 2, 2, 2), TABLE_2222),
        ((1, 1, 1, 1, 1, 1), TABLE_NEGAFIB),
    ),
)
def test_published_tables(a, table):
    assert numeration_rows(a) == list(table)


def test_numeration_rows_compute_the_weights_once(monkeypatch):
    desk = BOUNDS["desk"]
    expansions = _expansions(desk["polytope_k"], desk["polytope_sum"])
    expected = [[(n, rep(n, a)) for n in range(*z_interval(a))] for a in expansions]
    calls = Counter()

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(numeration, "rep", counting("rep", rep))
    monkeypatch.setattr(cf, "r_sequence", counting("r_sequence", r_sequence))
    for a, rows in zip(expansions, expected):
        calls.clear()
        assert numeration_rows(a) == rows
        assert calls == {"r_sequence": 1}


def test_rep_goldens():
    assert rep(10, (2, 2, 2)) == (2, 2, 2)
    assert rep(3, (2, 2, 2)) == (2, 2, 1)
    assert rep(-8, (1, 1, 1, 1, 1, 1)) == (1, 1, 1, 1, 1, 1)
    assert rep(12, (1, 1, 1, 1, 1, 1)) == (1, 0, 1, 0, 1, 0)


@given(expansions())
def test_val_is_a_bijection_onto_the_interval(a):
    lo, hi = z_interval(a)
    values = sorted(val(b, a) for b in enumerate_admissible(a))
    assert values == list(range(lo, hi))


@given(expansions(), st.integers(-100, 100))
def test_rep_round_trip(a, n):
    lo, hi = z_interval(a)
    assume(lo <= n < hi)
    b = rep(n, a)
    assert is_admissible(b, a)
    assert val(b, a) == n


def test_rep_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        rep(17, (2, 2, 2))
    with pytest.raises(ValueError, match="outside"):
        rep(-1, (2, 2, 2))


def test_val_rejects_inadmissible_digits():
    with pytest.raises(ValueError):
        val((1, 2, 0), (2, 2, 2))


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: rep(0, (1,) * 4999 + (0,)), "invalid partial quotients: a_4999 < 1 in an expansion of length 5000"),
        (lambda: val((0,), (-(10**4000),)), "invalid partial quotients: a_0 < 0 in an expansion of length 1"),
        (
            lambda: rep(10**5000, (1,) * 5000),
            "a 5001-digit integer outside [a negative 1045-digit integer, a 1045-digit integer)",
        ),
        (
            lambda: val((1,) * 4999 + (2,), (1,) * 5000),
            "digits not admissible for an expansion of length 5000: b_4999 is outside [0, a_4999]",
        ),
    ),
)
def test_errors_name_long_inputs_by_length_and_first_bad_index(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    assert len(message) < 120


@given(rationals)
def test_sequences_of_both_expansion_parities_count_the_numerator(x):
    assert len(enumerate_admissible(cf_even(x))) == x.numerator + x.denominator
    assert len(enumerate_admissible(cf_odd(x))) == x.numerator + x.denominator


def test_norm1_statistics_goldens():
    assert tuple(str(p) for p in norm1_statistics((0, 1))) == ("q", "1")
    assert tuple(str(p) for p in norm1_statistics((1, 1))) == ("q^2+q", "1")
    assert tuple(str(p) for p in norm1_statistics((0, 1, 3, 1))) == (
        "q^5+q^4+q^3+q^2",
        "q^4+q^3+q^2+q+1",
    )
