from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

from qrationals._oracle import (
    L_q,
    Mat2,
    R_q,
    conjugation_check,
    mat2_product_vector,
    nu_q,
    times,
    xy_pair,
    xy_recurrence_check,
)
from qrationals.cf import cf_even, cf_value
from qrationals.qpoly import ONE, Poly, Q, ZERO, q_rational, q_shift_identity_check, theorem_pair
from qrationals.words import hat

rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
words = st.text(alphabet="01", max_size=10)
polys = st.builds(
    Poly,
    st.dictionaries(st.integers(0, 9), st.integers(-9, 9), max_size=5),
)


def _even_expansions(quotients, max_size):
    """Even-length expansions [a_0; a_1, ...] with a_0 >= 0 and later a_i
    drawn from `quotients`."""
    return st.tuples(
        st.integers(0, 3),
        st.lists(quotients, min_size=1, max_size=max_size).filter(lambda t: len(t) % 2),
    ).map(lambda pair: (pair[0],) + tuple(pair[1]))


long_expansions = _even_expansions(st.integers(1, 4), 39)
tall_expansions = _even_expansions(st.integers(1, 300), 3)


def test_poly_str_formats():
    p = Poly({4: 1, 3: 1, 2: 2, 1: 2, 0: 1})
    assert str(p) == "q^4+q^3+2*q^2+2*q+1"
    assert p.compact() == "q^4+q^3+2q^2+2q+1"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(Poly({0: -1, 1: 1})) == "q-1"
    with pytest.raises(ValueError, match="negative exponent -1"):
        Poly({-1: 2})


@given(polys, polys)
def test_poly_ring_laws(p, r):
    assert p + r == r + p
    assert times(p, r) == times(r, p)
    assert p + ZERO == p
    assert times(p, ONE) == p
    assert times(p, ZERO) == ZERO


@given(polys, polys, polys)
def test_poly_distributes(p, r, s):
    assert times(p, r + s) == times(p, r) + times(p, s)


@given(polys, st.integers(0, 4))
def test_shift_is_multiplication_by_a_power(p, k):
    assert p.shift(k) == times(p, Poly({k: 1}))
    assert p.shift(k).shift(-k) == p
    if p and min(p.coeffs) < k:
        with pytest.raises(ValueError, match="negative exponent"):
            p.shift(-k)


def test_eval_corner_cases():
    assert Poly({2: 3, 0: 1}).eval_at_one() == 4
    assert Poly({2: 3, 0: 1}).eval_at_zero() == 1
    assert Poly({2: 3}).eval_at_zero() == 0


@given(polys, st.integers(-9, 9))
@example(ONE, 1)
@example(ZERO, 0)
def test_equal_polynomials_hash_equal_and_never_equal_an_int(p, c):
    twin = Poly.from_dense([p.coeffs.get(e, 0) for e in range((p.degree() or 0) + 1)])
    assert twin == p and hash(twin) == hash(p)
    assert p != c and c != p
    assert c not in {p}


def test_mat2_power_and_transpose():
    m = Mat2(Q, ONE, ZERO, ONE)
    assert m ** 0 == Mat2.identity()
    assert m ** 3 == m * m * m
    assert m.transpose().transpose() == m
    with pytest.raises(ValueError, match="negative"):
        m ** -1


@given(st.lists(st.integers(0, 5), max_size=6))
def test_mat2_product_vector_is_the_matrix_product(a):
    m = Mat2.identity()
    for i, e in enumerate(a):
        m = m * (R_q() if i % 2 == 0 else L_q()) ** e
    v = (Poly({0: 1, 2: 3}), Q)
    assert mat2_product_vector(a, v) == m.apply(v)


@settings(deadline=None)
@given(st.one_of(long_expansions, tall_expansions))
def test_q_rational_and_theorem_pair_equal_the_mat2_product(a):
    v1, v2 = mat2_product_vector(a, (ONE, ZERO))
    qx = q_rational(cf_value(a))
    assert (qx.num, qx.den) == (v1.shift(-1), v2.shift(-1))
    assert theorem_pair(a) == (v1, v2.shift(-1))


def test_ten_thousand_sevenths_at_q_equals_two():
    # a_0 = 1428: the integer product of the q = 2 matrices, over q = 2
    x = Fraction(10**4, 7)
    qx = q_rational(x)
    a = cf_even(x)
    v = (1, 0)
    for i in range(len(a) - 1, -1, -1):
        for _ in range(a[i]):
            v = (2 * v[0] + v[1], v[1]) if i % 2 == 0 else (2 * v[0], 2 * v[0] + v[1])
    at_two = [sum(c * 2**e for e, c in p.coeffs.items()) for p in (qx.num, qx.den)]
    assert at_two == [v[0] // 2, v[1] // 2]
    assert qx.at_one() == x


@pytest.mark.parametrize(
    "x, num, den",
    (
        (Fraction(7, 2), "q^4+q^3+2*q^2+2*q+1", "q+1"),
        (Fraction(2, 7), "q^4+q^3", "q^4+2*q^3+2*q^2+q+1"),
        (Fraction(4, 5), "q^4+q^3+q^2+q", "q^4+q^3+q^2+q+1"),
        (Fraction(1), "1", "1"),
        (Fraction(5, 3), "q^3+2*q^2+q+1", "q^2+q+1"),
    ),
)
def test_q_rational_goldens(x, num, den):
    qx = q_rational(x)
    assert str(qx.num) == num
    assert str(qx.den) == den


def test_fraction_display():
    assert q_rational(Fraction(7, 2)).fraction_str() == "(q^4+q^3+2q^2+2q+1)/(q+1)"
    assert q_rational(Fraction(1)).fraction_str() == "1/1"
    assert q_rational(Fraction(2, 7)).qinv_str() == "q^-1*(q^5+q^4)/(q^4+2*q^3+2*q^2+q+1)"


@given(rationals)
def test_specialization_at_one(x):
    qx = q_rational(x)
    assert qx.at_one() == x
    assert qx.num.eval_at_one() == x.numerator
    assert qx.den.eval_at_one() == x.denominator
    assert qx.den.eval_at_zero() == 1


@given(rationals)
def test_theorem_pair_is_the_shifted_fraction(x):
    a = cf_even(x)
    pair = theorem_pair(a)
    qx = q_rational(x)
    assert pair == (qx.num.shift(1), qx.den)


@given(rationals)
def test_shift_identity(x):
    assert q_shift_identity_check(x)


@given(words)
def test_nu_transpose_conjugation(w):
    assert conjugation_check(w)
    d = Mat2(ONE, ZERO, ZERO, Q)
    assert nu_q(w) * d == d * nu_q(hat(w)).transpose()


@given(words)
def test_xy_recurrence(w):
    assert xy_recurrence_check(w)


def test_xy_base_case():
    assert xy_pair("") == (Q, ONE)
