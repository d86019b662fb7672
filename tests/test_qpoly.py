from fractions import Fraction
from itertools import product
from math import gcd, isqrt
import re

from hypothesis import example, given, settings, strategies as st
import pytest

from qrationals import qpoly, verify
from qrationals._oracle import (
    L_q,
    Mat2,
    R_q,
    mat2_product_vector,
    mu_q,
    nu_q,
    times,
    xy_pair,
)
from qrationals.cf import cf_even, cf_value
from qrationals.markoff import markoff_of, q_markoff
from qrationals.qpoly import ONE, Poly, Q, ZERO, q_rational, q_shift_identity_check, theorem_pair
from qrationals.words import hat

rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
words = st.text(alphabet="01", max_size=10)
polys = st.builds(
    Poly,
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=10),
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

# The kernel steps a power of up to three letters one letter at a time and
# takes a longer one by its closed form.  These quotients sit on both sides
# of that boundary, on the R side (even index) and the L side (odd), and
# the last one, lowered by `q_rational`, becomes 0 or 3.
_BOUNDARY = (1, 2, 3, 4, 5, 8)
boundary_expansions = st.builds(
    lambda a0, middle, last: (a0, *middle, last),
    st.sampled_from((0,) + _BOUNDARY),
    st.lists(st.sampled_from(_BOUNDARY), max_size=12).filter(lambda t: len(t) % 2 == 0),
    st.sampled_from((1, 4)),
)


def test_poly_str_formats():
    p = Poly((1, 2, 2, 1, 1))
    assert str(p) == "q^4+q^3+2*q^2+2*q+1"
    assert p.compact() == "q^4+q^3+2q^2+2q+1"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(Poly((-1, 1))) == "q-1"
    assert str(Poly((0, 0, 3, 0))) == "3*q^2"


@pytest.mark.parametrize(
    "coefficients, text, compact",
    (
        ((-1,), "-1", "-1"),
        ((0, -1), "-q", "-q"),
        ((0, -12), "-12*q", "-12q"),
        ((1, 0, -11), "-11*q^2+1", "-11q^2+1"),
        ((-3, 1, -1), "-q^2+q-3", "-q^2+q-3"),
    ),
)
def test_poly_str_writes_negative_coefficients(coefficients, text, compact):
    # written by hand: a negative top term keeps its sign, a coefficient -1
    # of a power of q loses its 1, and -11, -12 keep theirs
    assert str(Poly(coefficients)) == text
    assert Poly(coefficients).compact() == compact


def test_trailing_zeros_are_stripped():
    assert Poly((1, 0, 0)) == Poly((1,)) and hash(Poly((1, 0, 0))) == hash(Poly((1,)))
    assert Poly((1, 0, 0)).dense == (1,)
    assert Poly([0, 0]) == ZERO and Poly([0, 0]).dense == () and not Poly([0, 0])
    assert Poly(iter([0, 2, 0])).dense == (0, 2)


def test_a_dict_of_terms_is_refused():
    # iterated, a dict gives its exponents: {4: 1, 0: 1} would read as 4
    with pytest.raises(TypeError, match="not a dict"):
        Poly({4: 1, 3: 1, 2: 2, 1: 2, 0: 1})
    with pytest.raises(TypeError):
        Poly({})


@given(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=12))
def test_coeffs_are_the_nonzero_terms_of_dense(coefficients):
    p = Poly(coefficients)
    terms = {e: c for e, c in enumerate(coefficients) if c}
    assert p.coeffs == terms and list(p.coeffs) == sorted(terms)
    assert dict(p.coeffs) == terms and len(p.coeffs) == len(terms)
    p.coeffs[99] = 1  # a new dict each time: the polynomial is unchanged
    assert p.coeffs == terms


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
    assert p.shift(k) == times(p, Poly((0,) * k + (1,)))
    assert p.shift(k).shift(-k) == p
    if any(p.dense[:k]):
        with pytest.raises(ValueError, match=r"q\^%d does not divide" % k):
            p.shift(-k)
    else:
        assert p.shift(-k).shift(k) == p


def _unpack_by_divmod(x, width):
    fields = []
    while x:
        x, c = divmod(x, 1 << width)
        fields.append(c)
    return tuple(fields)


@st.composite
def packings(draw):
    """A width of 8-256 bits and the packing of fields that may be 0 or
    fill the whole width, the top one included."""
    width = 8 * draw(st.integers(1, 32))
    field = st.one_of(st.just(0), st.just((1 << width) - 1), st.integers(0, (1 << width) - 1))
    fields = draw(st.lists(field, max_size=30))
    return sum(c << e * width for e, c in enumerate(fields)), width


@given(packings())
@example((0, 8))
@example((0, 16))
@example(((1 << 48) - 1, 16))
@example((0xFF_00_00_01, 8))
@example((0xFFFF_0000_0000_0001 << 256, 256))
def test_from_packed_is_a_divmod_unpack(packing):
    x, width = packing
    assert Poly.from_packed(x, width).dense == _unpack_by_divmod(x, width)


@pytest.mark.parametrize("size", (1, 2, 3, 4, 5, 6, 7, 8, 9, 16))
def test_from_packed_reads_every_field_size_at_its_extremes(size):
    # each branch of from_packed: bytes, a standard struct code (2, 4, 8),
    # a field widened with zero bytes to 4 or 8 (3, 5, 6, 7) or read by
    # int.from_bytes (9, 16); each field is 0 or all ones, so a field read
    # at the wrong offset or width shows, and count 0 is x = 0, which packs
    # no field for any branch to split or widen
    width = 8 * size
    top = (1 << width) - 1
    for count in range(7):
        for fields in product((0, top), repeat=count):
            x = sum(c << e * width for e, c in enumerate(fields))
            assert Poly.from_packed(x, width).dense == _unpack_by_divmod(x, width)


def _format_by_terms(coefficients, star):
    """A term at a time, highest exponent first, zero terms skipped: the
    sign, then the coefficient unless it is +-1 on a power of q, then the
    power."""
    out = ""
    for e in reversed(range(len(coefficients))):
        c = coefficients[e]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        power = {0: "", 1: "q"}.get(e, "q^" + str(e))
        coefficient = "" if abs(c) == 1 and e else str(abs(c))
        out += sign + coefficient + (star if coefficient and power else "") + power
    return out[1:] if out.startswith("+") else out or "0"


big_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2, 10, -11]),
    st.integers(-(2**70), 2**70),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
)


def _dense(terms):
    """The coefficient list of {exponent: coefficient}."""
    return [terms.get(e, 0) for e in range(max(terms, default=-1) + 1)]


@given(st.lists(st.one_of(st.just(0), big_coefficients), max_size=41))
@example(_dense({1: 1, 10: 1, 19: -1}))
@example(_dense({1: -1, 0: 1, 12: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}))
@example([(-1) ** e for e in range(41)])
@example([0, 0, 5, 0, 0, 0, -1, 1, 1, 1, 1, 1, 1, 0, 0])
@example([-1])
@example([0, 1])
@example([0, 0])
@example([])
def test_str_and_compact_are_the_term_by_term_format(coefficients):
    p = Poly(coefficients)
    assert str(p) == _format_by_terms(coefficients, "*")
    assert p.compact() == _format_by_terms(coefficients, "")


def test_eval_corner_cases():
    assert Poly((1, 0, 3)).eval_at_one() == 4
    assert Poly((1, 0, 3)).eval_at_zero() == 1
    assert Poly((0, 0, 3)).eval_at_zero() == 0
    assert (ZERO.eval_at_one(), ZERO.eval_at_zero()) == (0, 0)


@given(polys, st.integers(-9, 9))
@example(ONE, 1)
@example(ZERO, 0)
def test_equal_polynomials_hash_equal_and_never_equal_an_int(p, c):
    twin = Poly(list(p.dense) + [0] * 3)
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
    v = (Poly((1, 0, 3)), Q)
    assert mat2_product_vector(a, v) == m.apply(v)


@settings(deadline=None)
@given(st.one_of(long_expansions, tall_expansions))
def test_q_rational_and_theorem_pair_equal_the_mat2_product(a):
    v1, v2 = mat2_product_vector(a, (ONE, ZERO))
    qx = q_rational(cf_value(a))
    assert (qx.num, qx.den) == (v1.shift(-1), v2.shift(-1))
    assert theorem_pair(a) == (v1, v2.shift(-1))


@settings(deadline=None)
@given(boundary_expansions)
def test_the_kernel_equals_the_mat2_product_across_its_stepped_powers(a):
    v1, v2 = mat2_product_vector(a, (ONE, ZERO))
    qx = q_rational(cf_value(a))
    assert (qx.num, qx.den) == (v1.shift(-1), v2.shift(-1))
    assert theorem_pair(a) == (v1, v2.shift(-1))


def _golden_partner(r):
    """The s coprime to r nearest r/phi, so r/s has a long expansion of
    small partial quotients."""
    s = (isqrt(5 * r * r) - r) // 2
    while gcd(r, s) != 1:
        s += 1
    return s


# The kernel packs each coefficient into the fewest whole bytes that hold
# the largest value at q = 1; these inputs put that value on either side
# of 2^k for k = 7, 8, 15, 16, 64, and the Markoff words on either side of
# 2^8, 2^16, 2^24 and 2^32.
WIDTH_EDGE_RATIONALS = (
    [Fraction(r) for r in (127, 128, 129, 255, 256, 257)]
    + [Fraction(1, r) for r in (255, 256, 257)]
    + [
        x
        for k in (7, 8, 15, 16, 64)
        for r in (2**k - 1, 2**k, 2**k + 1)
        for x in (Fraction(r, _golden_partner(r)), Fraction(_golden_partner(r), r))
    ]
    + [cf_value(a) for a in ((0, 299, 300, 1), (301, 1), (1, 300, 2, 1), (298, 2, 299, 1))]
)
WIDTH_EDGE_WORDS = (
    ("000001", 233),
    ("01011", 433),
    ("00000100001", 62210),
    ("000000000001", 75025),
    ("0000010000100001", 16609837),
    ("01111011111", 16964653),
    ("011011101110111", 3778847945),
    ("000001000010000100001", 4434764269),
)


def test_packing_width_edges_equal_the_mat2_products():
    for x in WIDTH_EDGE_RATIONALS:
        a = cf_even(x)
        v1, v2 = mat2_product_vector(a, (ONE, ZERO))
        qx = q_rational(x)
        assert (qx.num, qx.den) == (v1.shift(-1), v2.shift(-1)), x
        assert theorem_pair(a) == (v1, v2.shift(-1)), x
    # an integer n is [n - 1; 1], so q_rational lowers its last exponent to 0
    assert all(cf_even(x)[-1] == 1 for x in WIDTH_EDGE_RATIONALS[:6])
    for w, m in WIDTH_EDGE_WORDS:
        assert markoff_of(w) == m
        assert q_markoff(w) == mu_q(w).b, w


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


@pytest.mark.parametrize("a", ((1,), (3, 6, 1), (0, 1, 4)))
def test_theorem_pair_refuses_an_odd_length_expansion(a):
    with pytest.raises(ValueError, match="^even-length form required$"):
        theorem_pair(a)


@given(rationals)
def test_shift_identity(x):
    assert q_shift_identity_check(x)


def test_shift_identity_check_fails_by_values(monkeypatch):
    # the kernel's two entries swapped: q_rational(1) is (1, 1) either way,
    # q_rational(2) becomes 1/(q+1), and the row shows both pairs, not a bool
    kernel = qpoly._q_product_vector

    def swapped(a, v):
        x, y, width = kernel(a, v)
        return y, x, width

    monkeypatch.setattr(qpoly, "_q_product_vector", swapped)
    got, want = re.escape("(1)/(q+1)"), re.escape("(q+1)/(1)")
    with pytest.raises(AssertionError, match="^the shift identity fails on 1: got %s, expected %s$" % (got, want)):
        verify.check_properties("desk")


@given(words)
def test_nu_transpose_conjugation(w):
    d = Mat2(ONE, ZERO, ZERO, Q)
    assert nu_q(w) * d == d * nu_q(hat(w)).transpose()


@given(words)
def test_xy_recurrence(w):
    x, y = xy_pair(w)
    x1, y1 = xy_pair("1" + w)
    x0, y0 = xy_pair("0" + w)
    assert x1 == (x + y).shift(1)
    assert y1 == y
    assert x0 == x.shift(1)
    assert y0 == x + y


def test_xy_base_case():
    assert xy_pair("") == (Q, ONE)
