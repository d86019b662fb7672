"""Polynomials in q with integer coefficients, and q-rationals.

A polynomial (`Poly`) is its dense coefficient tuple c_0, ..., c_d with
c_d != 0: the form into which `Poly.from_packed` reads back the packed
integers of the kernel below, the one product behind every polynomial
the package computes.

The q-analog of a positive rational r/s replaces the elementary matrices
L = [[1,0],[1,1]] and R = [[1,1],[0,1]] in the continued-fraction product
by

    L_q = [[q, 0], [q, 1]],   R_q = [[q, 1], [0, 1]],

and divides the resulting column vector by q.  Both components stay
honest polynomials: the pair (R(q), S(q)) has S(0) = 1 and evaluates to
(r, s) at q = 1.

The product is applied to its vector right to left.  A power of at most
three letters acts one letter at a time; a longer one acts by the closed
forms R_q^n = [[q^n, [n]_q], [0, 1]] and L_q^n = [[q^n, 0], [q [n]_q, 1]]
with [n]_q = 1 + q + ... + q^(n-1).  Each component is packed into one
integer, its value at q = 2^B (Kronecker substitution), so a letter or a
power costs a few big-integer shifts and additions rather than one
operation per coefficient.  The width B is exact: the matrices and the
start vector have nonnegative entries, so every polynomial met along the
product, partial sums included, has nonnegative coefficients, each at
most the polynomial's value at q = 1, and those values only grow along
the product.  B bits that hold the largest final value at q = 1
therefore hold every coefficient, and no addition carries into the next
one.

The two stages after the product run as a few calls each rather than a
Python step per coefficient: `Poly.from_packed` splits the bytes of the
packing into its B-bit fields with one `struct` call, and `str` writes
every polynomial with one format string, the powers of q of its nonzero
terms joined, then drops the "1" of each coefficient +-1.
"""

from itertools import compress, repeat
from operator import add
from struct import Struct, unpack

from . import cf as _cf

__all__ = [
    "Poly",
    "ZERO",
    "ONE",
    "Q",
    "QRational",
    "q_rational",
    "theorem_pair",
    "q_shift_identity_check",
]


class Poly:
    """Polynomial in q with integer coefficients.

    Stored as `dense`, the tuple (c_0, c_1, ..., c_d) of its coefficients
    with c_d != 0; the zero polynomial is ().  The constructor strips
    trailing zeros, so equal polynomials have equal tuples.  It refuses a
    dict, which iterates as its exponents, not as {exponent: coefficient}.
    """

    __slots__ = ("dense",)

    def __init__(self, coefficients=()):
        if isinstance(coefficients, dict):
            raise TypeError("Poly takes the coefficients c_0, ..., c_d in order, not a dict")
        dense = tuple(coefficients)
        end = len(dense)
        while end and not dense[end - 1]:
            end -= 1
        self.dense = dense[:end]

    @classmethod
    def from_packed(cls, x, width):
        """The polynomial whose coefficient of q^e is bits e*width up to
        (e+1)*width of the integer x >= 0, for width a multiple of 8: the
        packing of `_q_product_vector` read back.  At width 8 the
        little-endian bytes of x are the coefficients; at 16, 32 and 64
        one standard-size `struct.unpack` reads them as unsigned fields;
        at any other width they are split into fields by one `Struct`
        call, each field read by `int.from_bytes`.

        >>> Poly.from_packed(0x03_00_01, 8).dense
        (1, 0, 3)
        >>> Poly.from_packed(0x0003_0000_0102, 16).dense
        (258, 0, 3)
        >>> Poly.from_packed(0x000003_000000_010203, 24).dense
        (66051, 0, 3)
        """
        size = width // 8
        count = -(-x.bit_length() // width)
        data = x.to_bytes(count * size, "little")
        if size == 1:
            return cls(data)
        code = _FIELD_CODES.get(size)
        if code:
            return cls(unpack("<%d%s" % (count, code), data))
        return cls(map(int.from_bytes, Struct("%ds" % size * count).unpack(data), repeat("little")))

    @property
    def coeffs(self):
        """The nonzero terms, as a new dict {exponent: coefficient}."""
        return {e: c for e, c in enumerate(self.dense) if c}

    def __bool__(self):
        return bool(self.dense)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dense == other.dense

    def __hash__(self):
        return hash(self.dense)

    def __add__(self, other):
        return Poly(_plus(self.dense, other.dense))

    def shift(self, k):
        """Multiply by q**k.  A negative k divides, and raises ValueError
        unless q**-k divides the polynomial."""
        if k >= 0:
            return Poly((0,) * k + self.dense)
        if any(self.dense[:-k]):
            raise ValueError("q^%d does not divide the polynomial" % -k)
        return Poly(self.dense[-k:])

    def eval_at_one(self):
        return sum(self.dense)

    def eval_at_zero(self):
        return self.dense[0] if self.dense else 0

    def _terms(self, star):
        # One format for all terms, highest first: "%+d" and each term's
        # power of q joined, filled with the nonzero coefficients; then
        # each coefficient +-1 of a power of q loses its digit 1.
        dense = self.dense
        if not dense:
            return "0"
        powers = _POWERS[star]
        if len(powers) < len(dense):
            powers += ["%sq^%d" % (star, e) for e in range(len(powers), len(dense))]
        exps = compress(range(len(dense) - 1, -1, -1), reversed(dense))
        text = ("%+d" + "%+d".join(map(powers.__getitem__, exps))) % tuple(filter(None, reversed(dense)))
        plus_one, minus_one = _ONES[star]
        return text.replace(plus_one, "+q").replace(minus_one, "-q").removeprefix("+")

    def __str__(self):
        return self._terms("*")

    def compact(self):
        """Same as str() but without '*' between coefficient and power."""
        return self._terms("")

    def __repr__(self):
        return "Poly(%s)" % self

    def to_json(self):
        return {str(e): c for e, c in enumerate(self.dense) if c}


# The power of q that follows each coefficient in `_terms`, by exponent
# and by star: "", "*q", "*q^2", ...; grown on demand.
_POWERS = {"*": ["", "*q"], "": ["", "q"]}
_ONES = {"*": ("+1*q", "-1*q"), "": ("+1q", "-1q")}

# The standard-size unsigned struct codes of 2-, 4- and 8-byte fields.
_FIELD_CODES = {2: "H", 4: "I", 8: "Q"}

ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))


def _plus(p, r):
    """Sum of two dense lists or tuples, as a list."""
    if len(p) < len(r):
        p, r = r, p
    return [*map(add, p, r), *p[len(r):]]


# The longest power that `_q_product_vector` applies one letter at a time.
# Stepped, a power of n letters costs 2n big-integer shifts and additions.
# By its closed form, R_q^n costs 2 plus those of `_packed_times_q_integer`,
# which are 0, 2, 4 and 4 for n = 1 to 4, and L_q^n one more.  So up to
# n = 3 the letters cost no more and save a call; at n = 4 they cost 8
# against 6.
_STEPPED = 3


def _packed_times_q_integer(p, n, width):
    """The packed polynomial p times [n]_q, n >= 1, in O(log n) shift-adds:
    [2m]_q = [m]_q (1 + q^m) and [m+1]_q = 1 + q [m]_q."""
    t, m = p, 1
    for bit in bin(n)[3:]:
        t += t << m * width
        m *= 2
        if bit == "1":
            t = p + (t << width)
            m += 1
    return t


def _q_product_vector(a, v):
    """R_q^{a_0} L_q^{a_1} R_q^{a_2} ... applied to the column v, a pair of
    nonnegative integers not both 0, as a pair of packed polynomials and
    their width.

    The factors act right to left.  A power of at most `_STEPPED` letters
    acts one letter at a time, R_q (x, y) = (q x + y, y) and
    L_q (x, y) = (q x, q x + y), two shift-adds per letter and no call;
    a longer one acts by its closed form,
    R_q^n (x, y) = (q^n x + [n]_q y, y) and L_q^n (x, y) = (q^n x, q [n]_q x + y),
    in O(log n) shift-adds.
    Run first in integers, at q = 1, the product gives the largest value
    M that an entry reaches.  Every coefficient met is nonnegative and at
    most its polynomial's value at q = 1: in the states after each
    letter, which are partial products, and in the partial sums of
    [n]_q y and [n]_q x.  So each is at most M, and fits in `width` bits,
    the least multiple of 8 with M < 2^width.  The product then runs at
    q = 2^width, where a constant is its own packing and every step is a
    shift or an addition of whole integers; `Poly.from_packed` unpacks
    the result."""
    x1, y1 = v
    for i in range(len(a) - 1, -1, -1):
        if i % 2:
            y1 += a[i] * x1
        else:
            x1 += a[i] * y1
    width = (max(x1, y1).bit_length() + 7) // 8 * 8
    x, y = v
    for i in range(len(a) - 1, -1, -1):
        n = a[i]
        if n > _STEPPED:
            if i % 2 == 0:
                x = (x << n * width) + _packed_times_q_integer(y, n, width)
            else:
                x, y = x << n * width, (_packed_times_q_integer(x, n, width) << width) + y
        elif i % 2 == 0:
            for _ in range(n):
                x = (x << width) + y
        else:
            for _ in range(n):
                x <<= width
                y += x
    return x, y, width


class QRational:
    """The exact pair (R(q), S(q)) of a q-deformed rational."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __eq__(self, other):
        if not isinstance(other, QRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def at_one(self):
        from fractions import Fraction

        return Fraction(self.num.eval_at_one(), self.den.eval_at_one())

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    def fraction_str(self):
        """Compact display: parentheses only around multi-term polynomials.

        >>> from fractions import Fraction
        >>> q_rational(Fraction(7, 2)).fraction_str()
        '(q^4+q^3+2q^2+2q+1)/(q+1)'
        >>> q_rational(Fraction(1, 1)).fraction_str()
        '1/1'
        """
        def side(p):
            s = p.compact()
            return "(%s)" % s if len(p.dense) - p.dense.count(0) > 1 else s

        return "%s/%s" % (side(self.num), side(self.den))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def q_rational(x):
    """The q-analog of a positive rational, as the exact pair (R, S).

    The defining product q^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T equals
    the product with the last exponent lowered by one on (1,1)^T, since
    L_q (1,0)^T = q (1,1)^T; the second display needs no division.
    """
    return _q_rational(_cf.cf_even(x))


def _q_rational(a):
    """`q_rational` of the rational whose even-length expansion is a."""
    num, den, width = _q_product_vector(a[:-1] + (a[-1] - 1,), (1, 1))
    return QRational(Poly.from_packed(num, width), Poly.from_packed(den, width))


def theorem_pair(a):
    """diag(1,q)^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T = (q R(q), S(q)),
    the pair of the main theorem: the size statistics of the admissible
    vectors, the order ideals and the matchings, split by y_0, which
    each model's statistics read off its own expansion.  The last factor
    is a power of L_q, so q divides the second component, and dropping
    its packing's lowest field divides it out."""
    a = _cf.check_cf(a)
    if len(a) % 2:
        raise ValueError("even-length form required")
    v1, v2, width = _q_product_vector(a, (1, 0))
    return Poly.from_packed(v1, width), Poly.from_packed(v2 >> width, width)


def q_shift_identity_check(x):
    """True iff the pair of x+1 is exactly (q R + S, S) for the pair of x."""
    a = _cf.cf_even(x)
    return _shift_identity_holds(a, _q_rational(a))


def _shift_identity_holds(a, rhs):
    """`q_shift_identity_check` of x from its even-length expansion a and
    rhs = `_q_rational(a)`; that of x + 1 is a with a_0 raised by one."""
    lhs = _q_rational((a[0] + 1,) + a[1:])
    return lhs.num == rhs.num.shift(1) + rhs.den and lhs.den == rhs.den
