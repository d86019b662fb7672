"""Polynomials in q with integer coefficients, and q-rationals.

A polynomial (`Poly`) is its dense coefficient tuple c_0, ..., c_d with
c_d != 0: the form into which `Poly.from_packed` reads back the packed
integers of the kernel below and of the statistics scan of the three
models (`fence._statistics`), each through the one constructor.

The q-analog of a positive rational r/s replaces the elementary matrices
L = [[1,0],[1,1]] and R = [[1,1],[0,1]] in the continued-fraction product
by

    L_q = [[q, 0], [q, 1]],   R_q = [[q, 1], [0, 1]],

and divides the resulting column vector by q.  Both components stay
honest polynomials: the pair (R(q), S(q)) has S(0) = 1 and evaluates to
(r, s) at q = 1.

The powers have closed forms, R_q^n = [[q^n, [n]_q], [0, 1]] and
L_q^n = [[q^n, 0], [q [n]_q, 1]] with [n]_q = 1 + q + ... + q^(n-1), so
the product is applied to its vector right to left, one power at a time.
Each component is packed into one integer, its value at q = 2^B
(Kronecker substitution), so a power costs a few big-integer shifts and
additions rather than one operation per coefficient.  The width B is
exact: the matrices and the start vector have nonnegative entries, so
every polynomial met along the product, partial sums included, has
nonnegative coefficients, each at most the polynomial's value at q = 1,
and those values only grow along the product.  B bits that hold the
largest final value at q = 1 therefore hold every coefficient, and no
addition carries into the next one.

The two stages after the product run as a few calls each rather than a
Python step per coefficient: `Poly.from_packed` splits the bytes of the
packing into its B-bit fields with one `struct` call, and `str` writes
a polynomial of eight or more terms with one format string repeated per
term, then drops the "1" of each coefficient +-1.
"""

from fractions import Fraction
from itertools import chain, compress, repeat
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
        packing of `_q_product_vector` and `fence._statistics` read back.
        At width 8 the little-endian bytes of x are the coefficients; at
        16, 32 and 64 one standard-size `struct.unpack` reads them as
        unsigned fields; at any other width they are split into fields by
        one `Struct` call, each field read by `int.from_bytes`.

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
        dense = self.dense
        # the exponents of the nonzero terms, highest first
        exps = list(compress(range(len(dense) - 1, -1, -1), reversed(dense)))
        if len(exps) < _FEW_TERMS:
            text = ""
            for e in exps:
                c = dense[e]
                if not e:
                    text += "%+d" % c
                else:
                    power = "q^%d" % e if e > 1 else "q"
                    if c == 1:
                        text += "+" + power
                    elif c == -1:
                        text += "-" + power
                    else:
                        text += "%+d%s%s" % (c, star, power)
            return text.removeprefix("+") or "0"
        # One format for all terms: "%+d*q^%d" per exponent >= 2, then the
        # q and constant terms; then each coefficient +-1 of a power of q
        # loses its digit 1 (and the star).
        high, linear, plus_one, minus_one = _FORMATS[star]
        fmt, tail = "", ()
        if exps[-1] == 0:
            fmt, tail = "%+d", (dense[exps.pop()],)
        if exps[-1] == 1:
            fmt, tail = linear + fmt, (dense[exps.pop()],) + tail
        args = (*chain.from_iterable(zip(map(dense.__getitem__, exps), exps)), *tail)
        text = ((high * len(exps) + fmt) % args).replace(plus_one, "+q").replace(minus_one, "-q")
        return text.removeprefix("+")

    def __str__(self):
        return self._terms("*")

    def compact(self):
        """Same as str() but without '*' between coefficient and power."""
        return self._terms("")

    def __repr__(self):
        return "Poly(%s)" % self

    def to_json(self):
        return {str(e): c for e, c in enumerate(self.dense) if c}


# Below this many terms, _terms writes one term at a time: there the
# per-term loop costs less than building and fixing up one format.
_FEW_TERMS = 8
_FORMATS = {"*": ("%+d*q^%d", "%+d*q", "+1*q", "-1*q"), "": ("%+dq^%d", "%+dq", "+1q", "-1q")}

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

    The powers act right to left by their closed forms:
    R_q^n (x, y) = (q^n x + [n]_q y, y) and L_q^n (x, y) = (q^n x, q [n]_q x + y).
    Run first in integers, at q = 1, the product gives the largest value
    M that an entry reaches.  Every coefficient met, in the partial sums
    of [n]_q y and [n]_q x too, is nonnegative and at most its
    polynomial's value at q = 1, so at most M, and fits in `width` bits,
    the least multiple of 8 with M < 2^width.  The product then runs at
    q = 2^width, where a constant is its own packing and each power costs
    O(log n) shifts and additions of whole integers; `Poly.from_packed`
    unpacks the result."""
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
        if not n:
            continue
        if i % 2 == 0:
            x = (x << n * width) + _packed_times_q_integer(y, n, width)
        else:
            x, y = x << n * width, (_packed_times_q_integer(x, n, width) << width) + y
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
    a = _cf.cf_even(x)
    num, den, width = _q_product_vector(a[:-1] + (a[-1] - 1,), (1, 1))
    return QRational(Poly.from_packed(num, width), Poly.from_packed(den, width))


def theorem_pair(a):
    """diag(1,q)^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T, the common pair
    that the three enumeration statistics must reproduce: (q R(q), S(q)).
    The last factor is a power of L_q, so q divides the second
    component, and `shift(-1)` divides it out, checking the zero constant
    term."""
    a = _cf.check_cf(a)
    if len(a) % 2:
        raise ValueError("even-length form required")
    v1, v2, width = _q_product_vector(a, (1, 0))
    return Poly.from_packed(v1, width), Poly.from_packed(v2, width).shift(-1)


def q_shift_identity_check(x):
    """True iff the pair of x+1 is exactly (q R + S, S) for the pair of x."""
    x = Fraction(x)
    lhs = q_rational(x + 1)
    rhs = q_rational(x)
    return lhs.num == rhs.num.shift(1) + rhs.den and lhs.den == rhs.den
