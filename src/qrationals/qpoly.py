"""Laurent polynomials in q, 2x2 matrices of them, and q-rationals.

The q-analog of a positive rational r/s replaces the elementary matrices
L = [[1,0],[1,1]] and R = [[1,1],[0,1]] in the continued-fraction product
by

    L_q = [[q, 0], [q, 1]],   R_q = [[q, 1], [0, 1]],

and divides the resulting column vector by q.  Both components stay
honest polynomials: the pair (R(q), S(q)) has S(0) = 1 and evaluates to
(r, s) at q = 1.

The powers have closed forms, R_q^n = [[q^n, [n]_q], [0, 1]] and
L_q^n = [[q^n, 0], [q [n]_q, 1]] with [n]_q = 1 + q + ... + q^(n-1), so
the product is applied to its vector right to left, one power at a time,
on dense coefficient lists.  Mat2, R_q, L_q, nu_q, mu_q and
mat2_product_vector multiply the matrices out; they are the oracle that
verify and the tests hold the fast pair against.
"""

from fractions import Fraction
from itertools import accumulate
from operator import add, sub

from . import cf as _cf
from .words import check_word

__all__ = [
    "Poly",
    "Mat2",
    "ZERO",
    "ONE",
    "Q",
    "L_q",
    "R_q",
    "nu_q",
    "mu_q",
    "mat2_product_vector",
    "QRational",
    "q_rational",
    "theorem_pair",
    "q_shift_identity_check",
    "xy_pair",
    "xy_recurrence_check",
    "conjugation_check",
]


class Poly:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as a dict {exponent: coefficient} with no zero coefficients.
    Exponents may be negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    data[int(e)] = c
        self.coeffs = data

    @classmethod
    def term(cls, coefficient, exponent=0):
        return cls({exponent: coefficient})

    @classmethod
    def from_dense(cls, coefficients):
        """The polynomial c_0 + c_1 q + c_2 q^2 + ... of [c_0, c_1, c_2, ...]."""
        p = cls()
        p.coeffs = {e: c for e, c in enumerate(coefficients) if c}
        return p

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.term(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.term(other)
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            data[e] = data.get(e, 0) + c
        return Poly(data)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.term(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.term(other)
        if not isinstance(other, Poly):
            return NotImplemented
        data = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                data[e] = data.get(e, 0) + c1 * c2
        return Poly(data)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q**k (k may be negative)."""
        return Poly({e + k: c for e, c in self.coeffs.items()})

    def eval_at_one(self):
        return sum(self.coeffs.values())

    def eval_at_zero(self):
        if any(e < 0 for e in self.coeffs):
            raise ValueError("negative exponents: undefined at q=0")
        return self.coeffs.get(0, 0)

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def _terms(self, star):
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if e == 0:
                body = str(c)
            else:
                power = "q" if e == 1 else "q^%d" % e
                if c == 1:
                    body = power
                else:
                    body = "%d%s%s" % (c, star, power)
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __str__(self):
        return self._terms("*")

    def compact(self):
        """Same as str() but without '*' between coefficient and power."""
        return self._terms("")

    def __repr__(self):
        return "Poly(%s)" % self

    def to_json(self):
        return {str(e): c for e, c in sorted(self.coeffs.items())}


ZERO = Poly()
ONE = Poly.term(1)
Q = Poly.term(1, 1)


class Mat2:
    """2x2 matrix of Poly entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(ONE, ZERO, ZERO, ONE)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power %d of a Mat2" % n)
        out = Mat2.identity()
        for _ in range(n):
            out = out * self
        return out

    def apply(self, v):
        """Matrix times column vector (pair of Poly)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def transpose(self):
        return Mat2(self.a, self.c, self.b, self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "Mat2[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)


def L_q():
    return Mat2(Q, ZERO, Q, ONE)


def R_q():
    return Mat2(Q, ONE, ZERO, ONE)


def _diag_1_q():
    return Mat2(ONE, ZERO, ZERO, Q)


def nu_q(w):
    """Monoid homomorphism 0 -> L_q, 1 -> R_q."""
    check_word(w)
    out = Mat2.identity()
    for c in w:
        out = out * (L_q() if c == "0" else R_q())
    return out


_MU0_ENTRIES = (Poly({1: 1, 2: 1}), ONE, Q, ONE)
_MU1_ENTRIES = (Poly({1: 1, 2: 2, 3: 1, 4: 1}), Poly({0: 1, 1: 1}), Poly({1: 1, 2: 1}), ONE)


def mu_q(w):
    """Monoid homomorphism with mu_q(0) = R_q L_q, mu_q(1) = R_q^2 L_q^2.

    Coded from the displayed single-letter matrices, independently of
    nu_q; the identity mu_q(w) == nu_q(gamma_prime(w)) is a test.
    """
    check_word(w)
    out = Mat2.identity()
    for c in w:
        out = out * Mat2(*(_MU0_ENTRIES if c == "0" else _MU1_ENTRIES))
    return out


def mat2_product_vector(a, v):
    """R_q^{a_0} L_q^{a_1} R_q^{a_2} ... applied to the pair v of Poly, one
    Mat2 factor at a time from the right: the oracle that q_rational,
    theorem_pair and q_markoff are checked against."""
    for i in range(len(a) - 1, -1, -1):
        m = R_q() if i % 2 == 0 else L_q()
        for _ in range(a[i]):
            v = m.apply(v)
    return v


def _times_q_integer(p, n):
    """The dense list p times [n]_q = 1 + q + ... + q^(n-1), n >= 1: entry k
    is the sum of p over the window (k - n, k], a difference of prefix sums."""
    prefix = list(accumulate(p + [0] * (n - 1), initial=0))
    return prefix[1:n] + list(map(sub, prefix[n:], prefix))


def _plus(p, r):
    """Sum of two dense lists."""
    if len(p) < len(r):
        p, r = r, p
    return list(map(add, p, r)) + p[len(r):]


def _q_product_vector(a, v):
    """R_q^{a_0} L_q^{a_1} R_q^{a_2} ... applied to the column v, a pair of
    dense coefficient lists, as a pair of Poly.

    The powers act right to left by their closed forms:
    R_q^n (x, y) = (q^n x + [n]_q y, y) and L_q^n (x, y) = (q^n x, q [n]_q x + y),
    so each partial quotient costs a shift and one window sum."""
    x, y = v
    for i in range(len(a) - 1, -1, -1):
        n = a[i]
        if not n:
            continue
        if i % 2 == 0:
            x = _plus([0] * n + x, _times_q_integer(y, n))
        else:
            x, y = [0] * n + x, _plus([0] + _times_q_integer(x, n), y)
    return Poly.from_dense(x), Poly.from_dense(y)


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
            return "(%s)" % s if len(p.coeffs) > 1 else s

        return "%s/%s" % (side(self.num), side(self.den))

    def qinv_str(self):
        """The q^-1 (q R(q)) / S(q) display used alongside the plain pair."""
        return "q^-1*(%s)/(%s)" % (self.num.shift(1), self.den)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def q_rational(x):
    """The q-analog of a positive rational, as the exact pair (R, S).

    The defining product q^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T equals
    the product with the last exponent lowered by one on (1,1)^T, since
    L_q (1,0)^T = q (1,1)^T; the second display needs no division.
    """
    a = _cf.cf_even(x)
    return QRational(*_q_product_vector(a[:-1] + (a[-1] - 1,), ([1], [1])))


def theorem_pair(a):
    """diag(1,q)^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T, the common pair
    that the three enumeration statistics must reproduce: (q R(q), S(q))."""
    a = _cf.check_cf(a)
    if len(a) % 2:
        raise ValueError("even-length form required")
    v1, v2 = _q_product_vector(a, ([1], []))
    return v1, v2.shift(-1)


def q_shift_identity_check(x):
    """True iff the pair of x+1 is exactly (q R + S, S) for the pair of x."""
    x = Fraction(x)
    lhs = q_rational(x + 1)
    rhs = q_rational(x)
    return lhs.num == rhs.num.shift(1) + rhs.den and lhs.den == rhs.den


def xy_pair(w):
    """(X(w), Y(w)) = diag(1,q)^-1 nu_q(w) (q, q)^T."""
    v1, v2 = nu_q(w).apply((Q, Q))
    return v1, v2.shift(-1)


def xy_recurrence_check(w):
    """Check the one-letter recurrences on top of w:
    X(1w) = qX + qY, Y(1w) = Y, X(0w) = qX, Y(0w) = X + Y."""
    x, y = xy_pair(w)
    x1, y1 = xy_pair("1" + w)
    x0, y0 = xy_pair("0" + w)
    return (
        x1 == (x + y).shift(1)
        and y1 == y
        and x0 == x.shift(1)
        and y0 == x + y
    )


def conjugation_check(w):
    """nu_q(w) diag(1,q) == diag(1,q) nu_q(hat(w))^T."""
    from .words import hat

    d = _diag_1_q()
    return nu_q(w) * d == d * nu_q(hat(w)).transpose()
