"""Polynomials in q with integer coefficients, and q-rationals.

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
on dense coefficient lists.
"""

from fractions import Fraction
from itertools import accumulate
from operator import add, sub

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

    Stored as a dict {exponent: coefficient} with no zero coefficients
    and no negative exponent.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in dict(coeffs).items() if c} if coeffs else {}
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("negative exponent %d in a polynomial" % min(self.coeffs))

    @classmethod
    def from_dense(cls, coefficients):
        """The polynomial c_0 + c_1 q + c_2 q^2 + ... of [c_0, c_1, c_2, ...]."""
        p = cls()
        p.coeffs = {e: c for e, c in enumerate(coefficients) if c}
        return p

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            data[e] = data.get(e, 0) + c
        return Poly(data)

    def shift(self, k):
        """Multiply by q**k.  A negative k divides, and raises ValueError
        unless q**-k divides the polynomial."""
        return Poly({e + k: c for e, c in self.coeffs.items()})

    def eval_at_one(self):
        return sum(self.coeffs.values())

    def eval_at_zero(self):
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
ONE = Poly({0: 1})
Q = Poly({1: 1})


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
    dense coefficient lists, as a pair of dense lists.

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
    return x, y


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
    num, den = _q_product_vector(a[:-1] + (a[-1] - 1,), ([1], [1]))
    return QRational(Poly.from_dense(num), Poly.from_dense(den))


def theorem_pair(a):
    """diag(1,q)^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T, the common pair
    that the three enumeration statistics must reproduce: (q R(q), S(q)).
    The last factor is a power of L_q, so the second component starts
    with a zero coefficient, and dropping it divides by q."""
    a = _cf.check_cf(a)
    if len(a) % 2:
        raise ValueError("even-length form required")
    v1, v2 = _q_product_vector(a, ([1], []))
    return Poly.from_dense(v1), Poly.from_dense(v2[1:])


def q_shift_identity_check(x):
    """True iff the pair of x+1 is exactly (q R + S, S) for the pair of x."""
    x = Fraction(x)
    lhs = q_rational(x + 1)
    rhs = q_rational(x)
    return lhs.num == rhs.num.shift(1) + rhs.den and lhs.den == rhs.den
