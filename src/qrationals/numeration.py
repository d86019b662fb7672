"""Numeration systems attached to continued-fraction expansions.

An expansion a = [a_0; a_1, ..., a_{k-1}] admits digit vectors
b = (b_0, ..., b_{k-1}) subject to

    0 <= b_i <= a_i,
    i > 0 odd  and b_i = a_i ==> b_{i-1} = a_{i-1},
    i > 0 even and b_i = 0   ==> b_{i-1} = 0.

There are exactly r_k of them and the alternating valuation
val(b) = sum (-1)^i b_i r_i hits every integer of an interval of width
r_k exactly once.  Digits are stored least-significant (b_0) first.

`fence.psi` takes the ideals of the fence of W(a) onto these vectors,
keeping size (|I| = b_0 + ... + b_{k-1}) and side (y_0 in I iff b is
filled), so the digit statistics are the fence's statistics scan
(`fence._statistics`) over W(a).  Both expansions of a rational,
[..., a, 1] and [..., a + 1], have one W(a).  `enumerate_admissible` is
the digit model's reference lister; its split into the filled and the
empty vectors, `partition`, is an oracle and lives in `_oracle`.
"""

from . import cf as _cf
from .fence import _statistics

__all__ = [
    "is_admissible",
    "enumerate_admissible",
    "is_filled",
    "val",
    "rep",
    "z_interval",
    "norm1_statistics",
    "numeration_rows",
]


def is_admissible(b, a):
    """True iff b is an admissible digit vector for a.

    >>> is_admissible((2, 2, 1), (2, 2, 2))
    True
    >>> is_admissible((0, 1, 0, 0), (0, 1, 3, 1))
    False
    """
    return _violation(b, _cf.check_cf(a)) is None


def _violation(b, a):
    """None if b is admissible for a, else the first rule that b breaks,
    named by digit indices alone, since b and a can be arbitrarily long."""
    b = tuple(map(int, b))
    if len(b) != len(a):
        raise ValueError("digit vector has length %d, expansion %d" % (len(b), len(a)))
    for i, (bi, ai) in enumerate(zip(b, a)):
        if not 0 <= bi <= ai:
            return "b_%d is outside [0, a_%d]" % (i, i)
        if i and not _rule_holds(i, b[i - 1], bi, a):
            if i % 2:
                return "b_%d = a_%d but b_%d != a_%d" % (i, i, i - 1, i - 1)
            return "b_%d = 0 but b_%d != 0" % (i, i - 1)
    return None


def _rule_holds(i, prev, digit, a):
    """Admissibility rule i > 0 on the digit pair (b_{i-1}, b_i) = (prev, digit)."""
    if i % 2 == 1:
        return digit != a[i] or prev == a[i - 1]
    return digit != 0 or prev == 0


def enumerate_admissible(a):
    """All admissible vectors for a, lexicographic in (b_{k-1}, ..., b_0).

    Digits are emitted ls-first; the list has exactly r_k entries.  The
    vectors grow one layer at a time, b_{k-1} first, each entry extended
    by its allowed digits in ascending order.  This digit descent is the
    digit model's reference lister: no production path calls it, and
    `verify` and the tests hold `val`, `rep` and the digit scan
    (`norm1_statistics`, the fence's scan over W(a)) against it.

    >>> len(enumerate_admissible((2, 2, 2)))
    17
    >>> enumerate_admissible((0, 1))
    [(0, 0), (0, 1)]
    """
    a = _cf.check_cf(a)
    # (b_i, ..., b_{k-1}, the value the rules force on b_{i-1} or None),
    # grown one digit below each entry, each in ascending digit order
    layer = [((), None)]
    for i in range(len(a) - 1, -1, -1):
        forces = {a[i]: a[i - 1]} if i % 2 else {0: 0} if i else {}
        layer = [
            ((bi,) + tail, forces.get(bi))
            for tail, forced in layer
            for bi in (range(a[i] + 1) if forced is None else (forced,))
        ]
    return [tail for tail, _ in layer]


def is_filled(b, a):
    """Membership in the distinguished half of the partition:
    either 0 < b_0, or b_0 = a_0 = 0 < b_1 = a_1."""
    return _filled(b, _cf.check_cf(a))


def _filled(b, a):
    if a[0] > 0:
        return b[0] > 0
    return len(a) > 1 and b[1] == a[1] and a[1] > 0


def val(b, a):
    """Alternating valuation sum (-1)^i b_i r_i of an admissible vector.

    >>> val((2, 2, 1), (2, 2, 2))
    3
    >>> val((2, 2, 2, 2), (2, 2, 2, 2))
    -24
    """
    a = _cf.check_cf(a)
    broken = _violation(b, a)
    if broken:
        raise ValueError("digits not admissible for an expansion of length %d: %s" % (len(a), broken))
    r = _cf.r_sequence(a)
    return sum((-1) ** i * bi * r[i + 1] for i, bi in enumerate(b))


def z_interval(a):
    """Range of val on admissible vectors, as a half-open (lo, hi).

    k odd gives [0, r_k); k even gives [r_{k-1} - r_k, r_{k-1}).

    >>> z_interval((2, 2, 2))
    (0, 17)
    >>> z_interval((2, 2, 2, 2))
    (-24, 17)
    >>> z_interval((1, 1, 1, 1, 1, 1))
    (-8, 13)
    """
    return _interval(_cf.r_sequence(a))


def _interval(r):
    """z_interval from the weights r = r_sequence(a)."""
    if len(r) % 2 == 1:  # k = len(r) - 2 odd
        return (0, r[-1])
    return (r[-2] - r[-1], r[-2])


def rep(n, a):
    """The unique admissible vector with val(rep(n, a)) = n.

    Digits are extracted most-significant first, alternating the two
    quotient steps of the existence induction: at odd i take
    b_i = -floor(n / r_i) and keep the remainder mod r_i, at even i take
    b_i = floor((n - (r_{i-1} - r_i)) / r_i) and subtract b_i r_i.

    >>> rep(10, (2, 2, 2))
    (2, 2, 2)
    >>> rep(-8, (1, 1, 1, 1, 1, 1))
    (1, 1, 1, 1, 1, 1)
    >>> rep(0, (2, 2, 2, 2))
    (0, 0, 0, 0)
    """
    r = _cf.r_sequence(a)
    lo, hi = _interval(r)
    if not lo <= n < hi:
        raise ValueError("%s outside [%s, %s)" % (_integer(n), _integer(lo), _integer(hi)))
    return _digits(n, r)


def _digits(n, r):
    """rep's digit extraction against the weights r = r_sequence(a)."""
    m = n
    digits = [0] * (len(r) - 2)
    for i in range(len(digits) - 1, -1, -1):
        ri = r[i + 1]
        if i % 2 == 1:
            digits[i] = -(m // ri)
            m %= ri
        else:
            digits[i] = (m - (r[i] - ri)) // ri
            m -= digits[i] * ri
    if m:
        raise ValueError("%s has no admissible digits for these weights" % _integer(n))
    return tuple(digits)


def _integer(n):
    """An integer, which can be arbitrarily long, named in an error message:
    in full up to 20 digits, else by its sign and its number of digits,
    counted without str(), which refuses more than 4,300 digits.

    >>> _integer(-17), _integer(-10**5000)
    ('-17', 'a negative 5001-digit integer')
    """
    if -(10**20) < n < 10**20:
        return str(n)
    # (bits - 1) log10(2) gives the digit count or one less
    digits = int((abs(n).bit_length() - 1) * 0.30102999566398120) + 1
    digits += abs(n) >= 10**digits
    return "a %s%d-digit integer" % ("negative " if n < 0 else "", digits)


def norm1_statistics(a):
    """(sum over filled, sum over empty) of q^(b_0 + ... + b_{k-1}): the
    digit scan, the fence's path scan over W(a); no vector is listed.

    >>> tuple(str(p) for p in norm1_statistics((0, 1, 3, 1)))
    ('q^5+q^4+q^3+q^2', 'q^4+q^3+q^2+q+1')
    >>> tuple(str(p) for p in norm1_statistics((1, 1)))
    ('q^2+q', '1')
    """
    return _statistics(_cf._runs(_cf.check_cf(a)))


def numeration_rows(a):
    """[(n, rep(n, a))] for every n in the valuation interval, ascending."""
    r = _cf.r_sequence(a)
    return [(n, _digits(n, r)) for n in range(*_interval(r))]
