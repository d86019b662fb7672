"""Continued fractions of positive rationals and the word codec.

Rationals are `fractions.Fraction` values, always > 0 and auto-reduced.
Expansions are tuples of ints (a_0, ..., a_{k-1}) with a_0 >= 0 and
a_i >= 1 for i > 0.  Every positive rational has exactly one even-length
and one odd-length expansion; the two differ by the rewrite
[..., a, 1] <-> [..., a+1].  The even form encodes the binary word

    W(a) = 1^{a_0} 0^{a_1} 1^{a_2} ... 0^{a_{2l-1} - 1}

which is a bijection from positive rationals onto all binary words.
"""

from fractions import Fraction
from itertools import cycle
from math import gcd

from .words import _decimal, _summary, check_word

__all__ = [
    "check_cf",
    "cf_value",
    "cf_even",
    "cf_odd",
    "cf_str",
    "cf_parse",
    "word_of",
    "word_of_rational",
    "rational_of_word",
    "convergents",
    "r_sequence",
    "sb_level",
    "cw_level",
    "rationals_with_sum_upto",
]


def check_cf(a):
    a = tuple(map(int, a))
    if not a:
        raise ValueError("empty expansion")
    if a[0] < 0 or any(x < 1 for x in a[1:]):
        i = next(i for i, x in enumerate(a) if x < min(i, 1))
        raise ValueError("invalid partial quotients: a_%d < %d in an expansion of length %d" % (i, min(i, 1), len(a)))
    if a == (0,):
        raise ValueError("[0] does not expand a positive rational")
    return a


def cf_value(a):
    """Evaluate (a_0, ..., a_{k-1}) to a Fraction.

    >>> cf_value((3, 6, 1))
    Fraction(22, 7)
    """
    p, q = convergents(a)
    return Fraction(p[-1], q[-1])


def _cf_raw(x):
    # plain Euclidean expansion; never ends in 1 except for x = 1 -> (1,)
    x = Fraction(x)
    if x <= 0:
        raise ValueError("need a positive rational, got %s" % x)
    quotients = []
    num, den = x.numerator, x.denominator
    while den:
        q, r = divmod(num, den)
        quotients.append(q)
        num, den = den, r
    return tuple(quotients)


def _with_parity(a, even):
    if (len(a) % 2 == 0) == even:
        return a
    if a[-1] == 1 and len(a) > 1:
        return a[:-2] + (a[-2] + 1,)
    return a[:-1] + (a[-1] - 1, 1)


def cf_even(x):
    """The even-length expansion; cf_even(1) == (0, 1).

    >>> cf_even(Fraction(22, 7))
    (3, 7)
    >>> cf_even(Fraction(4, 5))
    (0, 1, 3, 1)
    """
    return _with_parity(_cf_raw(x), True)


def cf_odd(x):
    """The odd-length expansion; cf_odd(1) == (1,).

    >>> cf_odd(Fraction(22, 7))
    (3, 6, 1)
    """
    return _with_parity(_cf_raw(x), False)


def cf_str(a):
    a = check_cf(a)
    if len(a) == 1:
        return "[%d]" % a[0]
    return "[%d;%s]" % (a[0], ",".join(str(x) for x in a[1:]))


def cf_parse(text):
    """Parse "[a0;a1,...,ak-1]" (or "[a0]") back to a tuple; integers that
    are no expansion are refused with `check_cf`'s reason."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        head, _, tail = s[1:-1].partition(";")
        parts = [head] + (tail.split(",") if tail else [])
        try:
            a = tuple(map(_decimal, parts))
        except ValueError:
            pass
        else:
            return check_cf(a)
    raise ValueError("expected [a0;a1,...], got %s" % _summary(text, "0123456789[;,] "))


def word_of(a):
    """The word W(a) of an even-length expansion.

    >>> word_of((0, 1, 1, 1))
    '01'
    >>> word_of((3, 2, 1, 1))
    '111001'
    """
    a = check_cf(a)
    if len(a) % 2:
        raise ValueError("word_of needs the even-length form, got %s" % cf_str(a))
    return _runs(a)


def word_of_rational(x):
    """The word W(x) of a positive rational, word_of(cf_even(x)) without a
    second check of the expansion cf_even has just built.

    >>> word_of_rational(Fraction(84, 37))
    '1100010011'
    """
    return _runs(cf_even(x))


def _runs(a):
    # 1^{a_0} 0^{a_1} ... 0^{a_{2l-1}}, less its last letter, a 0
    return "".join(map(str.__mul__, cycle("10"), a))[:-1]


def rational_of_word(w):
    """Inverse of word_of_rational: r/s from r = s = 1, reading w right to
    left, since prepending 1 to the word of r/s gives (r+s)/s and
    prepending 0 gives r/(r+s).

    >>> rational_of_word("")
    Fraction(1, 1)
    >>> rational_of_word("0")
    Fraction(1, 2)
    """
    check_word(w)
    r = s = 1
    for c in reversed(w):
        if c == "1":
            r += s
        else:
            s += r
    return Fraction(r, s)


def convergents(a):
    """Numerators and denominators p_i, q_i of the truncations of a.

    Returns (p, q): two tuples of length k+1 holding p_{-1}, p_0, ..,
    p_{k-1} and q_{-1}, q_0, .., q_{k-1}, so p[i+1] is p_i.

    >>> convergents((2, 2, 2))[0]
    (1, 2, 5, 12)
    """
    return _convergents(check_cf(a))


def _convergents(a):
    # convergents of an expansion check_cf has already checked
    p = [1, a[0]]
    q = [0, 1]
    for x in a[1:]:
        p.append(x * p[-1] + p[-2])
        q.append(x * q[-1] + q[-2])
    return tuple(p), tuple(q)


def r_sequence(a):
    """The weights r_i = p_{i-1} + q_{i-1}.

    Returns a tuple of length k+2 holding r_{-1}, r_0, ..., r_k, so
    r[i+1] is r_i; r_{-1} = r_0 = 1 and r_{i} = a_{i-1} r_{i-1} + r_{i-2}.

    >>> r_sequence((2, 2, 2))
    (1, 1, 3, 7, 17)
    """
    p, q = convergents(a)
    return (1,) + tuple(x + y for x, y in zip(p, q))


def sb_level(depth):
    """Level `depth` of the prefix (Stern-Brocot) tree, left to right.

    Each node is the mediant of its bounds (p, q, p', q'), starting from
    0/1 and 1/0; appending 0 or 1 to its word replaces the right or the
    left bound by the node.

    >>> sb_level(2)
    [Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3, 1)]
    """
    level = [(0, 1, 1, 0)]
    for _ in range(depth):
        nxt = []
        for p, q, p2, q2 in level:
            nxt += ((p, q, p + p2, q + q2), (p + p2, q + q2, p2, q2))
        level = nxt
    return [Fraction(p + p2, q + q2) for p, q, p2, q2 in level]


def cw_level(depth):
    """Level `depth` of the suffix (Calkin-Wilf) tree, left to right:
    prepending 0 or 1 to the word of r/s gives r/(r+s) or (r+s)/s.

    >>> cw_level(2)
    [Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(3, 1)]
    """
    level = [(1, 1)]
    for _ in range(depth):
        level = [child for r, s in level for child in ((r, r + s), (r + s, s))]
    return [Fraction(r, s) for r, s in level]


def rationals_with_sum_upto(bound):
    """All positive rationals r/s with r+s <= bound, reduced."""
    out = []
    for total in range(2, bound + 1):
        for r in range(1, total):
            s = total - r
            if gcd(r, s) == 1:
                out.append(Fraction(r, s))
    return out
