"""Continued fractions of positive rationals and the word codec.

Rationals are ints or `fractions.Fraction` values, always > 0; other
values go through `Fraction`.  Only the functions that build Fractions
import `fractions`, when they run.
Expansions are tuples of ints (a_0, ..., a_{k-1}) with a_0 >= 0 and
a_i >= 1 for i > 0.  Every positive rational has exactly one even-length
and one odd-length expansion; the two differ by the rewrite
[..., a, 1] <-> [..., a+1].  The even form encodes the binary word

    W(a) = 1^{a_0} 0^{a_1} 1^{a_2} ... 0^{a_{2l-1} - 1}

which is a bijection from positive rationals onto all binary words.
"""

from itertools import cycle
from math import gcd
from operator import index

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


def _integers(values, name):
    """The values as ints, refusing a non-integer by its position alone."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(index(v))
        except TypeError:
            raise ValueError("%s_%d is not an integer" % (name, i)) from None
    return tuple(out)


def check_cf(a):
    a = _integers(a, "a")
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
    from fractions import Fraction

    p, q = convergents(a)
    return Fraction(p[-1], q[-1])


def _cf_raw(x):
    """The plain Euclidean expansion of x > 0, read off the numerator and
    denominator of an int or a Fraction, else off `Fraction(x)`; it never
    ends in 1 except for x = 1 -> (1,)."""
    try:
        num, den = x.numerator, x.denominator
    except AttributeError:
        from fractions import Fraction

        x = Fraction(x)
        num, den = x.numerator, x.denominator
    if num <= 0:
        raise ValueError("need a positive rational, got %d%s" % (num, "/%d" % den if den != 1 else ""))
    return _quotients(num, den)


def _quotients(num, den):
    # the Euclidean expansion of num/den, for num, den > 0
    quotients = []
    while den:
        q, r = divmod(num, den)
        quotients.append(q)
        num, den = den, r
    return tuple(quotients)


def _with_parity(a, even):
    # the rewrite [..., a, 1] <-> [..., a + 1] into the asked parity
    if (len(a) % 2 == 0) == even:
        return a
    if len(a) > 1 and a[-1] == 1:
        return a[:-2] + (a[-2] + 1,)
    return a[:-1] + (a[-1] - 1, 1)


def cf_even(x):
    """The even-length expansion; cf_even(1) == (0, 1).

    >>> from fractions import Fraction
    >>> cf_even(Fraction(22, 7))
    (3, 7)
    >>> cf_even(Fraction(4, 5))
    (0, 1, 3, 1)
    """
    return _with_parity(_cf_raw(x), True)


def cf_odd(x):
    """The odd-length expansion; cf_odd(1) == (1,).

    >>> from fractions import Fraction
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
    are no expansion are refused with `check_cf`'s reason, and a ";" with
    no quotient after it, as in "[1;]", like any other text."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        head, separator, tail = s[1:-1].partition(";")
        parts = [head] + (tail.split(",") if separator else [])
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

    >>> from fractions import Fraction
    >>> word_of_rational(Fraction(84, 37))
    '1100010011'
    """
    return _runs(cf_even(x))


def _runs(a):
    # 1^{a_0} 0^{a_1} ... 0^{a_{2l-1}}, less its last letter, a 0
    return "".join(map(str.__mul__, cycle("10"), a))[:-1]


def _expansion_of_word(w):
    """The even-length expansion a with `_runs(a) == w`, for a binary word
    w: the run lengths of w + "0", after a quotient 0 when w + "0" starts
    with 0.  It is cf_even(rational_of_word(w)) with no rational built.

    >>> _expansion_of_word("1100010011"), _expansion_of_word("")
    ((2, 3, 1, 2, 2, 1), (0, 1))
    """
    w += "0"
    a = tuple(map(len, w.replace("01", "0 1").replace("10", "1 0").split()))
    return a if w[0] == "1" else (0,) + a


def rational_of_word(w):
    """Inverse of word_of_rational: the last pair of `_suffix_pairs`.

    >>> rational_of_word("")
    Fraction(1, 1)
    >>> rational_of_word("0")
    Fraction(1, 2)
    """
    from fractions import Fraction

    check_word(w)
    return Fraction(*_suffix_pairs(w)[-1])


def _suffix_pairs(w):
    """(r, s) of the rationals whose words are the suffixes of w, by length
    0..len(w): from r = s = 1, reading w right to left, since prepending 1
    to the word of r/s gives (r+s)/s and prepending 0 gives r/(r+s).

    >>> _suffix_pairs("10")
    [(1, 1), (1, 2), (3, 2)]
    """
    r = s = 1
    pairs = [(1, 1)]
    for c in reversed(w):
        if c == "1":
            r += s
        else:
            s += r
        pairs.append((r, s))
    return pairs


def convergents(a):
    """Numerators and denominators p_i, q_i of the truncations of a.

    Returns (p, q): two tuples of length k+1 holding p_{-1}, p_0, ..,
    p_{k-1} and q_{-1}, q_0, .., q_{k-1}, so p[i+1] is p_i.

    >>> convergents((2, 2, 2))[0]
    (1, 2, 5, 12)
    """
    a = check_cf(a)
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

    >>> sb_level(2)
    [Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3, 1)]
    """
    from fractions import Fraction

    return [Fraction(p, q) for p, q in _sb_pairs(depth)]


def _sb_pairs(depth):
    """Level `depth` of the prefix tree as reduced pairs (r, s).

    Each node is the mediant of its bounds (p, q, p', q'), starting from
    0/1 and 1/0; appending 0 or 1 to its word replaces the right or the
    left bound by the node.  Each node is reduced, since p' q - p q' = 1
    for every pair of bounds.
    """
    level = [(0, 1, 1, 0)]
    for _ in range(depth):
        nxt = []
        for p, q, p2, q2 in level:
            nxt += ((p, q, p + p2, q + q2), (p + p2, q + q2, p2, q2))
        level = nxt
    return [(p + p2, q + q2) for p, q, p2, q2 in level]


def cw_level(depth):
    """Level `depth` of the suffix (Calkin-Wilf) tree, left to right.

    >>> cw_level(2)
    [Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(3, 1)]
    """
    from fractions import Fraction

    return [Fraction(r, s) for r, s in _cw_pairs(depth)]


def _cw_pairs(depth):
    """Level `depth` of the suffix tree as reduced pairs (r, s): prepending
    0 or 1 to the word of r/s gives r/(r+s) or (r+s)/s, and both are
    reduced when r/s is."""
    level = [(1, 1)]
    for _ in range(depth):
        level = [child for r, s in level for child in ((r, r + s), (r + s, s))]
    return level


def rationals_with_sum_upto(bound):
    """All positive rationals r/s with r+s <= bound, reduced."""
    from fractions import Fraction

    out = []
    for total in range(2, bound + 1):
        for r in range(1, total):
            s = total - r
            if gcd(r, s) == 1:
                out.append(Fraction(r, s))
    return out
