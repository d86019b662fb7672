"""Binary words over {0,1}: involutions, morphisms, Christoffel words.

Words are plain Python strings of '0'/'1' characters; the empty word is "".
All maps here are pure and length-preserving unless stated otherwise.
"""

from math import gcd

__all__ = [
    "check_word",
    "complement",
    "reversal",
    "hat",
    "theta",
    "eta",
    "gamma",
    "gamma_prime",
    "christoffel",
    "is_christoffel",
    "christoffel_closure",
    "all_words",
]

_COMPLEMENT = str.maketrans("01", "10")
_GAMMA = str.maketrans({"0": "00", "1": "0110"})


def _summary(text, allowed):
    """A text, which can be arbitrarily long, named in an error message by
    its length and its first character outside `allowed`.

    >>> _summary("0120", "01")
    "'2' at position 3 of 4"
    """
    for i, c in enumerate(text):
        if c not in allowed:
            return "%r at position %d of %d" % (c, i + 1, len(text))
    return "a text of length %d" % len(text)


def _decimal(text):
    """int() of a text of ASCII digits, signs and spaces: int() alone also
    reads every Unicode decimal digit and "_" between digits."""
    if not text.isascii() or "_" in text:
        raise ValueError("not an ASCII integer")
    return int(text)


def check_word(w):
    """Reject anything that is not a 0/1 string."""
    if not isinstance(w, str):
        raise ValueError("not a binary word: a %s" % type(w).__name__)
    if w.strip("01"):
        raise ValueError("not a binary word: %s" % _summary(w, "01"))
    return w


def complement(w):
    """Letterwise swap 0 <-> 1.

    >>> complement("0111")
    '1000'
    """
    check_word(w)
    return w.translate(_COMPLEMENT)


def reversal(w):
    check_word(w)
    return w[::-1]


def hat(w):
    """Reversal composed with complement (in either order).

    >>> hat("001")
    '011'
    """
    return complement(reversal(w))


def _flip_every_other(w, start):
    """w with the letters at start, start + 2, ... complemented."""
    letters = list(w)
    letters[start::2] = w[start::2].translate(_COMPLEMENT)
    return "".join(letters)


def theta(w):
    """Flip the letters at even distance from the right end.

    >>> theta("0111")
    '0010'
    >>> theta("1101100")
    '0111001'
    """
    check_word(w)
    return _flip_every_other(w, 1 - len(w) % 2)


def eta(w):
    """Flip the letters at even distance from the left end.

    Satisfies hat(theta(w)) == eta(hat(w)).

    >>> eta("0")
    '1'
    >>> eta("00")
    '10'
    """
    check_word(w)
    return _flip_every_other(w, 0)


def gamma(w):
    """Morphism 0 -> 00, 1 -> 0110.

    >>> gamma("010")
    '00011000'
    """
    return _gamma(check_word(w))


def _gamma(w):
    """gamma of a checked word."""
    return w.translate(_GAMMA)


def gamma_prime(w):
    """Morphism 0 -> 10, 1 -> 1100.

    >>> gamma_prime("01")
    '101100'
    """
    check_word(w)
    return "".join("10" if c == "0" else "1100" for c in w)


def christoffel(p, q):
    """Lower Christoffel word with p zeros and q ones (slope q/p).

    Digitized segment from (0,0) to (p,q): letter i is '1' exactly when the
    segment crosses a horizontal lattice line in step i.  Requires
    gcd(p, q) = 1 and p + q >= 1; the single letters are christoffel(1,0)
    and christoffel(0,1).

    >>> christoffel(1, 1)
    '01'
    >>> christoffel(3, 2)
    '00101'
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need nonnegative p, q with p+q >= 1")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime, got (%d, %d)" % (p, q))
    n = p + q
    return "".join(
        "1" if (i + 1) * q // n - i * q // n else "0" for i in range(n)
    )


def is_christoffel(w):
    """True iff w is a lower Christoffel word (single letters included).

    >>> is_christoffel("01011")
    True
    >>> is_christoffel("0110")
    False
    """
    check_word(w)
    if not w:
        return False
    p = w.count("0")
    q = len(w) - p
    return gcd(p, q) == 1 and w == christoffel(p, q)


def christoffel_closure(max_length):
    """All Christoffel words of length <= max_length by the doubling rule.

    Brute-force fixpoint of: 0, 1, 01 are Christoffel words, and whenever
    u, v and uv are all Christoffel words, so are uuv and uvv.  Each round
    reads every split u + v of every word uv of the closure.  Used as an
    oracle to validate `christoffel`/`is_christoffel`; it lives here, not
    in `_oracle`, because the benchmark (`bench/workloads.py`) calls it by
    this module.
    """
    closure = {w for w in ("0", "1", "01") if len(w) <= max_length}
    while True:
        fresh = set()
        for uv in closure:
            room = max_length - len(uv)
            for i in range(1, len(uv)):
                u, v = uv[:i], uv[i:]
                if u in closure and v in closure:
                    if len(u) <= room:
                        fresh.add(u + uv)
                    if len(v) <= room:
                        fresh.add(uv + v)
        fresh -= closure
        if not fresh:
            return closure
        closure |= fresh


def all_words(max_length, min_length=0):
    """Iterate every binary word with min_length <= |w| <= max_length."""
    for n in range(min_length, max_length + 1):
        for bits in range(1 << n):
            yield format(bits, "0%db" % n) if n else ""
