"""Markoff triples and the Christoffel-word matrix maps.

Markoff numbers are the coordinates of positive solutions of
x^2 + y^2 + z^2 = 3xyz, generated from (1,1,1) by the two moves
(x,y,z) -> (x, 3xy-z, y) and (y, 3yz-x, z).  Each one is the (1,2)
entry of mu over a Christoffel word, where mu maps 0 and 1 to fixed
integer matrices; mu_q deforms those matrices, mu_q(0) = R_q L_q and
mu_q(1) = R_q^2 L_q^2, so that the (1,2) entry becomes the area
polynomial of a snake graph.
"""

from .qpoly import Poly, _q_product_vector
from .snake import Snake, matching_counts, matching_statistics
from .words import check_word, gamma, is_christoffel

__all__ = [
    "markoff_numbers_upto",
    "mu",
    "markoff_of",
    "q_markoff",
    "markoff_snake_word",
    "verify_area_theorem",
    "markoff_row",
]

_M0 = ((2, 1), (1, 1))
_M1 = ((5, 2), (2, 1))


def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def markoff_numbers_upto(bound):
    """Sorted Markoff numbers <= bound, from the recursive triple tree.

    >>> markoff_numbers_upto(200)
    [1, 2, 5, 13, 29, 34, 89, 169, 194]
    >>> markoff_numbers_upto(1)
    [1]
    """
    if bound < 1:
        return []
    found = set()
    seen = set()
    stack = [(1, 1, 1)]
    while stack:
        triple = stack.pop()
        key = tuple(sorted(triple))
        if key in seen:
            continue
        seen.add(key)
        found.update(v for v in triple if v <= bound)
        x, y, z = triple
        for child in ((x, 3 * x * y - z, y), (y, 3 * y * z - x, z)):
            if child[1] <= bound:
                stack.append(child)
    return sorted(found)


def _check_domain(w):
    """Refuse all but a Christoffel word, naming it by its length alone."""
    if not w:
        raise ValueError("empty word")
    if not is_christoffel(w):
        raise ValueError("the Markoff word of %d letters is not a Christoffel word" % len(w))


def mu(w):
    """Integer matrix product over a nonempty binary word, 0 and 1 each a
    fixed matrix; a monoid map, so any word will do.

    >>> mu("00101")
    ((463, 194), (284, 119))
    >>> mu("10")
    ((12, 7), (5, 3))
    """
    check_word(w)
    if not w:
        raise ValueError("empty word")
    m = ((1, 0), (0, 1))
    for c in w:
        m = _mat_mul(m, _M0 if c == "0" else _M1)
    return m


def markoff_of(w):
    """The Markoff number of a Christoffel word: entry (1,2) of mu.

    >>> markoff_of("00101")
    194
    >>> markoff_of("0")
    1
    """
    _check_domain(w)
    return mu(w)[0][1]


def q_markoff(w):
    """Entry (1,2) of the q-deformed product; value markoff_of(w) at q=1.

    >>> str(q_markoff("1"))
    'q+1'
    >>> str(q_markoff("0"))
    '1'
    """
    _check_domain(w)
    a = [e for c in w for e in ((1, 1) if c == "0" else (2, 2))]
    x, _, width = _q_product_vector(a, (0, 1))
    return Poly.from_packed(x, width)


def markoff_snake_word(w):
    """The snake word 0 gamma(w[1:-1]) 0 of a word of at least two letters:
    gamma sends 0 to 00 and 1 to 0110.

    >>> markoff_snake_word("00101")
    '0000110000'
    """
    check_word(w)
    return "0" + gamma(w[1:-1]) + "0"


def verify_area_theorem(m):
    """Check that the q-Markoff polynomial of 0m1 equals the area
    generating polynomial over all matchings of the snake of 0 gamma(m) 0,
    from the snake's statistics (the fence's scan over theta of its word).

    >>> verify_area_theorem("101")
    True
    >>> verify_area_theorem("")
    True
    """
    check_word(m)
    word = "0" + m + "1"
    q_polynomial = q_markoff(word)
    perp, par = matching_statistics(Snake(markoff_snake_word(word)))
    return q_polynomial == perp + par


def markoff_row(w):
    """Table row: word, Markoff number, q-polynomial, and for proper
    words the snake word with its matching count, from the counting scan."""
    row = {
        "word": w,
        "number": markoff_of(w),
        "q_polynomial": q_markoff(w),
        "snake_word": None,
        "matching_count": None,
    }
    if len(w) >= 2:
        row["snake_word"] = markoff_snake_word(w)
        row["matching_count"] = sum(matching_counts(row["snake_word"]))
    return row
