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
from .snake import Snake, area_histogram, matching_counts
from .words import check_word, gamma, is_christoffel

__all__ = [
    "markoff_numbers_upto",
    "mu",
    "markoff_of",
    "q_markoff",
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


def _check_domain(w, check):
    check_word(w)
    if not w:
        raise ValueError("empty word")
    if check and not is_christoffel(w):
        raise ValueError("%r is not a Christoffel word (pass check=False to force)" % w)


def mu(w, check=True):
    """Integer matrix product over the word, 0 and 1 each a fixed matrix.

    >>> mu("00101")
    ((463, 194), (284, 119))
    """
    _check_domain(w, check)
    m = ((1, 0), (0, 1))
    for c in w:
        m = _mat_mul(m, _M0 if c == "0" else _M1)
    return m


def markoff_of(w, check=True):
    """The Markoff number of a Christoffel word: entry (1,2) of mu.

    >>> markoff_of("00101")
    194
    >>> markoff_of("0")
    1
    """
    return mu(w, check)[0][1]


def q_markoff(w, check=True):
    """Entry (1,2) of the q-deformed product; value markoff_of(w) at q=1.

    >>> str(q_markoff("1"))
    'q+1'
    >>> str(q_markoff("0"))
    '1'
    """
    _check_domain(w, check)
    a = [e for c in w for e in ((1, 1) if c == "0" else (2, 2))]
    return Poly.from_dense(_q_product_vector(a, ([], [1]))[0])


def verify_area_theorem(m):
    """Check that the q-Markoff polynomial of 0m1 equals the area
    generating polynomial over all matchings of the snake of 0 gamma(m) 0,
    the histogram of the transfer scan.

    >>> verify_area_theorem("101")
    True
    >>> verify_area_theorem("")
    True
    """
    check_word(m)
    word = "0" + m + "1"
    if not is_christoffel(word):
        raise ValueError("0%s1 is not a Christoffel word" % m)
    hist = area_histogram(Snake("0" + gamma(m) + "0"))
    return q_markoff(word) == Poly(hist)


def markoff_row(w, check=True):
    """Table row: word, Markoff number, q-polynomial, and for proper
    words the snake word with its matching count, from the transfer scan."""
    row = {
        "word": w,
        "number": markoff_of(w, check),
        "q_polynomial": q_markoff(w, check),
        "snake_word": None,
        "matching_count": None,
    }
    if len(w) >= 2:
        snake_word = "0" + gamma(w[1:-1]) + "0"
        row["snake_word"] = snake_word
        row["matching_count"] = sum(matching_counts(snake_word))
    return row
