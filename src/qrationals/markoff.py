"""Markoff triples and the Christoffel-word matrix maps.

Markoff numbers are the coordinates of positive solutions of
x^2 + y^2 + z^2 = 3xyz, generated from (1,1,1) by the two moves
(x,y,z) -> (x, 3xy-z, y) and (y, 3yz-x, z).  Each one is the (1,2)
entry of mu over a Christoffel word, the product of RL per 0 and
R^2 L^2 per 1, for R = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]].  Over
the exponents a of those powers, mu is [[p_{k-1}, p_{k-2}], [q_{k-1},
q_{k-2}]] for the continuants p, q of a (Graham, Knuth & Patashnik,
Concrete Mathematics, 6.7).  mu_q deforms R and L, and its (1,2) entry,
the packed kernel's product over the same exponents, becomes the area
polynomial of a snake graph.  That area theorem is a claim of
`verify.check_markoff`; at q = 1 a row's number is its matching count.
"""

from .cf import convergents
from .qpoly import Poly, _q_product_vector
from .words import _gamma, check_word, is_christoffel

__all__ = [
    "markoff_numbers_upto",
    "mu",
    "markoff_of",
    "q_markoff",
    "markoff_snake_word",
    "markoff_row",
]

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


def _exponents(w):
    """The exponents of R and L in mu(w): 1, 1 per 0 and 2, 2 per 1."""
    return [e for c in w for e in ((1, 1) if c == "0" else (2, 2))]


def mu(w):
    """The integer matrix of a nonempty binary word, RL per 0 and R^2 L^2
    per 1, from the continuants of its exponents; a monoid map, so any
    word will do.

    >>> mu("00101")
    ((463, 194), (284, 119))
    >>> mu("10")
    ((12, 7), (5, 3))
    """
    check_word(w)
    if not w:
        raise ValueError("empty word")
    p, q = convergents(_exponents(w))
    return (p[-1], p[-2]), (q[-1], q[-2])


def markoff_of(w):
    """The Markoff number of a Christoffel word: entry (1,2) of mu, p_{k-2}.

    >>> markoff_of("00101")
    194
    >>> markoff_of("0")
    1
    """
    _check_domain(w)
    return convergents(_exponents(w))[0][-2]


def q_markoff(w):
    """Entry (1,2) of the q-deformed product; value markoff_of(w) at q=1.

    >>> str(q_markoff("1"))
    'q+1'
    >>> str(q_markoff("0"))
    '1'
    """
    _check_domain(w)
    x, _, width = _q_product_vector(_exponents(w), (0, 1))
    return Poly.from_packed(x, width)


def markoff_snake_word(w):
    """The snake word 0 gamma(w[1:-1]) 0 of a word of at least two letters:
    gamma sends 0 to 00 and 1 to 0110.

    >>> markoff_snake_word("00101")
    '0000110000'
    """
    return _snake_word(check_word(w))


def _snake_word(w):
    """markoff_snake_word of a checked word."""
    return "0" + _gamma(w[1:-1]) + "0"


def markoff_row(w):
    """Table row: word, Markoff number, q-polynomial, and for proper
    words the snake word with its matching count.  The number is the
    q-polynomial's value at q = 1, and by the area theorem at q = 1 so is
    the matching count: a row runs one product and no scan, and checks
    its word once, in `q_markoff`."""
    poly = q_markoff(w)
    number = poly.eval_at_one()
    proper = len(w) >= 2
    return {
        "word": w,
        "number": number,
        "q_polynomial": poly,
        "snake_word": _snake_word(w) if proper else None,
        "matching_count": number if proper else None,
    }
