"""Fence posets of binary words and their lower order ideals.

A word w of length n gives a poset on elements y_0, ..., y_n whose Hasse
diagram is a path: y_{i-1} is covered by y_i when the i-th letter is 1
and covers it when the letter is 0.  So the fence rises on 1's and falls
on 0's, and the fence of a rational (through the even-length expansion)
starts with a down step exactly when x < 1.

Ideals are stored as bitmasks over the elements; bit i is element y_i.
One scan along the path (`_path_scan`), last element to first, so that
one run ends on the split by y_0, lists the ideals on lists of bitmasks.
By the main theorem their sizes, split by y_0, are the pair
`qpoly.theorem_pair` of the word's expansion, as for all three models,
so `ideal_statistics` lists nothing.  The subset filter
(`ideals_by_subset_filter`) shares no code with the scan and is the
listing's independent reference.  It is bitsliced: one integer of
2^size bits holds every subset at once, bit m standing for subset m,
and each cover relation clears the subsets it rules out in a handful of
big-integer operations (word-parallel "broadword" set filtering, Knuth,
TAOCP Vol. 4A, 7.1.3).  Its survivors are read off once, in ascending
order, and a stable sort by size puts them in the listing's order.
"""

from functools import cache
from itertools import accumulate
from operator import concat

from .cf import _expansion_of_word, cf_even, check_cf, word_of_rational
from .numeration import _admissible
from .qpoly import theorem_pair
from .words import check_word

__all__ = [
    "Fence",
    "fence_of_rational",
    "enumerate_ideals",
    "ideals_by_subset_filter",
    "ideal_statistics",
    "rank_polynomials",
    "chains",
    "psi",
    "psi_inverse",
    "fence_to_dot",
    "fence_to_svg",
]


class Fence:
    """Path-shaped poset of a binary word."""

    __slots__ = ("word", "size", "covers")

    def __init__(self, word):
        check_word(word)
        self.word = word
        self.size = len(word) + 1
        # (lower, upper) per letter: y_i covers y_{i-1} on a 1, y_{i-1} covers y_i on a 0
        self.covers = [(i - 1, i) if c == "1" else (i, i - 1) for i, c in enumerate(word, 1)]

    def heights(self):
        """Drawing heights: up one per 1, down one per 0, starting at 0.

        >>> Fence("111001").heights()
        (0, 1, 2, 3, 2, 1, 2)
        """
        return tuple(accumulate((1 if c == "1" else -1 for c in self.word), initial=0))

    def __repr__(self):
        return "Fence(%r)" % self.word


def fence_of_rational(x):
    """Fence of the even-length expansion's word; a_0+...+a_{2l-1} elements."""
    return Fence(word_of_rational(x))


def _path_scan(word, one, add, join):
    """[value over the ideals containing y_0, value over the rest], by one
    scan along the path, last element to first, that keeps one value per
    membership of the element reached last, since only it constrains the
    next one.  `one` is the value of the empty ideal, `add(value, i)` puts
    y_i into every ideal a value stands for, and `join` unites two values.
    The snake runs this scan too, over theta of its word."""
    inside, outside = add(one, len(word)), one
    for i in range(len(word) - 1, -1, -1):
        if word[i] == "1":  # y_{i+1} covers y_i: y_{i+1} in forces y_i in
            inside, outside = add(join(inside, outside), i), outside
        else:  # y_i covers y_{i+1}: y_i in forces y_{i+1} in
            inside, outside = add(inside, i), join(inside, outside)
    return [inside, outside]


def enumerate_ideals(fence):
    """All order ideals, by the path scan on lists of bitmasks.
    Canonical order: by (size, mask).

    >>> len(enumerate_ideals(Fence("0111")))
    9
    >>> enumerate_ideals(Fence(""))
    [0, 1]
    """
    first, rest = _path_scan(fence.word, [0], lambda masks, i: [m | 1 << i for m in masks], concat)
    ideals = first + rest
    ideals.sort()
    ideals.sort(key=int.bit_count)  # stable: ascending masks within a size
    return ideals


# Each mask of `_subset_masks(size)` has 2^size bits, so only sizes up to
# this one are kept: `verify --level deep` filters fences of up to 14
# elements and the benchmark of up to 15.
_CACHED_MASK_SIZE = 16


def _subset_masks(size):
    """holds[i] over the 2^size subsets of `size` elements, bit m standing
    for subset m: the subsets that hold element i.

    The masks grow one element at a time.  The subsets of n elements that
    hold the new element are those of n - 1 elements shifted up by
    2^(n-1), so each old mask is doubled and the new element's mask is
    one run of 2^(n-1) ones above as many zeros.  So holds[i] is its run
    of 2^i ones times a repunit of period 2^(i+1), built by doubling.

    >>> [bin(h) for h in _subset_masks(2)]
    ['0b1010', '0b1100']
    """
    holds = []
    for n in range(size):
        half = 1 << n
        holds = [h | h << half for h in holds] + [(1 << half) - 1 << half]
    return holds


_cached_subset_masks = cache(_subset_masks)


def ideals_by_subset_filter(fence):
    """Same listing of ideals, in the same order, by filtering every
    subset; cross-check oracle only.  It lives here, not in `_oracle`,
    because the benchmark (`bench/workloads.py`) calls it by this module.

    Bitsliced: bit m of one integer of 2^size bits says whether subset m
    is still alive.  A cover (lo, up) clears at once every subset that
    holds up but not lo, `alive &= ~(holds[up] & ~holds[lo])`.  The
    survivors are read off once, in ascending order, by `str.find` over
    the reversed `bin(alive)`; a stable sort by popcount then gives the
    order (size, mask) of `enumerate_ideals`.  The masks are cached for
    fences of up to `_CACHED_MASK_SIZE` elements and built afresh for
    larger ones.

    >>> ideals_by_subset_filter(Fence("01"))
    [0, 2, 3, 6, 7]
    """
    size = fence.size
    holds = (_cached_subset_masks if size <= _CACHED_MASK_SIZE else _subset_masks)(size)
    alive = (1 << (1 << size)) - 1
    for lo, up in fence.covers:
        alive &= ~(holds[up] & ~holds[lo])
    out = []
    # bin() read backwards gives subset m at position m, then "b" and "0"
    bits = bin(alive)[:1:-1]
    m = bits.find("1")
    while m >= 0:
        out.append(m)
        m = bits.find("1", m + 1)
    out.sort(key=int.bit_count)  # stable: ascending masks within a size
    return out


def ideal_statistics(fence):
    """(sum over ideals containing y_0, sum over the rest) of q^|I|:
    `theorem_pair` of the word's expansion; no ideal is listed.

    >>> tuple(str(p) for p in ideal_statistics(Fence("")))
    ('q', '1')
    >>> tuple(str(p) for p in ideal_statistics(Fence("0111")))
    ('q^5+q^4+q^3+q^2', 'q^4+q^3+q^2+q+1')
    """
    return theorem_pair(_expansion_of_word(fence.word))


def rank_polynomials(x):
    """Cardinality statistics of the ideals of the fence of x, split by
    whether the ideal contains the first element: the same pair as
    `ideal_statistics(fence_of_rational(x))`, `theorem_pair` of cf_even(x)
    with no Fence built.  It is also the snake's `area_statistics`: the
    snake of x has the word theta(W(x)), theta is an involution and area
    is ideal size.  The benchmark (`bench/workloads.py`) calls both names.

    >>> from fractions import Fraction
    >>> tuple(str(p) for p in rank_polynomials(Fraction(4, 5)))
    ('q^5+q^4+q^3+q^2', 'q^4+q^3+q^2+q+1')
    >>> tuple(str(p) for p in rank_polynomials(1))
    ('q', '1')
    """
    return theorem_pair(cf_even(x))


def chains(a):
    """Consecutive element blocks of sizes a_0, ..., a_{k-1}.

    >>> chains((3, 3, 2, 1, 3, 3))[2]
    range(6, 8)
    """
    return [range(end - ai, end) for ai, end in zip(a, accumulate(a))]


def psi(mask, a):
    """Digit vector of an ideal: count the ideal's elements per chain.
    Refuses an a that is no expansion, and a mask that is negative or
    holds an element past the sum(a) elements of the fence.

    >>> mask = sum(1 << i for i in (0, 1, 6, 7, 8, 9, 13, 14))
    >>> psi(mask, (3, 3, 2, 1, 3, 3))
    (2, 0, 2, 1, 1, 2)
    """
    a = check_cf(a)
    if mask < 0:
        raise ValueError("an ideal's mask is nonnegative, got a negative one")
    if mask >> sum(a):
        raise ValueError("the mask holds y_%d, past the %d elements of the fence" % (mask.bit_length() - 1, sum(a)))
    return tuple((mask >> block.start & (1 << len(block)) - 1).bit_count() for block in chains(a))


def psi_inverse(b, a):
    """The ideal with digit vector b: take the b_i left-most elements of
    each even-indexed chain and the b_i right-most of each odd-indexed.
    Refuses, as `val` does, digits that are not admissible for a.

    >>> bin(psi_inverse((2, 0, 2, 1, 1, 2), (3, 3, 2, 1, 3, 3)))
    '0b110001111000011'
    """
    b, a = _admissible(b, a)
    mask = 0
    for i, block in enumerate(chains(a)):
        picked = block[: b[i]] if i % 2 == 0 else block[len(block) - b[i]:]
        mask |= sum(1 << j for j in picked)
    return mask


def fence_to_dot(fence):
    """Hasse diagram in DOT, edges pointing from lower to upper element."""
    lines = ["digraph fence {", "  rankdir=BT;", '  node [shape=circle, fontsize=10];']
    for i in range(fence.size):
        lines.append('  y%d [label="y%d"];' % (i, i))
    for lo, up in fence.covers:
        lines.append("  y%d -> y%d;" % (lo, up))
    lines.append("}")
    return "\n".join(lines) + "\n"


def fence_to_svg(fence, ideal=None):
    """Zigzag drawing with one node per element; ideal members are filled."""
    h = fence.heights()
    top = max(h)
    step = 36
    pad = 24
    width = pad * 2 + step * (fence.size - 1)
    height = pad * 2 + step * (top - min(h))
    pts = [(pad + step * i, pad + step * (top - hi)) for i, hi in enumerate(h)]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height)
    ]
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (x1, y1, x2, y2)
        )
    for i, (x, y) in enumerate(pts):
        fill = "black" if ideal is not None and ideal >> i & 1 else "white"
        parts.append(
            '<circle cx="%d" cy="%d" r="8" fill="%s" stroke="black"/>' % (x, y, fill)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="10" text-anchor="middle">y%d</text>'
            % (x, y + 22, i)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
