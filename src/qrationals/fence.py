"""Fence posets of binary words and their lower order ideals.

A word w of length n gives a poset on elements y_0, ..., y_n whose Hasse
diagram is a path: y_{i-1} is covered by y_i when the i-th letter is 1
and covers it when the letter is 0.  So the fence rises on 1's and falls
on 0's, and the fence of a rational (through the even-length expansion)
starts with a down step exactly when x < 1.

Ideals are stored as bitmasks over the elements; bit i is element y_i.
"""

from .cf import cf_even, word_of
from .qpoly import Poly, _plus
from .words import check_word

__all__ = [
    "Fence",
    "fence_of_rational",
    "enumerate_ideals",
    "ideals_by_subset_filter",
    "is_ideal",
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
        self.covers = []
        for i in range(1, self.size):
            if word[i - 1] == "1":
                self.covers.append((i - 1, i))
            else:
                self.covers.append((i, i - 1))

    def heights(self):
        """Drawing heights: up one per 1, down one per 0, starting at 0.

        >>> Fence("111001").heights()
        (0, 1, 2, 3, 2, 1, 2)
        """
        h = [0]
        for c in self.word:
            h.append(h[-1] + (1 if c == "1" else -1))
        return tuple(h)

    def __repr__(self):
        return "Fence(%r)" % self.word


def fence_of_rational(x):
    """Fence of the even-length expansion's word; a_0+...+a_{2l-1} elements."""
    return Fence(word_of(cf_even(x)))


def is_ideal(mask, fence):
    """True iff the masked element set is downward closed."""
    for lo, up in fence.covers:
        if mask >> up & 1 and not mask >> lo & 1:
            return False
    return True


def enumerate_ideals(fence):
    """All order ideals, by a left-to-right frontier scan over the path.

    Only the membership of the previous element constrains the next one,
    so partial ideals are extended one element at a time; no subset
    filtering.  Canonical order: by (size, mask).

    >>> len(enumerate_ideals(Fence("0111")))
    9
    >>> enumerate_ideals(Fence(""))
    [0, 1]
    """
    states = [(0, 0), (1, 1)]
    for i in range(1, fence.size):
        rising = fence.word[i - 1] == "1"
        nxt = []
        for mask, prev_in in states:
            for take in (0, 1):
                if rising and take and not prev_in:
                    continue
                if not rising and prev_in and not take:
                    continue
                nxt.append((mask | (1 << i) if take else mask, take))
        states = nxt
    return sorted((m for m, _ in states), key=lambda m: (bin(m).count("1"), m))


def ideals_by_subset_filter(fence):
    """Same set of ideals by testing every subset; cross-check oracle only.
    It lives here, not in `_oracle`, because the benchmark
    (`bench/workloads.py`) calls it by this module.

    The cover relations are folded into two bitmasks up front so the
    scan over all 2^size subsets stays a handful of integer operations
    per subset; `is_ideal` itself would make long sweeps too slow.
    """
    rising = falling = 0
    for i, letter in enumerate(fence.word, start=1):
        if letter == "1":
            rising |= 1 << i
        else:
            falling |= 1 << i
    out = []
    for m in range(1 << fence.size):
        if (m & rising) & ~(m << 1):
            continue
        if ((m << 1) & falling) & ~m:
            continue
        out.append(m)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def ideal_statistics(fence):
    """(sum over ideals containing y_0, sum over the rest) of q^|I|.

    One scan along the path, first element to last, keeps a dense size
    polynomial per state (y_0 in the ideal, previous element in the
    ideal), since only the previous element constrains the next one; no
    ideal is listed.

    >>> tuple(str(p) for p in ideal_statistics(Fence("")))
    ('q', '1')
    >>> tuple(str(p) for p in ideal_statistics(Fence("0111")))
    ('q^5+q^4+q^3+q^2', 'q^4+q^3+q^2+q+1')
    """
    pair = []
    for first in (1, 0):
        inside, outside = ([0, 1], []) if first else ([], [1])
        for letter in fence.word:
            if letter == "1":  # y_i covers y_{i-1}: y_i joins only after it
                inside, outside = [0] + inside, _plus(inside, outside)
            else:  # y_{i-1} covers y_i: y_{i-1} in the ideal forces y_i in
                inside, outside = [0] + _plus(inside, outside), outside
        pair.append(Poly.from_dense(_plus(inside, outside)))
    return tuple(pair)


def rank_polynomials(x):
    """Cardinality statistics of the ideals of the fence of x, split by
    whether the ideal contains the first element.

    >>> from fractions import Fraction
    >>> tuple(str(p) for p in rank_polynomials(Fraction(4, 5)))
    ('q^5+q^4+q^3+q^2', 'q^4+q^3+q^2+q+1')
    >>> tuple(str(p) for p in rank_polynomials(1))
    ('q', '1')
    """
    return ideal_statistics(fence_of_rational(x))


def chains(a):
    """Consecutive element blocks of sizes a_0, ..., a_{k-1}.

    >>> chains((3, 3, 2, 1, 3, 3))[2]
    range(6, 8)
    """
    blocks = []
    start = 0
    for ai in a:
        blocks.append(range(start, start + ai))
        start += ai
    return blocks


def psi(mask, a):
    """Digit vector of an ideal: count the ideal's elements per chain.

    >>> mask = sum(1 << i for i in (0, 1, 6, 7, 8, 9, 13, 14))
    >>> psi(mask, (3, 3, 2, 1, 3, 3))
    (2, 0, 2, 1, 1, 2)
    """
    return tuple(sum(mask >> i & 1 for i in block) for block in chains(a))


def psi_inverse(b, a):
    """The ideal with digit vector b: take the b_i left-most elements of
    each even-indexed chain and the b_i right-most of each odd-indexed.

    >>> bin(psi_inverse((2, 0, 2, 1, 1, 2), (3, 3, 2, 1, 3, 3)))
    '0b110001111000011'
    """
    mask = 0
    for i, block in enumerate(chains(a)):
        picked = block[: b[i]] if i % 2 == 0 else block[len(block) - b[i]:]
        for j in picked:
            mask |= 1 << j
    return mask


def fence_to_dot(fence, ideal=None):
    """Hasse diagram in DOT, edges pointing from lower to upper element."""
    lines = ["digraph fence {", "  rankdir=BT;", '  node [shape=circle, fontsize=10];']
    for i in range(fence.size):
        style = ""
        if ideal is not None and ideal >> i & 1:
            style = ', style=filled, fillcolor=gray'
        lines.append('  y%d [label="y%d"%s];' % (i, i, style))
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
