"""Snake graphs, perfect matchings, and the area statistic.

A word w of length n gives a staircase of n+1 unit cells: the cell of a
prefix p sits at (number of 0s in p, number of 1s in p), so a 0 steps
right and a 1 steps up.  The snake graph G(w) is the union of the four
unit-square edges of every cell: 2n+4 vertices and 3n+4 edges.

Matchings are bitmasks over the edge list; edges are canonical pairs of
lattice points, each pair sorted lexicographically.  The area of a
matching m counts the cells enclosed by the symmetric difference with
the basic matching, and the map to the rational world goes through
theta: the snake of x is G(theta(W(x))).

Both rules of the area statistic read off the word.  The basic matching
takes each cell's boundary sides (those shared with no other cell), by
the parity of its distance from the last cell (`_basic_sides`).  A row
of the snake is one run of cells, so a leftward ray from a cell's centre
crosses the left sides of its row up to its own: a cell is enclosed iff
an odd number of those differ from the basic matching.

The matchings are the ideals of the fence F(theta(w)), twisted.  `phi`
takes a matching to the ideal of its enclosed cells, and back again the
matching of an ideal I is the basic matching with every cell j in I
twisted, that is, XORed with its four sides: a side shared by two cells
of I is twisted twice and cancels, so what differs from the basic matching
is the boundary of the enclosed region.  These are the face twists of the
matching lattice of a planar bipartite graph (Propp, "Lattice structure
for orientations of graphs", 2002).  So the snake runs the fence's scan
(`fence._path_scan`) over theta(w): on edge masks, starting from the
basic matching and twisting each cell it takes, it lists the matchings;
on ints, the counts.  Area is size, so the area statistics are the
fence's, and `area_statistics` is `fence.rank_polynomials` by a second
name.  A matching is perpendicular iff its ideal holds y_0: iff it is
off the basic one on edge 0.
What keeps the snake honest shares no code with the scan: the backtracking
matcher (`matchings_by_backtracking`), which checks the listing, the tally
of `enclosed_cells` over it, and in `verify` the pop recursion.

`prefix_suffix_table` runs no scan: the counts of a snake are the pair of
a rational, so the counts of every prefix and every suffix come from a
2x2 recurrence over the word in O(n) integer additions, and the scan,
once per row, is its independent reference in `verify`.
"""

from functools import cache, cached_property
from itertools import compress
from operator import add, concat

from .cf import _expansion_of_word, _suffix_pairs, word_of_rational
from .fence import _path_scan, rank_polynomials as area_statistics
from .qpoly import theorem_pair
from .words import check_word, theta

__all__ = [
    "Snake",
    "snake_word",
    "snake_of_rational",
    "enumerate_matchings",
    "matchings_by_backtracking",
    "area_statistics",
    "matching_statistics",
    "matching_counts",
    "phi",
    "prefix_suffix_table",
    "matching_edges",
    "snake_to_svg",
]


def _square_edges(cx, cy):
    """Bottom, right, top, left edges of the unit square at (cx, cy)."""
    return (
        ((cx, cy), (cx + 1, cy)),
        ((cx + 1, cy), (cx + 1, cy + 1)),
        ((cx, cy + 1), (cx + 1, cy + 1)),
        ((cx, cy), (cx, cy + 1)),
    )


# After a 0 the next cell sits to the right, after a 1 on top: a cell is
# left through its right or top side and the next one entered through its
# left or bottom side.
_EXIT_SIDE = {"0": 1, "1": 2}
_ENTRY_SIDE = {"0": 3, "1": 0}


def _letter_pairs(word):
    """(previous letter, letter) around each cell, None at an end."""
    return zip((None,) + tuple(word), tuple(word) + (None,))


@cache
def _basic_sides(prev, letter, odd):
    """Sides of the basic matching, the snake's one parity rule, in a cell
    entered after `prev`, left by `letter` and an odd (`odd` = 1) or even
    (0) number of cells before the last cell: the cell's boundary sides,
    the vertical ones at an even distance and the horizontal ones at an odd."""
    shared = (_ENTRY_SIDE.get(prev), _EXIT_SIDE.get(letter))
    return tuple(j for j in ((0, 2) if odd else (1, 3)) if j not in shared)


class Snake:
    """Snake graph of a binary word, with edge-indexed matchings.

    `cells`, `edges`, `squares` (each cell's bottom, right, top and left
    edge indices) and `basic_mask` are built with the snake.  Cell 0 has
    edges 0-3.  Cell j >= 1 adds edges 3j + 1, 3j + 2 and 3j + 3: its
    sides in order, less the side it is entered by, which is its
    predecessor's right side after a 0 and its top side after a 1.  Three
    more tables are built on first use and kept: `_twists`, each cell's
    four sides as one mask, which the listing XORs; `vertex_edges`, the
    vertex-to-edges map of the backtracking matcher and the drawing; and
    the per-cell left sides that `enclosed_cells` walks.  The statistics
    and counts read none of them, only the word."""

    def __init__(self, word):
        check_word(word)
        self.word = word
        cx = cy = 0
        cells = [(0, 0)]
        edges = list(_square_edges(0, 0))
        squares = [(0, 1, 2, 3)]
        for c in word:
            n = len(edges)  # 3j + 1 for cell j
            _, right, top, _ = squares[-1]
            if c == "0":
                cx += 1
                squares.append((n, n + 1, n + 2, right))
            else:
                cy += 1
                squares.append((top, n, n + 1, n + 2))
            sw, se, nw, ne = (cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)
            edges += ((sw, se), (se, ne), (nw, ne)) if c == "0" else ((se, ne), (nw, ne), (sw, nw))
            cells.append((cx, cy))
        self.cells = cells
        self.edges = edges
        self.squares = squares
        self.basic_mask = sum(
            1 << square[j]
            for i, (square, (prev, letter)) in enumerate(zip(squares, _letter_pairs(word)))
            for j in _basic_sides(prev, letter, (len(word) - i) % 2)
        )

    @cached_property
    def _twists(self):
        """Per cell, the mask of its four sides: XOR it to twist the cell."""
        return tuple(sum(1 << e for e in square) for square in self.squares)

    @cached_property
    def vertex_edges(self):
        out = {}
        for i, e in enumerate(self.edges):
            for v in e:
                out.setdefault(v, []).append(i)
        return out

    @cached_property
    def _left_sides(self):
        """(left-side edge, whether the cell starts a row) per cell."""
        return tuple((square[3], j == 0 or self.word[j - 1] == "1") for j, square in enumerate(self.squares))

    def __repr__(self):
        return "Snake(%r)" % self.word

    def classify(self, mask):
        """'perp' iff the matching is off the basic one on edge 0, the first
        cell's bottom side, which only the first cell's twist touches."""
        return "perp" if (mask ^ self.basic_mask) & 1 else "par"

    def enclosed_cells(self, mask):
        """Cells inside the cycles of the symmetric difference with the
        basic matching: those with an odd number of left sides in their
        row, up to their own, off the basic matching."""
        d = mask ^ self.basic_mask
        out = []
        par = 0
        for j, (left, starts_row) in enumerate(self._left_sides):
            par = (0 if starts_row else par) ^ (d >> left & 1)
            if par:
                out.append(j)
        return out

    def area(self, mask):
        return len(self.enclosed_cells(mask))


def snake_word(x):
    """The word whose snake realizes x: theta applied to W(cf_even(x))."""
    return theta(word_of_rational(x))


def snake_of_rational(x):
    """Snake with a_0 + ... + a_{2l-1} cells realizing x.

    >>> from fractions import Fraction
    >>> len(snake_of_rational(Fraction(27, 10)).cells)
    8
    >>> snake_of_rational(Fraction(2, 7)).word
    '0100'
    """
    return Snake(snake_word(x))


def enumerate_matchings(g, area=False):
    """All perfect matchings as sorted edge masks; with `area`, as
    (mask, area) pairs sorted by mask.

    The fence's scan over theta(w) lists them on edge masks: it starts
    from the basic matching and twists each cell it puts into an ideal,
    so each matching comes out as the basic matching twisted at its ideal,
    `phi` inverted.  With `area` each value is mask << shift | area, and a
    twist also adds one to the area bits.  No area reaches 1 << shift, and
    no two matchings share a mask, so these values sort like the masks:
    one sort of the scan's output gives the listing its order.

    >>> len(enumerate_matchings(Snake("0100")))
    9
    >>> len(enumerate_matchings(Snake("")))
    2
    >>> enumerate_matchings(Snake(""), area=True)
    [(5, 1), (10, 0)]
    """
    shift = len(g.cells).bit_length() if area else 0
    twists = [t << shift for t in g._twists]
    bump = int(area)

    def twist(values, i):
        t = twists[i]
        return [(v ^ t) + bump for v in values]

    values = sorted(concat(*_path_scan(theta(g.word), [g.basic_mask << shift], twist, concat)))
    return [(v >> shift, v & (1 << shift) - 1) for v in values] if area else values


def matchings_by_backtracking(g):
    """Independent oracle for `enumerate_matchings`: match the first
    uncovered vertex along the strip each step, by x + y, then by x.  It
    lives here, not in `_oracle`, because the benchmark
    (`bench/workloads.py`) calls it by this module.

    The completions of a covered-vertex set depend on that set alone, so
    each set's list is built once and shared by every branch reaching it.
    Along the strip the memo holds about one set per vertex, against two
    in (x, y) order, which jumps across the strip.  The first uncovered
    vertex is the lowest set bit of covered + 1, and each edge's branch
    ORs its bit into the shared list by `map`."""
    verts = sorted(g.vertex_edges, key=lambda v: (v[0] + v[1], v[0]))
    vid = {v: i for i, v in enumerate(verts)}
    incident = [g.vertex_edges[v] for v in verts]
    endpoints = [(vid[a], vid[b]) for a, b in g.edges]
    completions = {(1 << len(verts)) - 1: [0]}

    def complete(covered):
        out = completions.get(covered)
        if out is not None:
            return out
        v = (~covered & covered + 1).bit_length() - 1
        out = []
        for e in incident[v]:
            a, b = endpoints[e]
            u = b if a == v else a
            if not covered >> u & 1:
                out += map((1 << e).__or__, complete(covered | 1 << v | 1 << u))
        completions[covered] = out
        return out

    return sorted(complete(0))


def matching_statistics(g):
    """(sum over perpendicular, sum over parallel) of q^area: area is
    ideal size, so `theorem_pair` of the expansion of theta(w), the
    fence's word; no matching is listed.

    >>> tuple(str(p) for p in matching_statistics(Snake("0100")))
    ('q^5+q^4', 'q^4+2*q^3+2*q^2+q+1')
    """
    return theorem_pair(_expansion_of_word(theta(g.word)))


def matching_counts(w):
    """(perpendicular, parallel) matching counts of G(w): the fence's scan
    over theta(w) on ints, with no Snake built.

    >>> matching_counts("0100")
    (2, 7)
    >>> matching_counts("")
    (1, 1)
    """
    return tuple(_path_scan(theta(w), 1, lambda count, i: count, add))


def matching_edges(g, mask):
    """Edge pairs of a matching mask, in index order: the edge objects of
    `g.edges` themselves, not copies.

    >>> g = Snake("0")
    >>> edges = matching_edges(g, 0b100101)
    >>> edges == (g.edges[0], g.edges[2], g.edges[5]) and edges[0] is g.edges[0]
    True
    """
    # bin(mask) read backwards gives bit i at position i, then "b" and "0"
    return tuple(compress(g.edges, map("1".__eq__, reversed(bin(mask)))))


def phi(g, mask):
    """Ideal of F(theta(w)) attached to a matching of G(w): element j is
    in the ideal iff cell j is enclosed.

    >>> g = Snake("0100")
    >>> phi(g, g.basic_mask)
    0
    >>> len(set(phi(g, m) for m in enumerate_matchings(g)))
    9
    """
    return sum(1 << j for j in g.enclosed_cells(mask))


def prefix_suffix_table(x):
    """(perpendicular count, parallel count) for the snakes of every
    prefix and every suffix of the word of x, by length 0..n.

    The snake of v has the counts (r, s) of the rational r/s whose word is
    theta(v), and these are M(theta(v)) applied to (1, 1), for M the
    product of R = [[1, 1], [0, 1]] per 1 and L = [[1, 0], [1, 1]] per 0.
    For the snake word w = theta(u) of n letters, theta(w[n-j:]) is
    u[n-j:], and theta(w[:j]) is u[:j], or its complement (pair swapped)
    when n - j is odd.  So a running product M(u[:j]) and the suffix pairs
    of u, `cf._suffix_pairs`, give the table in O(n) integer additions.
    `verify` holds every row against a `matching_counts` scan.

    >>> from fractions import Fraction
    >>> prefix_suffix_table(1)
    {'word': '', 'prefixes': [(1, 1)], 'suffixes': [(1, 1)]}
    >>> prefix_suffix_table(Fraction(5, 2))["suffixes"]
    [(1, 1), (1, 2), (3, 2), (5, 2)]
    """
    return _prefix_suffix_table(word_of_rational(x))


def _prefix_suffix_table(u):
    """`prefix_suffix_table` of the rational whose word is u."""
    a, b, c, d = 1, 0, 0, 1  # M(u[:j])
    prefixes = [(1, 1)]
    swap = len(u) % 2 == 0  # n - j is odd, for j = 1
    for letter in u:
        if letter == "1":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
        prefixes.append((c + d, a + b) if swap else (a + b, c + d))
        swap = not swap
    return {"word": theta(u), "prefixes": prefixes, "suffixes": _suffix_pairs(u)}


def snake_to_svg(g, matching=None):
    """Drawing with the basic matching dashed, a given matching solid,
    and its enclosed cells shaded."""
    step = 40
    pad = 20
    max_x = max(cx for cx, _ in g.cells) + 1
    max_y = max(cy for _, cy in g.cells) + 1
    width = 2 * pad + step * max_x
    height = 2 * pad + step * max_y

    def pt(v):
        return (pad + step * v[0], pad + step * (max_y - v[1]))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height)
    ]
    shaded = g.enclosed_cells(matching) if matching is not None else []
    for j in shaded:
        cx, cy = g.cells[j]
        x, y = pt((cx, cy + 1))
        parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="lightgray"/>'
            % (x, y, step, step)
        )
    for i, (a, b) in enumerate(g.edges):
        (x1, y1), (x2, y2) = pt(a), pt(b)
        if matching is not None and matching >> i & 1:
            style = 'stroke="black" stroke-width="3"'
        elif g.basic_mask >> i & 1:
            style = 'stroke="black" stroke-dasharray="4 3"'
        else:
            style = 'stroke="gray" stroke-width="0.5"'
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" %s/>' % (x1, y1, x2, y2, style)
        )
    for v in sorted(g.vertex_edges):
        x, y = pt(v)
        parts.append('<circle cx="%d" cy="%d" r="2.5" fill="black"/>' % (x, y))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
