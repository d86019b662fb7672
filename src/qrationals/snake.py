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

Matchings are built one cell at a time, first to last.  A cell meets
its neighbours only through the side it shares with each, so its moves
depend on the letter pair around it alone; the nine tables of moves, one
per (previous letter, letter) with None at an end, are built once, on
first use, in local corner coordinates.

Both rules of the area statistic read off the word.  The basic matching
takes each cell's boundary sides (those shared with no other cell): the
vertical ones when the cell is an even number of cells from the last
cell, the horizontal ones when the distance is odd.  A row of the snake
is one run of cells, so a leftward ray from a cell's centre crosses the
left sides of its row up to its own: a cell is enclosed iff an odd
number of those differ from the basic matching.  Two scans walk the
tables:

* the transfer scan (`_transfer`) keeps one dense area polynomial per
  boundary state (bottom-edge bit of the first cell, coverage of the side
  shared with the next cell, enclosure parity in the current row), so
  the statistics and the counts cost time polynomial in the word length;
  run as a two-way count sweep, it gives the matching counts of every
  prefix (forward, each prefix closed by its end-cell table) and of
  every suffix (backward, completion counts per coverage, each suffix
  opened by its start-cell table) in O(n) cell steps, for
  `prefix_suffix_table`;
* the listing scan (`_scan`) yields every matching; it serves
  `enumerate_matchings` and the oracle path in `verify` and the tests,
  where the output itself is exponential.
"""

from functools import cache
from itertools import product

from .cf import cf_even, word_of
from .qpoly import Poly, _plus
from .words import check_word, theta

__all__ = [
    "Snake",
    "snake_word",
    "snake_of_rational",
    "enumerate_matchings",
    "matchings_by_backtracking",
    "area_histogram",
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


# A cell's corners in local coordinates are 0 = (0,0), 1 = (1,0),
# 2 = (0,1), 3 = (1,1); its sides, in _square_edges order, join these pairs.
_SIDE_CORNERS = ((0, 1), (1, 3), (2, 3), (0, 2))
# After a 0 the next cell sits to the right, after a 1 on top: a cell is
# left through its right or top side and the next one entered through its
# left or bottom side.
_EXIT_SIDE = {"0": 1, "1": 2}
_ENTRY_SIDE = {"0": 3, "1": 0}


def _letter_pairs(word):
    """(previous letter, letter) around each cell, None at an end."""
    return zip((None,) + tuple(word), tuple(word) + (None,))


def _basic_sides(prev, letter, distance):
    """Sides of the basic matching in a cell entered after `prev`, left by
    `letter` and `distance` cells before the last cell: the cell's
    boundary sides, the vertical ones at an even distance and the
    horizontal ones at an odd one."""
    shared = (_ENTRY_SIDE.get(prev), _EXIT_SIDE.get(letter))
    return tuple(j for j in ((0, 2) if distance % 2 else (1, 3)) if j not in shared)


@cache
def _cell_table(prev, letter):
    """Moves through one cell entered after letter `prev` and left by
    `letter` (None at either end of the word): coverage of the corners
    shared with the previous cell -> [(sides chosen, coverage of the
    corners shared with the next cell)].  The cell owns its sides except
    the one shared with the previous cell.  The chosen sides are
    vertex-disjoint, avoid the covered corners, and cover every corner
    not on the side shared with the next cell, since no later cell
    meets it."""
    entry = _SIDE_CORNERS[_ENTRY_SIDE[prev]] if prev else ()
    exit_ = _SIDE_CORNERS[_EXIT_SIDE[letter]] if letter else ()
    owned = [j for j in range(4) if not prev or j != _ENTRY_SIDE[prev]]
    table = {}
    for state in product((0, 1), repeat=len(entry)):
        covered = {v for v, s in zip(entry, state) if s}
        moves = []
        for bits in range(1 << len(owned)):
            sides = tuple(j for k, j in enumerate(owned) if bits >> k & 1)
            ends = [v for j in sides for v in _SIDE_CORNERS[j]]
            newly = covered.union(ends)
            if len(newly) < len(covered) + len(ends):
                continue
            if any(v not in newly and v not in exit_ for v in range(4)):
                continue
            moves.append((sides, tuple(int(v in newly) for v in exit_)))
        table[state] = moves
    return table


class Snake:
    """Snake graph of a binary word, with edge-indexed matchings."""

    def __init__(self, word):
        check_word(word)
        self.word = word
        cells = [(0, 0)]
        for c in word:
            cx, cy = cells[-1]
            cells.append((cx + 1, cy) if c == "0" else (cx, cy + 1))
        self.cells = cells
        self.edges = []
        self.edge_index = {}
        self.squares = []
        for cx, cy in cells:
            idxs = []
            for e in _square_edges(cx, cy):
                if e not in self.edge_index:
                    self.edge_index[e] = len(self.edges)
                    self.edges.append(e)
                idxs.append(self.edge_index[e])
            self.squares.append(tuple(idxs))
        self.vertex_edges = {}
        for i, e in enumerate(self.edges):
            for v in e:
                self.vertex_edges.setdefault(v, []).append(i)
        self.basic_mask = sum(
            1 << square[j]
            for i, (square, (prev, letter)) in enumerate(zip(self.squares, _letter_pairs(word)))
            for j in _basic_sides(prev, letter, len(word) - i)
        )

    def __repr__(self):
        return "Snake(%r)" % self.word

    def classify(self, mask):
        """'perp' or 'par' by the first-edge orientation against |w| parity:
        perpendicular means horizontal first edge for even |w|, vertical
        for odd |w|; equivalently the first edge is not the basic one."""
        horizontal = mask >> self.squares[0][0] & 1
        return "perp" if horizontal == (len(self.word) % 2 == 0) else "par"

    def enclosed_cells(self, mask):
        """Cells inside the cycles of the symmetric difference with the
        basic matching: those with an odd number of left sides in their
        row, up to their own, off the basic matching."""
        d = mask ^ self.basic_mask
        out = []
        par = 0
        for j, square in enumerate(self.squares):
            if j and self.word[j - 1] == "1":
                par = 0
            par ^= d >> square[3] & 1
            if par:
                out.append(j)
        return out

    def area(self, mask):
        return len(self.enclosed_cells(mask))


def snake_word(x):
    """The word whose snake realizes x: theta applied to W(cf_even(x))."""
    return theta(word_of(cf_even(x)))


def snake_of_rational(x):
    """Snake with a_0 + ... + a_{2l-1} cells realizing x.

    >>> from fractions import Fraction
    >>> len(snake_of_rational(Fraction(27, 10)).cells)
    8
    >>> snake_of_rational(Fraction(2, 7)).word
    '0100'
    """
    return Snake(snake_word(x))


def _scan(g):
    """Yield every perfect matching as an edge mask, by a depth-first
    scan over the cells, first to last, carrying only the coverage of the
    two vertices shared with the next cell; each cell's table of moves
    has its sides renamed to the cell's edge indices.  It visits every
    matching, so only the listing (`enumerate_matchings`) and the oracle
    path use it; the statistics and counts come from `_transfer`."""
    tables = [
        {
            state: [(sum(1 << square[j] for j in sides), out) for sides, out in moves]
            for state, moves in _cell_table(*pair).items()
        }
        for square, pair in zip(g.squares, _letter_pairs(g.word))
    ]
    last = len(g.cells)
    stack = [(0, (), 0)]
    while stack:
        i, state, mask = stack.pop()
        if i == last:
            yield mask
            continue
        for tmask, nstate in tables[i][state]:
            stack.append((i + 1, nstate, mask | tmask))


def enumerate_matchings(g):
    """All perfect matchings as sorted edge masks.

    >>> len(enumerate_matchings(Snake("0100")))
    9
    >>> len(enumerate_matchings(Snake("")))
    2
    """
    return sorted(_scan(g))


def matchings_by_backtracking(g):
    """Independent oracle for `enumerate_matchings`: match the smallest
    uncovered vertex each step.  It lives here, not in `_oracle`, because
    the benchmark (`bench/workloads.py`) calls it by this module.

    The completions of a covered-vertex set depend on that set alone, so
    each set's list is built once and shared by every branch reaching it."""
    verts = sorted(g.vertex_edges)
    vid = {v: i for i, v in enumerate(verts)}
    incident = [g.vertex_edges[v] for v in verts]
    endpoints = [(vid[a], vid[b]) for a, b in g.edges]
    completions = {(1 << len(verts)) - 1: [0]}

    def complete(covered):
        if covered in completions:
            return completions[covered]
        v = 0
        while covered >> v & 1:
            v += 1
        out = []
        for e in incident[v]:
            a, b = endpoints[e]
            u = b if a == v else a
            if not covered >> u & 1:
                out += [1 << e | m for m in complete(covered | 1 << v | 1 << u)]
        completions[covered] = out
        return out

    return sorted(complete(0))


def _cell_step(states, i, prev, letter, left_basic):
    """The transfer-scan states after cell i, entered after `prev` and
    left by `letter`, from the states before it.  `left_basic` says
    whether the cell's left side is basic; None counts no area."""
    area = left_basic is not None
    table = _cell_table(prev, letter)
    nxt = {}
    for (first, cov, par), poly in states.items():
        for sides, out in table[cov]:
            enclosed = next_par = 0
            if area:
                enclosed = par if prev == "0" else (3 in sides) ^ left_basic
                if letter == "0":
                    next_par = enclosed ^ (1 in sides)
            key = (int(0 in sides) if i == 0 else first, out, next_par)
            p = [0] + poly if enclosed else poly
            nxt[key] = _plus(nxt[key], p) if key in nxt else p
    return nxt


def _side(first, n):
    """0 (perpendicular) or 1 (parallel) for a matching of the snake of an
    n-letter word that holds (first = 1) or leaves (first = 0) the bottom
    edge of the first cell: perpendicular means horizontal first edge for
    even n, vertical for odd n."""
    return int(first != (n % 2 == 0))


def _transfer(word, area=False):
    """(perpendicular, parallel) area polynomials of G(word) as dense
    lists, by one scan over the cells, first to last, that keeps one list
    per state: the bottom-edge bit of the first cell, which with the
    parity of |word| sets perp/par; the coverage of the corners shared
    with the next cell; and the enclosure parity in the current row.

    The parity restarts at the first cell of every row, whose left side
    is a boundary side; a later cell's left side is its predecessor's
    right side, which the basic matching never holds, so the carried
    parity already counts it.  Without `area` no area is counted, and
    the two lists hold the matching counts alone."""
    n = len(word)
    states = {(0, (), 0): [1]}
    for i, (prev, letter) in enumerate(_letter_pairs(word)):
        left_basic = 3 in _basic_sides(prev, letter, n - i) if area else None
        states = _cell_step(states, i, prev, letter, left_basic)
    pair = [[], []]
    for (first, _, _), poly in states.items():
        side = _side(first, n)
        pair[side] = _plus(pair[side], poly)
    return pair


def area_histogram(g):
    """{area: matching count} over all matchings, from the transfer scan.

    >>> sorted(area_histogram(Snake("0100")).items())
    [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2), (5, 1)]
    """
    perp, par = matching_statistics(g)
    return (perp + par).coeffs


def matching_statistics(g):
    """(sum over perpendicular, sum over parallel) of q^area, from the
    transfer scan; no matching is listed.

    >>> tuple(str(p) for p in matching_statistics(Snake("0100")))
    ('q^5+q^4', 'q^4+2*q^3+2*q^2+q+1')
    """
    return tuple(Poly.from_dense(p) for p in _transfer(g.word, area=True))


def matching_counts(w):
    """(perpendicular, parallel) matching counts of G(w): the transfer scan
    at q = 1, on the cell tables alone, with no Snake built.

    >>> matching_counts("0100")
    (2, 7)
    >>> matching_counts("")
    (1, 1)
    """
    check_word(w)
    return tuple(sum(p) for p in _transfer(w))


def area_statistics(x):
    """Area statistics of the snake of x, split perpendicular/parallel.

    >>> from fractions import Fraction
    >>> tuple(str(p) for p in area_statistics(Fraction(2, 7)))
    ('q^5+q^4', 'q^4+2*q^3+2*q^2+q+1')
    >>> tuple(str(p) for p in area_statistics(1))
    ('q', '1')
    """
    return tuple(Poly.from_dense(p) for p in _transfer(snake_word(x), area=True))


def matching_edges(g, mask):
    """Edge pairs of a matching mask, in index order."""
    return tuple(e for i, e in enumerate(g.edges) if mask >> i & 1)


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


def _prefix_rows(w):
    """(perpendicular, parallel) counts of w[:j] for j = 0..n, from one
    forward transfer scan.  The cells of w[:j] but the last carry the same
    letter pairs as in w, so row j is the scan's states after j cells,
    closed by the end-cell table."""
    rows = []
    states = {(0, (), 0): [1]}
    for i, (prev, letter) in enumerate(_letter_pairs(w)):
        row = [0, 0]
        for (first, _, _), poly in _cell_step(states, i, prev, None, None).items():
            row[_side(first, i)] += sum(poly)
        rows.append(tuple(row))
        states = _cell_step(states, i, prev, letter, None)
    return rows


def _suffix_rows(w):
    """(perpendicular, parallel) counts of w[len(w)-j:] for j = 0..n, from
    one backward scan.  Going from the last cell to the first, `ahead`
    maps the coverage of the corners that cell k shares with cell k + 1
    to the number of ways to complete cells k + 1..n.  Suffix w[k:] opens
    with the start-cell table in place of cell k's; its first cell's
    bottom-edge bit and the parity of n - k pick perp or par."""
    n = len(w)
    pairs = list(_letter_pairs(w))
    rows = []
    ahead = {(): 1}
    for k in range(n, -1, -1):
        prev, letter = pairs[k]
        row = [0, 0]
        for sides, out in _cell_table(None, letter)[()]:
            row[_side(int(0 in sides), n - k)] += ahead[out]
        rows.append(tuple(row))
        ahead = {
            cov: sum(ahead[out] for _, out in moves)
            for cov, moves in _cell_table(prev, letter).items()
        }
    return rows


def prefix_suffix_table(x):
    """(perpendicular count, parallel count) for the snakes of every
    prefix and every suffix of the word of x, by length 0..n.

    One forward transfer scan gives the prefix rows and one backward scan
    the suffix rows, so the table costs O(n) cell steps; `verify` holds it
    against a fresh `matching_counts` scan per row.

    >>> from fractions import Fraction
    >>> prefix_suffix_table(1)
    {'word': '', 'prefixes': [(1, 1)], 'suffixes': [(1, 1)]}
    >>> prefix_suffix_table(Fraction(5, 2))["suffixes"]
    [(1, 1), (1, 2), (3, 2), (5, 2)]
    """
    w = snake_word(x)
    return {"word": w, "prefixes": _prefix_rows(w), "suffixes": _suffix_rows(w)}


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
