from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
import pytest

from qrationals import _oracle, verify
from qrationals._oracle import phi_by_pop
from qrationals.cf import cf_even, rational_of_word, rationals_with_sum_upto, word_of
from qrationals.fence import Fence, enumerate_ideals, fence_of_rational, psi
from qrationals.snake import (
    Snake,
    _square_edges,
    enumerate_matchings,
    matching_edges,
    matching_statistics,
    matchings_by_backtracking,
    phi,
    prefix_suffix_table,
    snake_of_rational,
    snake_to_svg,
    snake_word,
)
from qrationals.verify import PREFIXES_84_37, SUFFIXES_84_37
from qrationals.words import all_words, complement, theta

words = st.text(alphabet="01", max_size=9)
rationals = st.builds(Fraction, st.integers(1, 20), st.integers(1, 20))
rationals_upto_60 = st.integers(2, 60).flatmap(
    lambda n: st.integers(1, n - 1).map(lambda r: Fraction(r, n - r))
)


def _edge_sets(g):
    return {
        frozenset(frozenset(e) for e in matching_edges(g, m)): m
        for m in enumerate_matchings(g)
    }


@given(words)
@settings(max_examples=60)
def test_enclosed_cells_are_the_ray_crossing_parity(w):
    # a cell is enclosed iff a leftward ray from its centre crosses an odd
    # number of edges of the symmetric difference with the basic matching
    g = Snake(w)
    rays = [
        [i for i, ((x1, y1), (x2, _)) in enumerate(g.edges) if x1 == x2 and y1 == cy and x1 <= cx]
        for cx, cy in g.cells
    ]
    for m in enumerate_matchings(g):
        d = m ^ g.basic_mask
        crossed = [sum(d >> i & 1 for i in ray) for ray in rays]
        assert g.enclosed_cells(m) == [j for j, c in enumerate(crossed) if c % 2]


def _dict_built_snake(w):
    """Edges numbered by first appearance over the cells' bottom, right,
    top and left sides; the basic matching takes each cell's sides that
    no other cell has, the vertical ones at an even number of cells from
    the last cell and the horizontal ones at an odd number."""
    cells = [(0, 0)]
    for c in w:
        cx, cy = cells[-1]
        cells.append((cx + 1, cy) if c == "0" else (cx, cy + 1))
    edges, edge_index, squares = [], {}, []
    for cx, cy in cells:
        for e in _square_edges(cx, cy):
            if e not in edge_index:
                edge_index[e] = len(edges)
                edges.append(e)
        squares.append(tuple(edge_index[e] for e in _square_edges(cx, cy)))
    vertex_edges = {}
    for i, e in enumerate(edges):
        for v in e:
            vertex_edges.setdefault(v, []).append(i)
    owners = Counter(i for square in squares for i in square)
    basic_mask = 0
    for j, square in enumerate(squares):
        for side in (0, 2) if (len(w) - j) % 2 else (1, 3):
            if owners[square[side]] == 1:
                basic_mask |= 1 << square[side]
    return edges, squares, basic_mask, vertex_edges, edge_index


def test_snake_structure_equals_the_dict_built_snake():
    for w in all_words(10):
        g = Snake(w)
        got = (g.edges, g.squares, g.basic_mask, g.vertex_edges, {e: g.edges.index(e) for e in g.edges})
        want = _dict_built_snake(w)
        assert got == want
        assert [list(d.items()) for d in got[3:]] == [list(d.items()) for d in want[3:]]


@given(st.text(alphabet="01", min_size=30, max_size=60))
@settings(max_examples=40)
def test_long_snake_squares_and_basic_mask_equal_the_dict_built_snake(w):
    g = Snake(w)
    _, squares, basic_mask, _, _ = _dict_built_snake(w)
    assert (g.squares, g.basic_mask) == (squares, basic_mask)


def test_cells_follow_the_staircase():
    g = Snake("0100100")
    assert g.cells == [
        (0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2),
    ]


@given(words)
def test_snake_sizes(w):
    g = Snake(w)
    assert len(g.cells) == len(w) + 1
    assert len(g.edges) == 3 * len(w) + 4
    assert len(g.vertex_edges) == 2 * len(w) + 4


@pytest.mark.parametrize(
    "x, w",
    (
        (Fraction(2, 7), "0100"),
        (Fraction(84, 37), "1001000110"),
        (Fraction(179, 254), "001100001100"),
        (Fraction(1), ""),
    ),
)
def test_snake_word_goldens(x, w):
    assert snake_word(x) == w
    assert snake_of_rational(x).word == w
    assert snake_word(x) == theta(word_of(cf_even(x)))


BASIC_0100100 = frozenset(
    frozenset(e)
    for e in (
        (((0, 0)), ((1, 0))),
        (((2, 0)), ((2, 1))),
        (((3, 1)), ((4, 1))),
        (((4, 2)), ((5, 2))),
        (((6, 2)), ((6, 3))),
        (((4, 3)), ((5, 3))),
        (((3, 2)), ((3, 3))),
        (((1, 2)), ((2, 2))),
        (((0, 1)), ((1, 1))),
    )
)

MATCHING_0100100 = frozenset(
    frozenset(e)
    for e in (
        (((0, 0)), ((0, 1))),
        (((1, 0)), ((1, 1))),
        (((2, 0)), ((2, 1))),
        (((3, 1)), ((4, 1))),
        (((3, 2)), ((4, 2))),
        (((3, 3)), ((4, 3))),
        (((5, 2)), ((5, 3))),
        (((6, 2)), ((6, 3))),
        (((1, 2)), ((2, 2))),
    )
)


def test_basic_matching_of_0100100():
    g = Snake("0100100")
    basic_edges = frozenset(frozenset(e) for e in matching_edges(g, g.basic_mask))
    assert basic_edges == BASIC_0100100
    assert g.classify(g.basic_mask) == "par"
    assert g.area(g.basic_mask) == 0
    assert phi(g, g.basic_mask) == 0


@given(words)
def test_basic_matching_covers_every_vertex_with_boundary_edges(w):
    g = Snake(w)
    edges = matching_edges(g, g.basic_mask)
    assert sorted(v for e in edges for v in e) == sorted(g.vertex_edges)
    sides = Counter(i for square in g.squares for i in square)
    assert all(sides[g.edges.index(e)] == 1 for e in edges)
    cx, cy = g.cells[-1]
    assert ((cx + 1, cy), (cx + 1, cy + 1)) in edges


def test_twisted_matching_of_0100100():
    g = Snake("0100100")
    by_edges = _edge_sets(g)
    mask = by_edges[MATCHING_0100100]
    assert g.area(mask) == 3
    assert g.classify(mask) == "perp"
    ideal = phi(g, mask)
    assert bin(ideal).count("1") == 3
    assert ideal & 1


LONG_WORD = "10110110001001"

MATCHING_LONG = frozenset(
    frozenset(e)
    for e in (
        (((0, 0)), ((1, 0))),
        (((0, 1)), ((0, 2))),
        (((1, 1)), ((1, 2))),
        (((2, 1)), ((2, 2))),
        (((1, 3)), ((1, 4))),
        (((2, 3)), ((2, 4))),
        (((3, 3)), ((3, 4))),
        (((3, 5)), ((4, 5))),
        (((5, 5)), ((5, 6))),
        (((2, 5)), ((2, 6))),
        (((3, 6)), ((4, 6))),
        (((6, 5)), ((6, 6))),
        (((5, 7)), ((6, 7))),
        (((7, 6)), ((7, 7))),
        (((8, 6)), ((8, 7))),
        (((7, 8)), ((8, 8))),
    )
)

BASIC_LONG = frozenset(
    frozenset(e)
    for e in (
        (((0, 0)), ((0, 1))),
        (((0, 2)), ((1, 2))),
        (((1, 3)), ((1, 4))),
        (((2, 4)), ((2, 5))),
        (((2, 6)), ((3, 6))),
        (((4, 6)), ((5, 6))),
        (((5, 7)), ((6, 7))),
        (((7, 7)), ((7, 8))),
        (((8, 7)), ((8, 8))),
        (((7, 6)), ((8, 6))),
        (((6, 5)), ((6, 6))),
        (((4, 5)), ((5, 5))),
        (((3, 4)), ((3, 5))),
        (((2, 3)), ((3, 3))),
        (((2, 1)), ((2, 2))),
        (((1, 0)), ((1, 1))),
    )
)


def test_long_staircase_golden():
    g = Snake(LONG_WORD)
    assert g.cells == [
        (0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
        (3, 5), (4, 5), (5, 5), (5, 6), (6, 6), (7, 6), (7, 7),
    ]
    basic_edges = frozenset(frozenset(e) for e in matching_edges(g, g.basic_mask))
    assert basic_edges == BASIC_LONG
    by_edges = _edge_sets(g)
    mask = by_edges[MATCHING_LONG]
    assert g.area(mask) == 9
    assert g.classify(mask) == "perp"
    assert phi(g, mask) == sum(1 << i for i in (0, 1, 5, 6, 7, 8, 9, 13, 14))


@pytest.mark.parametrize(
    "x",
    (Fraction(2, 7), Fraction(27, 10), Fraction(84, 37), Fraction(4, 5)),
)
def test_matching_counts_split_as_the_fraction(x):
    g = snake_of_rational(x)
    masks = enumerate_matchings(g)
    perp = sum(1 for m in masks if g.classify(m) == "perp")
    assert perp == x.numerator
    assert len(masks) - perp == x.denominator


@given(words)
@settings(max_examples=60)
def test_enumeration_agrees_with_backtracking(w):
    g = Snake(w)
    assert enumerate_matchings(g) == matchings_by_backtracking(g)


def test_backtracking_lists_the_snake_of_every_rational_up_to_sum_30():
    # the snakes of verify's three statistics at desk, up to 28 letters
    # (x = 1/29), past the 12 letters of its check against the matcher
    snakes = [snake_of_rational(x) for x in rationals_with_sum_upto(30)]
    assert len(snakes) == 277 and max(len(g.word) for g in snakes) == 28
    for g in snakes:
        assert matchings_by_backtracking(g) == enumerate_matchings(g), g.word


def test_matching_edges_are_the_snake_edges_in_index_order():
    # every matching of every word of at most 8 letters: the edges of the
    # mask's set bits, in index order, as the very objects of g.edges
    for n in range(9):
        for bits in range(2**n):
            g = Snake(format(bits, "0%db" % n) if n else "")
            for m in enumerate_matchings(g):
                edges = matching_edges(g, m)
                chosen = [i for i in range(len(g.edges)) if m >> i & 1]
                assert edges == tuple(g.edges[i] for i in chosen)
                assert all(e is g.edges[i] for e, i in zip(edges, chosen))


@given(words)
@settings(max_examples=60)
def test_memoised_backtracking_equals_plain_recursion(w):
    g = Snake(w)
    ends = [set(e) for e in g.edges]
    out = []

    def extend(covered, chosen):
        rest = [v for v in g.vertex_edges if v not in covered]
        if not rest:
            out.append(sum(1 << e for e in chosen))
            return
        v = min(rest)
        for e in g.vertex_edges[v]:
            (u,) = ends[e] - {v}
            if u not in covered:
                extend(covered | {u, v}, chosen + [e])

    extend(frozenset(), [])
    assert matchings_by_backtracking(g) == sorted(out)


@given(words)
@settings(max_examples=60)
def test_statistics_tally_the_backtracking_oracle(w):
    g = Snake(w)
    tally = {"perp": Counter(), "par": Counter()}
    for m in matchings_by_backtracking(g):
        tally[g.classify(m)][g.area(m)] += 1
    perp, par = matching_statistics(g)
    assert (perp.coeffs, par.coeffs) == (tally["perp"], tally["par"])


@given(words)
@settings(max_examples=60)
def test_phi_is_a_bijection_onto_the_twisted_fence_ideals(w):
    g = Snake(w)
    ideals = set()
    for m in enumerate_matchings(g):
        ideal = phi(g, m)
        assert g.area(m) == bin(ideal).count("1")
        ideals.add(ideal)
    assert ideals == set(enumerate_ideals(Fence(theta(w))))


def test_each_matching_is_the_basic_matching_twisted_at_its_ideal():
    # phi inverted: XOR the four sides of every cell of the ideal
    for w in all_words(10):
        g = Snake(w)
        for m in matchings_by_backtracking(g):
            ideal = phi(g, m)
            twisted = g.basic_mask
            for j, square in enumerate(g.squares):
                if ideal >> j & 1:
                    for e in square:
                        twisted ^= 1 << e
            assert m == twisted, (w, bin(m))


def _reversed_ideal(ideal, n):
    """An ideal of n elements read with its elements in reverse order."""
    return sum(1 << n - 1 - j for j in range(n) if ideal >> j & 1)


def test_order_check_holds_the_face_twist_rule(monkeypatch):
    # the lists of 5/8 as the bijection row builds them; popped ideals read
    # in reverse order break the face-twist rule alone, since psi's order
    # isomorphism reads the ideals and not the popped ones
    x = Fraction(5, 8)
    a = cf_even(x)
    ideals = enumerate_ideals(fence_of_rational(x))
    digits = [psi(mask, a) for mask in ideals]
    g = snake_of_rational(x)
    matchings = [m for m, _ in enumerate_matchings(g, area=True)]
    popped = [phi_by_pop(frozenset(matching_edges(g, m)), g.word) for m in matchings]
    verify._check_orders(x, g, ideals, digits, matchings, popped)
    planted = [_reversed_ideal(ideal, len(g.cells)) for ideal in popped]
    named = r"^the face-twist rule fails on matching 0b[01]+ of the snake of 5/8 at index \d+: got "
    with pytest.raises(AssertionError, match=named):
        verify._check_orders(x, g, ideals, digits, matchings, planted)

    # the whole row, with `phi_by_pop` reversed at its outermost call only:
    # its recursion goes through the module name, so inner calls pass through
    depth = 0

    def outermost_reversed(m, word):
        nonlocal depth
        depth += 1
        try:
            ideal = phi_by_pop(m, word)
        finally:
            depth -= 1
        return ideal if depth else _reversed_ideal(ideal, len(word) + 1)

    monkeypatch.setattr(_oracle, "phi_by_pop", outermost_reversed)
    with pytest.raises(AssertionError, match="^phi against the pop recursion fails on 1/2 at index "):
        verify.check_bijections("desk")


@given(words)
@settings(max_examples=60)
def test_pop_recursion_matches_the_geometry(w):
    g = Snake(w)
    for m in enumerate_matchings(g):
        edges = frozenset(frozenset(e) for e in matching_edges(g, m))
        assert phi_by_pop(frozenset(matching_edges(g, m)), w) == phi(g, m)
        assert len(edges) == len(g.vertex_edges) // 2


def test_basic_matching_is_parallel_with_empty_ideal():
    for w in ("", "0", "1", "0100", "110", "10110"):
        g = Snake(w)
        assert g.classify(g.basic_mask) == "par"
        assert phi(g, g.basic_mask) == 0


def _side_by_parity(first, n):
    """0 (perpendicular) or 1 (parallel) for a matching of the snake of an
    n-letter word that holds (first = 1) or leaves (first = 0) the bottom
    edge of the first cell: perpendicular means horizontal first edge for
    even n, vertical for odd n."""
    return int(first != (n % 2 == 0))


def test_classify_is_the_parity_rule_on_every_short_word():
    for w in all_words(12):
        g = Snake(w)
        bottom = g.squares[0][0]
        for m in enumerate_matchings(g):
            assert g.classify(m) == ("perp", "par")[_side_by_parity(m >> bottom & 1, len(w))], (w, m)


@given(rationals)
def test_mirror_snake_is_the_diagonal_reflection(x):
    g = snake_of_rational(x)
    h = snake_of_rational(1 / x)
    assert h.word == complement(g.word)
    assert sorted(h.cells) == sorted((cy, cx) for (cx, cy) in g.cells)
    assert len(enumerate_matchings(g)) == len(enumerate_matchings(h))


def test_prefix_suffix_table_golden():
    table = prefix_suffix_table(Fraction(84, 37))
    assert table["word"] == "1001000110"
    assert table["prefixes"] == PREFIXES_84_37
    assert table["suffixes"] == SUFFIXES_84_37


@given(rationals_upto_60)
@settings(max_examples=40, deadline=None)
def test_prefix_suffix_rows_are_the_rationals_of_their_words(x):
    table = prefix_suffix_table(x)
    w = table["word"]
    for j in range(len(w) + 1):
        for row, v in ((table["prefixes"][j], w[:j]), (table["suffixes"][j], w[len(w) - j:])):
            y = rational_of_word(theta(v))
            assert row == (y.numerator, y.denominator)


def test_svg_emitter():
    g = Snake("0100")
    svg = snake_to_svg(g, matching=g.basic_mask)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "line" in svg


def _total_matchings(x):
    return len(enumerate_matchings(snake_of_rational(x)))


@given(st.builds(Fraction, st.integers(1, 30), st.integers(2, 20)))
@settings(max_examples=60)
def test_quotient_of_matching_counts_recovers_the_fraction(x):
    # x = [a0; a1, ...] > 1 non-integer; the count quotient
    # #M(x - 1) / #M([a1 - 1; a2, ...]) is already in lowest terms.
    assume(x > 1 and x.denominator > 1)
    frac = x - int(x)
    tail = 1 / frac - 1
    assert _total_matchings(x - 1) == x.numerator
    assert _total_matchings(tail) == x.denominator
