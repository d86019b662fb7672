"""Verification harness: re-derives the library's claims at desk scale.

Nine named checks, each comparing independent computation paths or
frozen golden values.  The slow reference paths that no production code
needs live in `_oracle`, which only this module and the tests import.
`run_checks` executes them in order and collects (name, passed,
message, seconds) rows; the CLI exposes this as `verify` and the test suite
calls the same functions one per acceptance criterion.  Every failed claim
raises through `_expect`, in one format that names the claim and its input.

The `desk` level covers every documented bound; `deep` raises them a
notch for longer runs.
"""

from math import gcd
from time import perf_counter

from . import _oracle
from . import cf as _cf
from . import fence as _fence
from . import numeration as _num
from . import polytope as _poly
from . import qpoly as _qp
from . import snake as _snake
from . import words as _words
from .markoff import markoff_numbers_upto, markoff_of, markoff_snake_word, mu, q_markoff

__all__ = ["CHECKS", "run_checks", "BOUNDS"]

BOUNDS = {
    "desk": {
        "bijection_sum": 40,
        "order_sum": 20,
        "stats_sum": 30,
        "oracle_word_len": 12,
        "christoffel_len": 8,
        "polytope_sum": 8,
        "polytope_k": 5,
        "property_sum": 40,
        "mirror_sum": 30,
        "table_sum": 12,
        "word_len": 10,
    },
    "deep": {
        "bijection_sum": 44,
        "order_sum": 22,
        "stats_sum": 32,
        "oracle_word_len": 13,
        "christoffel_len": 9,
        "polytope_sum": 9,
        "polytope_k": 5,
        "property_sum": 44,
        "mirror_sum": 32,
        "table_sum": 14,
        "word_len": 11,
    },
}

# fmt: off
QRAT_GOLDENS = (
    ((7, 2), "(q^4+q^3+2q^2+2q+1)/(q+1)"),
    ((2, 7), "(q^4+q^3)/(q^4+2q^3+2q^2+q+1)"),
    ((4, 5), "(q^4+q^3+q^2+q)/(q^4+q^3+q^2+q+1)"),
    ((9, 2), "(q^5+q^4+2q^3+2q^2+2q+1)/(q+1)"),
    ((2, 9), "(q^5+q^4)/(q^5+2q^4+2q^3+2q^2+q+1)"),
)

TABLE_222 = (
    (0, (0, 0, 0)), (1, (1, 0, 0)), (2, (2, 0, 0)), (3, (2, 2, 1)),
    (4, (0, 1, 1)), (5, (1, 1, 1)), (6, (2, 1, 1)), (7, (0, 0, 1)),
    (8, (1, 0, 1)), (9, (2, 0, 1)), (10, (2, 2, 2)), (11, (0, 1, 2)),
    (12, (1, 1, 2)), (13, (2, 1, 2)), (14, (0, 0, 2)), (15, (1, 0, 2)),
    (16, (2, 0, 2)),
)

TABLE_2222 = (
    (-24, (2, 2, 2, 2)), (-23, (0, 1, 2, 2)), (-22, (1, 1, 2, 2)),
    (-21, (2, 1, 2, 2)), (-20, (0, 0, 2, 2)), (-19, (1, 0, 2, 2)),
    (-18, (2, 0, 2, 2)), (-17, (0, 0, 0, 1)), (-16, (1, 0, 0, 1)),
    (-15, (2, 0, 0, 1)), (-14, (2, 2, 1, 1)), (-13, (0, 1, 1, 1)),
    (-12, (1, 1, 1, 1)), (-11, (2, 1, 1, 1)), (-10, (0, 0, 1, 1)),
    (-9, (1, 0, 1, 1)), (-8, (2, 0, 1, 1)), (-7, (2, 2, 2, 1)),
    (-6, (0, 1, 2, 1)), (-5, (1, 1, 2, 1)), (-4, (2, 1, 2, 1)),
    (-3, (0, 0, 2, 1)), (-2, (1, 0, 2, 1)), (-1, (2, 0, 2, 1)),
    (0, (0, 0, 0, 0)), (1, (1, 0, 0, 0)), (2, (2, 0, 0, 0)),
    (3, (2, 2, 1, 0)), (4, (0, 1, 1, 0)), (5, (1, 1, 1, 0)),
    (6, (2, 1, 1, 0)), (7, (0, 0, 1, 0)), (8, (1, 0, 1, 0)),
    (9, (2, 0, 1, 0)), (10, (2, 2, 2, 0)), (11, (0, 1, 2, 0)),
    (12, (1, 1, 2, 0)), (13, (2, 1, 2, 0)), (14, (0, 0, 2, 0)),
    (15, (1, 0, 2, 0)), (16, (2, 0, 2, 0)),
)

TABLE_NEGAFIB = (
    (-8, (1, 1, 1, 1, 1, 1)), (-7, (0, 0, 1, 1, 1, 1)),
    (-6, (1, 0, 1, 1, 1, 1)), (-5, (0, 0, 0, 0, 1, 1)),
    (-4, (1, 0, 0, 0, 1, 1)), (-3, (1, 1, 1, 0, 1, 1)),
    (-2, (0, 0, 1, 0, 1, 1)), (-1, (1, 0, 1, 0, 1, 1)),
    (0, (0, 0, 0, 0, 0, 0)), (1, (1, 0, 0, 0, 0, 0)),
    (2, (1, 1, 1, 0, 0, 0)), (3, (0, 0, 1, 0, 0, 0)),
    (4, (1, 0, 1, 0, 0, 0)), (5, (1, 1, 1, 1, 1, 0)),
    (6, (0, 0, 1, 1, 1, 0)), (7, (1, 0, 1, 1, 1, 0)),
    (8, (0, 0, 0, 0, 1, 0)), (9, (1, 0, 0, 0, 1, 0)),
    (10, (1, 1, 1, 0, 1, 0)), (11, (0, 0, 1, 0, 1, 0)),
    (12, (1, 0, 1, 0, 1, 0)),
)

PREFIXES_84_37 = [
    (1, 1), (1, 2), (3, 1), (2, 5), (7, 3), (4, 9),
    (16, 7), (11, 25), (34, 15), (26, 59), (84, 37),
]

SUFFIXES_84_37 = [
    (1, 1), (2, 1), (3, 1), (3, 4), (3, 7), (10, 7),
    (10, 17), (10, 27), (10, 37), (47, 37), (84, 37),
]

CONVERGENTS_84_37 = [(2, 1), (7, 3), (9, 4), (25, 11), (84, 37)]

MARKOFF_UPTO_5000 = [
    1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985,
    1325, 1597, 2897, 4181,
]
# fmt: on


def _expect(claim, case, got, want=True):
    """The one failure path of every check: pass if got == want, else raise
    AssertionError("<claim> fails on <case>: got <got>, expected <want>").
    Of two lists, it names the first index where they differ and shows the
    one-item slices there.  The message is built only on failure."""
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        case, got, want = "%s at index %d" % (case, i), got[i:i + 1], want[i:i + 1]
    raise AssertionError("%s fails on %s: got %s, expected %s" % (claim, case, got, want))


def check_qrational_goldens(level="desk"):
    """Frozen q-deformations of 7/2, 2/7, 4/5, 9/2 and 2/9, byte for byte,
    and the same pairs from the Mat2 product.  9/2 = [4;2] and
    2/9 = [0;4,1,1] hold a power of four letters, past the stepped ones of
    the kernel, on the R side and on the L side."""
    from fractions import Fraction

    for (r, s), expected in QRAT_GOLDENS:
        x = Fraction(r, s)
        qx = _qp.q_rational(x)
        _expect("the q-analog golden", x, qx.fraction_str(), expected)
        _expect("the q-analog against the Mat2 product", x, qx, _oracle.matrix_q_rational(_cf.cf_even(x)))
    pair = _qp.theorem_pair(_cf.cf_even(Fraction(4, 5)))
    _expect("the matrix pair golden", "4/5", tuple(map(str, pair)), ("q^5+q^4+q^3+q^2", "q^4+q^3+q^2+q+1"))


def check_numeration_goldens(level="desk"):
    """The three frozen numeration tables, every row."""
    for a, table in (
        ((2, 2, 2), TABLE_222),
        ((2, 2, 2, 2), TABLE_2222),
        ((1, 1, 1, 1, 1, 1), TABLE_NEGAFIB),
    ):
        _expect("the numeration table", a, _num.numeration_rows(a), list(table))


def _check_orders(x, g, ideals, digits, matchings, popped):
    """psi's order isomorphism and the face-twist rule, on the lists that
    `check_bijections` built for x: the ideals with their digit vectors,
    and the matchings of the snake g with their popped ideals.  The pass
    has held phi equal to the pop recursion, so the face-twist rule is
    phi's order check, on covers: two matchings differ by the four sides
    of cell j iff their popped ideals differ by element j alone."""
    for i, v in zip(ideals, digits):
        _expect(
            "psi as an order isomorphism",
            "ideal %s of %s" % (bin(i), x),
            [i | j == j for j in ideals],
            [all(p <= q for p, q in zip(v, w)) for w in digits],
        )
    cell_of_twist = {sum(1 << e for e in square): j for j, square in enumerate(g.squares)}
    for m1, ideal in zip(matchings, popped):
        _expect(
            "the face-twist rule",
            "matching %s of the snake of %s" % (bin(m1), x),
            [cell_of_twist.get(m1 ^ m2) for m2 in matchings],
            [d.bit_length() - 1 if d and not d & d - 1 else None for d in (ideal ^ p for p in popped)],
        )


def check_bijections(level="desk"):
    """Counting theorem, valuation bijection, the numeration rows, psi and
    phi, in one pass per rational that lists each model once: B for each
    expansion, which `numeration_rows` must give in val order, the
    ideals, and the snake's matchings with the areas that `enum matchings`
    prints.  phi is held against the pop recursion, and the listed area
    against the popped size.  Up to a lower bound, the same lists also
    go to the order check (`_check_orders`)."""
    b = BOUNDS[level]
    for x in _cf.rationals_with_sum_upto(b["bijection_sum"]):
        a = _cf.cf_even(x)
        listings = {c: _num.enumerate_admissible(c) for c in (a, _cf.cf_odd(x))}  # B, once per expansion
        for c, seqs in listings.items():
            values = [_num.val(v, c) for v in seqs]
            _expect("the val image", c, sorted(values), list(range(*_num.z_interval(c))))
            _expect("rep after val", c, [_num.rep(n, c) for n in values], seqs)
            _expect("the numeration rows as B in val order", c, _num.numeration_rows(c), sorted(zip(values, seqs)))
        ideals = _fence.enumerate_ideals(_fence.fence_of_rational(x))
        digits = [_fence.psi(mask, a) for mask in ideals]
        _expect("psi's image in B", x, [v for v in digits if not _num.is_admissible(v, a)], [])
        _expect("psi keeping size", x, [sum(v) for v in digits], [mask.bit_count() for mask in ideals])
        filled = [_num._filled(v, a) for v in digits]  # each v was checked above
        _expect("psi keeping the side", x, filled, [bool(mask & 1) for mask in ideals])
        _expect("psi_inverse after psi", x, [_fence.psi_inverse(v, a) for v in digits], ideals)
        _expect("psi onto B", x, sorted(digits), sorted(listings[a]))
        g = _snake.snake_of_rational(x)
        listed = _snake.enumerate_matchings(g, area=True)
        matchings = [m for m, _ in listed]
        sides = [g.classify(m) == "perp" for m in matchings]
        _expect("the counting theorem", x, (sum(sides), len(sides) - sum(sides)), (x.numerator, x.denominator))
        images = [_snake.phi(g, m) for m in matchings]
        popped = [_oracle.phi_by_pop(frozenset(_snake.matching_edges(g, m)), g.word) for m in matchings]
        _expect("phi against the pop recursion", x, images, popped)
        _expect("the listed area as the popped size", x, [area for _, area in listed], [i.bit_count() for i in popped])
        _expect("phi keeping the side", x, sides, [bool(i & 1) for i in images])
        _expect("phi onto the ideals", x, set(images), set(ideals))
        if x.numerator + x.denominator <= b["order_sum"]:
            _check_orders(x, g, ideals, digits, matchings, popped)


def _tally(first, rest):
    """(sum over the first half, sum over the rest) of q^size, from the
    sizes in each half, counted into one dense list per half."""
    halves = []
    for sizes in first, rest:
        sizes = list(sizes)
        dense = [0] * (max(sizes, default=-1) + 1)
        for size in sizes:
            dense[size] += 1
        halves.append(_qp.Poly(dense))
    return tuple(halves)


def check_three_statistics(level="desk"):
    """Admissible-vector, ideal and matching statistics, each by its
    wrapper and tallied over its listing, all equal the matrix-product pair.

    Each wrapper is `theorem_pair` of its model's expansion, so its row
    holds its choice of expansion alone: the odd-length one rewritten
    for the digits, the fence's word read back, and theta of the snake's
    word.  The tallies share no code with the product: the digit descent
    of `enumerate_admissible`, split by `_oracle.partition`; the ideals
    and matchings of the path scan; each matching's area by
    `enclosed_cells`, and its side by `_oracle.first_cell_perp` off the
    first cell's bottom edge (the first step of `phi_by_pop`), not off the
    basic matching that the listing starts from.  The listings have
    references of their own: `check_oracles` holds the ideals against the
    subset filter and the matchings against the backtracking matcher on
    every word of up to `oracle_word_len` letters (12 at desk).  The words
    here reach 28 letters at desk (x = 1/29), so the tests also hold the
    matcher's listing on the snake of every rational with r + s <= 30, and
    the subset filter's on one word of 17 letters."""
    b = BOUNDS[level]
    for x in _cf.rationals_with_sum_upto(b["stats_sum"]):
        a = _cf.cf_even(x)
        w = _cf.word_of(a)
        f = _fence.Fence(w)
        g = _snake.Snake(_words.theta(w))
        reference = _qp.theorem_pair(a)
        filled, empty = _oracle.partition(a)
        ideals = _fence.enumerate_ideals(f)
        bottom = g.edges.index(((0, 0), (1, 0)))  # the first cell's bottom edge
        areas = ([], [])  # of the matchings without, with that edge
        for m in _snake.enumerate_matchings(g):
            areas[m >> bottom & 1].append(g.area(m))
        by_side = {_oracle.first_cell_perp(bool(held), g.word): areas[held] for held in (0, 1)}
        paths = {
            "admissible vectors": (_num.norm1_statistics(_cf.cf_odd(x)), _tally(map(sum, filled), map(sum, empty))),
            "order ideals": (
                _fence.ideal_statistics(f),
                _tally([m.bit_count() for m in ideals if m & 1], [m.bit_count() for m in ideals if not m & 1]),
            ),
            "matchings": (_snake.matching_statistics(g), _tally(by_side.get(True, []), by_side.get(False, []))),
        }
        for name, pairs in paths.items():
            for path, pair in zip(("the q-product", "enumeration"), pairs):
                _expect("%s statistics by %s" % (name, path), x, pair, reference)


def check_prefix_suffix(level="desk"):
    """The recurrence, row by row, against a counting scan per row that
    shares no code with it, on every small rational; the frozen 84/37 table,
    whose suffix column is the subtractive Euclid chain of 84/37 read up from
    (1, 1); prefixes meet the convergents."""
    from fractions import Fraction

    for x in _cf.rationals_with_sum_upto(BOUNDS[level]["table_sum"]):
        table = _snake.prefix_suffix_table(x)
        w = table["word"]
        case = "%s (word %r)" % (x, w)
        rows = range(len(w) + 1)
        counted = [_snake.matching_counts(w[:j]) for j in rows]
        _expect("the prefix column against the per-row scan", case, table["prefixes"], counted)
        counted = [_snake.matching_counts(w[len(w) - j:]) for j in rows]
        _expect("the suffix column against the per-row scan", case, table["suffixes"], counted)
    x = Fraction(84, 37)
    table = _snake.prefix_suffix_table(x)
    _expect("the prefix column golden", x, table["prefixes"], PREFIXES_84_37)
    _expect("the suffix column golden", x, table["suffixes"], SUFFIXES_84_37)
    pairs = set(table["prefixes"])
    _expect("the convergents in the prefix column", x, [c for c in CONVERGENTS_84_37 if not {c, c[::-1]} & pairs], [])
    _expect("the prefix column golden", 1, _snake.prefix_suffix_table(1)["prefixes"], [(1, 1)])


def check_markoff(level="desk"):
    """Markoff number list, the mu goldens, and q_markoff against mu_q and,
    by the area theorem, against the area polynomial of the snake of
    markoff_snake_word, over all proper Christoffel words."""
    b = BOUNDS[level]
    _expect("the Markoff numbers golden", "5000", markoff_numbers_upto(5000), MARKOFF_UPTO_5000)
    _expect("the mu golden", "'00101'", mu("00101"), ((463, 194), (284, 119)))
    _expect("the Markoff number golden", "'00101'", markoff_of("00101"), 194)
    _expect("the matching count golden", "'001100001100'", sum(_snake.matching_counts("001100001100")), 433)
    lengths = range(2, b["christoffel_len"] + 1)
    for w in (_words.christoffel(p, n - p) for n in lengths for p in range(1, n) if gcd(p, n - p) == 1):
        qm = q_markoff(w)
        _expect("q_markoff against mu_q", repr(w), qm, _oracle.mu_q(w).b)
        perp, par = _snake.matching_statistics(_snake.Snake(markoff_snake_word(w)))
        _expect("the area theorem", repr(w), qm, perp + par)


def _expansions(k_max, sum_max):
    """Every expansion of at most k_max partial quotients summing to at
    most sum_max, depth first, each prefix before its extensions."""
    out = []

    def grow(prefix, room):
        if prefix and prefix != (0,):
            out.append(prefix)
        for ai in range(1 if prefix else 0, room + 1) if len(prefix) < k_max else ():
            grow(prefix + (ai,), room - ai)

    grow((), sum_max)
    return out


def check_polytope(level="desk"):
    """Lattice convexity by the inequalities, field by field against the
    box-scan oracle, and the half-space split over all small expansions:
    certified on its digit, and held against the listed partition where
    the side counts list it.  The certificate is compared by values: the
    normal has no nonzero entry past the digit b_j it reads, and no value
    of b_j in 0..a_j falls on the wrong side of the cut."""
    b = BOUNDS[level]
    for a in _expansions(b["polytope_k"], b["polytope_sum"]):
        filled, empty = _oracle.partition(a)  # B, listed once for both oracles
        report = _poly.convexity_report(a)
        _expect("the convexity report against the box scan", a, report, _oracle.box_scan_report(a, filled + empty))
        normal, wrong = _poly._halfspace_misses(a)
        _expect("the half-space normal past its digit", a, normal, (0,) * len(normal))
        _expect("the half-space split", a, wrong, [])
        k = len(a)
        if k % 2 == 0:
            y, t = _poly.halfspace(a)
            cut = [v for v in empty if _oracle.dot(y, v) >= t] + [v for v in filled if _oracle.dot(y, v) < t]
            _expect("the half-space cut against the listed partition", a, cut, [])
            p, q = _cf.convergents(a)
            _expect("the side counts", a, (len(filled), len(empty)), (p[k], q[k]))


def _is_unimodal(seq):
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i == len(seq) - 1


def check_properties(level="desk"):
    """Involution laws, conjugacy, codec round trips, the q-analog against
    the Mat2 product on (1,0), mirror symmetry, unimodality, and the shift
    identity."""
    b = BOUNDS[level]
    for w in _words.all_words(b["word_len"]):
        case = repr(w)
        for claim, flip in (
            ("theta as an involution", _words.theta),
            ("eta as an involution", _words.eta),
            ("hat as an involution", _words.hat),
            ("complement as an involution", _words.complement),
            ("reversal as an involution", _words.reversal),
        ):
            _expect(claim, case, flip(flip(w)), w)
        _expect("the theta/eta conjugacy", case, _words.hat(_words.theta(w)), _words.eta(_words.hat(w)))
        flipped = _words.complement(_words.theta(w))
        _expect("theta commuting with complement", case, _words.theta(_words.complement(w)), flipped)
        _expect("the codec round trip", case, _cf.word_of(_cf.cf_even(_cf.rational_of_word(w))), w)
    for x in _cf.rationals_with_sum_upto(b["property_sum"]):
        a = _cf.cf_even(x)
        w = _cf.word_of(a)
        _expect("the codec round trip", x, _cf.rational_of_word(w), x)
        _expect("the reciprocal/complement law", x, _cf.word_of(_cf.cf_even(1 / x)), _words.complement(w))
        qx = _qp.q_rational(x)
        _expect("the q-analog against q^-1 times the product on (1,0)", x, qx, _oracle.matrix_q_rational(a))
        _expect("the q-analog's value at 1 and S(0)", x, (qx.at_one(), qx.den.eval_at_zero()), (x, 1))
        _expect("unimodality of the rank polynomial", x, _is_unimodal(sum(_qp.theorem_pair(a), _qp.ZERO).dense))
        _expect("the shift identity", x, _qp.q_rational(x + 1), _qp.QRational(qx.num.shift(1) + qx.den, qx.den))
    for x in _cf.rationals_with_sum_upto(b["mirror_sum"]):
        g = _snake.snake_of_rational(x)
        h = _snake.snake_of_rational(1 / x)
        _expect("the mirror word", x, h.word, _words.complement(g.word))
        _expect("the mirror snake as the diagonal reflection", x, set(h.cells), set((cy, cx) for cx, cy in g.cells))


def check_oracles(level="desk"):
    """The path-scan listings, of ideals and of matchings (the scan over
    theta(w), twisting the basic matching), versus the subset filter and
    the backtracking matcher, which share no code with them, word by word."""
    b = BOUNDS[level]
    for w in _words.all_words(b["oracle_word_len"]):
        case = repr(w)
        g = _snake.Snake(w)
        _expect("the matching listing", case, _snake.enumerate_matchings(g), _snake.matchings_by_backtracking(g))
        f = _fence.Fence(w)
        _expect("the ideal listing", case, _fence.enumerate_ideals(f), _fence.ideals_by_subset_filter(f))


CHECKS = (
    ("q-rational goldens", check_qrational_goldens),
    ("numeration tables", check_numeration_goldens),
    ("counting and bijections", check_bijections),
    ("three statistics", check_three_statistics),
    ("prefix/suffix table", check_prefix_suffix),
    ("markoff theorems", check_markoff),
    ("lattice convexity", check_polytope),
    ("word and polynomial properties", check_properties),
    ("independent oracles", check_oracles),
)


def run_checks(level="desk", report=None):
    """Run every check; return (all passed, rows of (name, ok, message,
    seconds)), seconds being the check's wall time."""
    if level not in BOUNDS:
        raise ValueError("unknown level %r" % level)
    rows = []
    for name, func in CHECKS:
        start = perf_counter()
        try:
            func(level)
        except AssertionError as exc:
            ok, msg = False, str(exc)
        except Exception as exc:
            ok, msg = False, "%s: %s" % (type(exc).__name__, exc)
        else:
            ok, msg = True, ""
        seconds = perf_counter() - start
        rows.append((name, ok, msg, seconds))
        if report is not None:
            report("%s %s (%.2f s)%s" % ("PASS" if ok else "FAIL", name, seconds, ": " + msg if msg else ""))
    return all(row[1] for row in rows), rows
