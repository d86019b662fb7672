"""Verification harness: re-derives the library's claims at desk scale.

Nine named checks, each comparing independent computation paths or
frozen golden values.  The slow reference paths that no production code
needs live in `_oracle`, which only this module and the tests import.
`run_checks` executes them in order and collects (name, passed,
message, seconds) rows; the CLI exposes this as `verify` and the test suite
calls the same functions one per acceptance criterion.

The `desk` level covers every documented bound; `deep` raises them a
notch for longer runs.
"""

from fractions import Fraction
from itertools import zip_longest
from time import perf_counter

from . import _oracle
from . import cf as _cf
from . import fence as _fence
from . import numeration as _num
from . import polytope as _poly
from . import qpoly as _qp
from . import snake as _snake
from . import words as _words
from .markoff import markoff_numbers_upto, markoff_of, mu, q_markoff

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
    (Fraction(7, 2), "(q^4+q^3+2q^2+2q+1)/(q+1)"),
    (Fraction(2, 7), "(q^4+q^3)/(q^4+2q^3+2q^2+q+1)"),
    (Fraction(4, 5), "(q^4+q^3+q^2+q)/(q^4+q^3+q^2+q+1)"),
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


def _fail(message):
    raise AssertionError(message)


def check_qrational_goldens(level="desk"):
    """Frozen q-deformations of 7/2, 2/7 and 4/5, byte for byte, and the
    same pairs from the Mat2 product."""
    for x, expected in QRAT_GOLDENS:
        qx = _qp.q_rational(x)
        got = qx.fraction_str()
        if got != expected:
            _fail("q-analog of %s printed %r, expected %r" % (x, got, expected))
        oracle = _oracle.matrix_q_rational(_cf.cf_even(x))
        if oracle != qx:
            _fail("q-analog of %s is %s, the Mat2 product gives %s" % (x, qx, oracle))
    pair = _qp.theorem_pair(_cf.cf_even(Fraction(4, 5)))
    shown = tuple(str(p) for p in pair)
    if shown != ("q^5+q^4+q^3+q^2", "q^4+q^3+q^2+q+1"):
        _fail("matrix pair of 4/5 printed %r" % (shown,))


def check_numeration_goldens(level="desk"):
    """The three frozen numeration tables, every row."""
    for a, table in (
        ((2, 2, 2), TABLE_222),
        ((2, 2, 2, 2), TABLE_2222),
        ((1, 1, 1, 1, 1, 1), TABLE_NEGAFIB),
    ):
        rows = _num.numeration_rows(a)
        if rows != list(table):
            for got, want in zip(rows, table):
                if got != want:
                    _fail("table for %s: got %s, expected %s" % (a, got, want))
            _fail("table for %s has %d rows, expected %d" % (a, len(rows), len(table)))


def _check_val_bijection(a):
    seqs = _num.enumerate_admissible(a)
    lo, hi = _num.z_interval(a)
    values = [_num.val(b, a) for b in seqs]
    if sorted(values) != list(range(lo, hi)):
        _fail("val image for %s is not the interval [%d, %d)" % (a, lo, hi))
    for b, n in zip(seqs, values):
        if _num.rep(n, a) != b:
            _fail("rep(%d) for %s gave %s, expected %s" % (n, a, _num.rep(n, a), b))


def _check_psi(x):
    a = _cf.cf_even(x)
    f = _fence.fence_of_rational(x)
    ideals = _fence.enumerate_ideals(f)
    images = []
    for mask in ideals:
        b = _fence.psi(mask, a)
        if not _num.is_admissible(b, a):
            _fail("psi image %s of %s not admissible for %s" % (b, bin(mask), a))
        if sum(b) != bin(mask).count("1"):
            _fail("psi does not preserve size on %s" % bin(mask))
        if _num._filled(b, a) != bool(mask & 1):  # b was checked just above
            _fail("psi does not preserve the partition on %s" % bin(mask))
        if _fence.psi_inverse(b, a) != mask:
            _fail("psi_inverse(psi) != id on %s for %s" % (bin(mask), a))
        images.append(b)
    if sorted(images) != sorted(_num.enumerate_admissible(a)):
        _fail("psi is not onto B(%s)" % (a,))


def _check_phi(x, r, s):
    g = _snake.snake_of_rational(x)
    f = _fence.fence_of_rational(x)
    matchings = _snake.enumerate_matchings(g)
    if len(matchings) != r + s:
        _fail("snake of %s has %d matchings, expected %d" % (x, len(matchings), r + s))
    perp = sum(1 for m in matchings if g.classify(m) == "perp")
    if (perp, len(matchings) - perp) != (r, s):
        _fail("snake of %s split %s, expected %s" % (x, (perp, len(matchings) - perp), (r, s)))
    images = set()
    for m in matchings:
        ideal = _snake.phi(g, m)
        popped = _oracle.phi_by_pop(frozenset(_snake.matching_edges(g, m)), g.word)
        if ideal != popped:
            _fail(
                "phi of matching %s on the snake of %s is %s, the pop recursion gives %s"
                % (bin(m), x, bin(ideal), bin(popped))
            )
        if g.area(m) != bin(ideal).count("1"):
            _fail("phi does not preserve area/size on %s" % x)
        if (g.classify(m) == "perp") != bool(ideal & 1):
            _fail("phi does not preserve the dichotomy on %s" % x)
        images.add(ideal)
    if images != set(_fence.enumerate_ideals(f)):
        _fail("phi images differ from the ideals of the fence of %s" % x)


def _check_order_preservation(x):
    a = _cf.cf_even(x)
    f = _fence.fence_of_rational(x)
    ideals = _fence.enumerate_ideals(f)
    digit = {mask: _fence.psi(mask, a) for mask in ideals}
    for i in ideals:
        for j in ideals:
            inc = i | j == j
            le = all(p <= q for p, q in zip(digit[i], digit[j]))
            if inc != le:
                _fail("psi is not an order isomorphism for %s" % x)
    g = _snake.snake_of_rational(x)
    matchings = _snake.enumerate_matchings(g)
    region = {m: frozenset(g.enclosed_cells(m)) for m in matchings}
    popped = {
        m: _oracle.phi_by_pop(frozenset(_snake.matching_edges(g, m)), g.word)
        for m in matchings
    }
    # the face-twist rule: two matchings differ by the four sides of cell j
    # iff their popped ideals differ by element j alone
    cell_of_twist = {sum(1 << e for e in square): j for j, square in enumerate(g.squares)}
    for m1 in matchings:
        for m2 in matchings:
            inc = region[m1] <= region[m2]
            le = popped[m1] | popped[m2] == popped[m2]
            if inc != le:
                _fail("phi is not an order isomorphism for %s" % x)
            diff = popped[m1] ^ popped[m2]
            element = diff.bit_length() - 1 if diff and not diff & diff - 1 else None
            if cell_of_twist.get(m1 ^ m2) != element:
                _fail(
                    "matchings %s and %s of the snake of %s break the face-twist rule"
                    % (bin(m1), bin(m2), x)
                )


def check_bijections(level="desk"):
    """Counting theorem, valuation bijection, psi and phi, plus the
    exhaustive order-isomorphism check at a lower bound."""
    b = BOUNDS[level]
    for x in _cf.rationals_with_sum_upto(b["bijection_sum"]):
        _check_val_bijection(_cf.cf_even(x))
        _check_val_bijection(_cf.cf_odd(x))
        _check_psi(x)
        _check_phi(x, x.numerator, x.denominator)
    for x in _cf.rationals_with_sum_upto(b["order_sum"]):
        _check_order_preservation(x)


def _tally(rows):
    """(sum over the first half, sum over the rest) of q^size, from rows of
    (in the first half?, size), counted into one dense list per half."""
    top = max((size for _, size in rows), default=-1)
    halves = ([0] * (top + 1), [0] * (top + 1))
    for first, size in rows:
        halves[not first][size] += 1
    return tuple(map(_qp.Poly, halves))


def check_three_statistics(level="desk"):
    """Admissible-vector, ideal and matching statistics, each by its
    scan and tallied over its listing, all equal the matrix-product pair.

    All three models get their pair from one helper, the fence's path
    scan on size polynomials (`fence._statistics`), so the three
    "transfer scan" rows scan the same word w.  Each row still holds its
    own public wrapper's choice of word: W(a) for the digits, the fence's
    own word, and theta of the snake's word for the matchings.  A wrong
    choice fails only in its own row.  Fence and snake also list by that
    scan, so all are held by references that share no code with it:
    `theorem_pair` here; the digit descent of `enumerate_admissible`,
    split into its two sides by `_oracle.partition`; the snake's area,
    read by `enclosed_cells` off each listed matching; the subset filter
    and the backtracking matcher in `check_oracles`; and `phi_by_pop` in
    `check_bijections`, which also holds the side `classify` reads.  The
    expansion, the word, the fence and the snake of each rational are
    built once and serve both paths."""
    b = BOUNDS[level]
    for x in _cf.rationals_with_sum_upto(b["stats_sum"]):
        a = _cf.cf_even(x)
        w = _cf.word_of(a)
        f = _fence.Fence(w)
        g = _snake.Snake(_words.theta(w))
        reference = _qp.theorem_pair(a)
        filled, empty = _oracle.partition(a)
        paths = {
            "admissible vectors": (
                _num.norm1_statistics(a),
                _tally([(True, sum(v)) for v in filled] + [(False, sum(v)) for v in empty]),
            ),
            "order ideals": (
                _fence.ideal_statistics(f),
                _tally([(bool(m & 1), bin(m).count("1")) for m in _fence.enumerate_ideals(f)]),
            ),
            "matchings": (
                _snake.matching_statistics(g),
                _tally([(g.classify(m) == "perp", g.area(m)) for m in _snake.enumerate_matchings(g)]),
            ),
        }
        for name, (scanned, listed) in paths.items():
            for path, pair in (("transfer scan", scanned), ("enumeration", listed)):
                if pair != reference:
                    _fail(
                        "%s statistics of %s by %s disagree with the matrix pair: %s vs %s"
                        % (name, x, path, tuple(map(str, pair)), tuple(map(str, reference)))
                    )


def _counted_table(w):
    """Oracle for the prefix/suffix recurrence: one fresh `matching_counts`
    scan (the fence's path scan over theta of the row's word, on ints) per
    prefix and per suffix of w, sharing no code with it."""
    return {
        "prefix": [_snake.matching_counts(w[:j]) for j in range(len(w) + 1)],
        "suffix": [_snake.matching_counts(w[len(w) - j:]) for j in range(len(w) + 1)],
    }


def check_prefix_suffix(level="desk"):
    """The recurrence, row by row, against a counting scan per row that
    shares no code with it, on every small rational; the frozen 84/37 table;
    prefixes meet the convergents, suffixes walk the subtractive Euclid chain."""
    for x in _cf.rationals_with_sum_upto(BOUNDS[level]["table_sum"]):
        table = _snake.prefix_suffix_table(x)
        w = table["word"]
        for side, want in _counted_table(w).items():
            for j, (got, row) in enumerate(zip_longest(table[side + "es"], want)):
                if got != row:
                    _fail(
                        "%s row %d of %s (word %r) is %s, the per-row scan gives %s"
                        % (side, j, x, w, got, row)
                    )
    table = _snake.prefix_suffix_table(Fraction(84, 37))
    if table["prefixes"] != PREFIXES_84_37:
        _fail("84/37 prefix column %s" % (table["prefixes"],))
    if table["suffixes"] != SUFFIXES_84_37:
        _fail("84/37 suffix column %s" % (table["suffixes"],))
    pairs = set(table["prefixes"])
    for p, q in CONVERGENTS_84_37:
        if (p, q) not in pairs and (q, p) not in pairs:
            _fail("convergent %d/%d missing from the prefix table" % (p, q))
    chain = [(84, 37)]
    while chain[-1] != (1, 1):
        p, q = chain[-1]
        chain.append((p - q, q) if p > q else (p, q - p))
    if table["suffixes"] != chain[::-1]:
        _fail("84/37 suffixes do not follow the Euclid chain")
    if _snake.prefix_suffix_table(1)["prefixes"] != [(1, 1)]:
        _fail("table of 1 should be the single row (1, 1)")


def _proper_christoffel_words(max_length):
    out = []
    for n in range(2, max_length + 1):
        for p in range(1, n):
            q = n - p
            try:
                out.append(_words.christoffel(p, q))
            except ValueError:
                continue
    return out


def check_markoff(level="desk"):
    """Markoff number list, the mu goldens, and q_markoff against mu_q and
    the area theorem over all proper Christoffel words."""
    b = BOUNDS[level]
    got = markoff_numbers_upto(5000)
    if got != MARKOFF_UPTO_5000:
        _fail("markoff_numbers_upto(5000) = %s" % got)
    if mu("00101") != ((463, 194), (284, 119)):
        _fail("mu(00101) = %s" % (mu("00101"),))
    if markoff_of("00101") != 194:
        _fail("markoff_of(00101) = %d" % markoff_of("00101"))
    total = sum(_snake.matching_counts("001100001100"))
    if total != 433:
        _fail("snake of 001100001100 has %d matchings, expected 433" % total)
    for w in _proper_christoffel_words(b["christoffel_len"]):
        if q_markoff(w) != _oracle.mu_q(w).b:
            _fail("q_markoff(%s) is %s, mu_q gives %s" % (w, q_markoff(w), _oracle.mu_q(w).b))
        if not _oracle.verify_area_theorem(w[1:-1]):
            _fail("area theorem fails for the Christoffel word %s" % w)


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
    the side counts list it."""
    b = BOUNDS[level]
    for a in _expansions(b["polytope_k"], b["polytope_sum"]):
        report = _poly.convexity_report(a)
        points = _num.enumerate_admissible(a)  # B, listed once for both oracles
        for field, want in _oracle.box_scan_report(a, points).items():
            if report.get(field) != want:
                _fail(
                    "convexity report of %s has %s %r, the box-scan oracle gives %r"
                    % (a, field, report.get(field), want)
                )
        if not _poly.verify_halfspace_split(a):
            _fail("half-space split fails for %s" % (a,))
        k = len(a)
        if k % 2 == 0:
            filled, empty = [], []
            for v in points:
                (filled if _num._filled(v, a) else empty).append(v)
            y, t = _poly.halfspace(a)
            if any(_oracle.dot(y, v) >= t for v in empty) or any(
                _oracle.dot(y, v) < t for v in filled
            ):
                _fail("half-space cut of %s disagrees with the listed partition" % (a,))
            p, q = _cf.convergents(a)
            if (len(filled), len(empty)) != (p[k], q[k]):
                _fail(
                    "side counts for %s are %s, expected %s"
                    % (a, (len(filled), len(empty)), (p[k], q[k]))
                )


def _is_unimodal(seq):
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i == len(seq) - 1


def check_properties(level="desk"):
    """Involution laws, conjugacy, codec round trips, the q-analog against
    both Mat2 displays, mirror symmetry, unimodality, and the shift
    identity."""
    b = BOUNDS[level]
    for w in _words.all_words(b["word_len"]):
        if _words.theta(_words.theta(w)) != w:
            _fail("theta is not an involution on %r" % w)
        if _words.eta(_words.eta(w)) != w:
            _fail("eta is not an involution on %r" % w)
        if _words.hat(_words.hat(w)) != w:
            _fail("hat is not an involution on %r" % w)
        if _words.complement(_words.complement(w)) != w or _words.reversal(_words.reversal(w)) != w:
            _fail("complement/reversal not involutive on %r" % w)
        if _words.hat(_words.theta(w)) != _words.eta(_words.hat(w)):
            _fail("theta/eta conjugacy fails on %r" % w)
        if _words.theta(_words.complement(w)) != _words.complement(_words.theta(w)):
            _fail("theta does not commute with complement on %r" % w)
        x = _cf.rational_of_word(w)
        if _cf.word_of(_cf.cf_even(x)) != w:
            _fail("codec round trip fails on %r" % w)
    for x in _cf.rationals_with_sum_upto(b["property_sum"]):
        a = _cf.cf_even(x)
        w = _cf.word_of(a)
        if _cf.rational_of_word(w) != x:
            _fail("codec round trip fails on %s" % x)
        if _cf.word_of(_cf.cf_even(1 / x)) != _words.complement(w):
            _fail("reciprocal/complement law fails on %s" % x)
        qx = _qp.q_rational(x)
        lowered = _oracle.mat2_product_vector(a[:-1] + (a[-1] - 1,), (_qp.ONE, _qp.ONE))
        for display, oracle in (
            ("q^-1 times the product on (1,0)", _oracle.matrix_q_rational(a)),
            ("the lowered product on (1,1)", _qp.QRational(*lowered)),
        ):
            if oracle != qx:
                _fail("q-analog of %s is %s, %s gives %s" % (x, qx, display, oracle))
        if qx.at_one() != x or qx.den.eval_at_zero() != 1:
            _fail("q-analog %s of %s has the wrong value at q = 1 or S(0) != 1" % (qx, x))
        seq = list(sum(_qp.theorem_pair(a), _qp.ZERO).dense)
        if not _is_unimodal(seq):
            _fail("rank polynomial of %s is not unimodal: %s" % (x, seq))
        if not _qp.q_shift_identity_check(x):
            _fail("shift identity fails for %s" % x)
    for x in _cf.rationals_with_sum_upto(b["mirror_sum"]):
        g = _snake.snake_of_rational(x)
        h = _snake.snake_of_rational(1 / x)
        if h.word != _words.complement(g.word):
            _fail("mirror words differ for %s" % x)
        if set(h.cells) != set((cy, cx) for cx, cy in g.cells):
            _fail("mirror snake of %s is not the diagonal reflection" % x)
        if len(_snake.enumerate_matchings(g)) != len(_snake.enumerate_matchings(h)):
            _fail("mirror matching counts differ for %s" % x)


def check_oracles(level="desk"):
    """The path-scan listings, of ideals and of matchings (the scan over
    theta(w), twisting the basic matching), versus the subset filter and
    the backtracking matcher, which share no code with them, word by word."""
    b = BOUNDS[level]
    for w in _words.all_words(b["oracle_word_len"]):
        g = _snake.Snake(w)
        if _snake.enumerate_matchings(g) != _snake.matchings_by_backtracking(g):
            _fail("matching enumerators disagree on %r" % w)
        f = _fence.Fence(w)
        if _fence.enumerate_ideals(f) != _fence.ideals_by_subset_filter(f):
            _fail("ideal enumerators disagree on %r" % w)


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
            ok, msg = False, str(exc) or "internal invariant failed"
        except Exception as exc:
            ok, msg = False, "%s: %s" % (type(exc).__name__, exc)
        else:
            ok, msg = True, ""
        seconds = perf_counter() - start
        rows.append((name, ok, msg, seconds))
        if report is not None:
            report("%s %s (%.2f s)%s" % ("PASS" if ok else "FAIL", name, seconds, ": " + msg if msg else ""))
    return all(row[1] for row in rows), rows
