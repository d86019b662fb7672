"""The benchmark's seeded workloads: inputs, operations and output checks.

Each generator takes a `random.Random` and a scale (1 for the measured
size, smaller for smoke tests) and returns one pass of operations.  An
operation is a zero-argument `call` into qrationals, looked up through
the module attribute at call time so that the tracer's wrappers see it,
and a `check` of its output against `reference`, which never calls the
package.  Sizes are stratified: the seed picks the values inside fixed
slices, so every seed gives a pass of about the same cost.
"""

import contextlib
import io
import json
import re
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

import reference as ref
from qrationals import cf, cli, fence, markoff, numeration, polytope, qpoly, snake, verify, words

Op = namedtuple("Op", "kind desc call check")


def stratified(rng, lo, hi, n):
    """n integers in [lo, hi], one from each of n equal slices, shuffled."""
    width = (hi - lo + 1) / n
    values = [min(hi, lo + int(width * (j + rng.random()))) for j in range(n)]
    rng.shuffle(values)
    return values


def _objects(w):
    """r + s for the rational whose word is w: its number of ideals."""
    return sum(ref.fraction_of_cf(ref.cf_of_word(w)))


def quantile_words(rng, length, strata, pool=256):
    """One random word of this length from the middle fifth of each of
    `strata` equal quantile slices of r + s (the number of objects),
    estimated from a pool of random words, so that the words' costs
    hardly depend on the seed."""
    words = sorted(("".join(rng.choice("01") for _ in range(length)) for _ in range(pool)), key=_objects)
    return [words[int((j + 0.4 + 0.2 * rng.random()) * pool / strata)] for j in range(strata)]


def _count(scale, n):
    return max(1, round(n * scale))


def _coeffs(poly):
    return dict(poly.coeffs)


def _short(text, limit=120):
    text = str(text)
    return text if len(text) <= limit else text[:limit] + "..."


def _expect(got, want, what):
    if got == want:
        return None
    return "%s: got %s, expected %s" % (what, _short(got), _short(want))


# ---------------------------------------------------------------- qrat-large


def _check_q_pair(p, q, num, den, what):
    """num/den coefficient maps of R(q)/S(q) against the integer product
    at q = 2, and R(1) = p, S(1) = q, S(0) = 1."""
    r2, s2 = ref.q_pair_at(ref.cf_of_fraction(p, q), 2)
    got = (ref.evaluate(num, 1), ref.evaluate(den, 1), ref.evaluate(num, 2), ref.evaluate(den, 2), den.get(0, 0))
    return _expect(got, (p, q, r2, s2, 1), what + " (R(1), S(1), R(2), S(2), S(0))")


def _q_rational_op(x):
    def check(out):
        return _check_q_pair(x.numerator, x.denominator, *ref.parse_fraction_str(out), "q_rational(%s)" % x)

    return Op("q_rational", ("q_rational", str(x)), lambda: qpoly.q_rational(x).fraction_str(), check)


def _theorem_pair_op(x):
    def check(out):
        first, second = _coeffs(out[0]), _coeffs(out[1])
        num = {e - 1: c for e, c in first.items()}
        return _check_q_pair(x.numerator, x.denominator, num, second, "theorem_pair of %s" % x)

    return Op("theorem_pair", ("theorem_pair", str(x)), lambda: qpoly.theorem_pair(cf.cf_even(x)), check)


def _q_markoff_op(w):
    def check(out):
        got = (ref.evaluate(_coeffs(out), 1), ref.evaluate(_coeffs(out), 2))
        return _expect(got, (ref.markoff_number(w), ref.mu_at(w, 2)[1]), "q_markoff(%s) at q=1, 2" % w)

    return Op("q_markoff", ("q_markoff", w), lambda: markoff.q_markoff(w), check)


def qrat_large(rng, scale=1.0):
    """Tall rationals (2-3 partial quotients of 50-300), long ones (20-60
    partial quotients of 1-4), and Christoffel words of 20-80 letters.
    Tall rational j takes its c-th partial quotient from the middle fifth
    of slice j + c of 50-300; a long rational takes 1, 2, 3, 4 in turn,
    shuffled; word j takes its length from the middle of slice j of
    20-80 and its number of zeros from the middle of slice 13j (mod the
    word count) of the counts coprime to its length.  So the costliest
    operations, the tall rationals and the long words around op_p90_ms,
    cost about the same for every seed.  No tall rational has
    four partial quotients (up to 0.5 s each), so a pass stays short and
    each operation repeats more often in a run."""
    n_tall, n_long, n_words = _count(scale, 4), _count(scale, 28), _count(scale, 36)
    width = 251 / n_tall
    rationals = []
    for j in range(n_tall):
        rationals.append(tuple(50 + int(width * ((j + c) % n_tall + 0.4 + 0.2 * rng.random())) for c in range(2 + j % 2)))
    for n in stratified(rng, 20, 60, n_long):
        quotients = [1 + i % 4 for i in range(n)]
        rng.shuffle(quotients)
        rationals.append(tuple(quotients))
    ops = []
    for a in rationals:
        x = Fraction(*ref.fraction_of_cf(a))
        ops += [_q_rational_op(x), _theorem_pair_op(x)]
    for j in range(n_words):
        n = 20 + int(61 / n_words * (j + 0.3 + 0.4 * rng.random()))
        coprime = [p for p in range(1, n) if gcd(p, n - p) == 1]
        p = coprime[int((j * 13 % n_words + 0.3 + 0.4 * rng.random()) * len(coprime) / n_words)]
        ops.append(_q_markoff_op(ref.christoffel(p, n - p)))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- stats-words


def _statistics_op(kind, arg, call, a):
    def check(out):
        return _expect((_coeffs(out[0]), _coeffs(out[1])), ref.theorem_pair(a), "%s(%s)" % (kind, arg))

    return Op(kind, (kind, str(arg)), call, check)


def _prefix_table(w):
    """Expected (perp, par) counts of the snakes of every prefix and suffix
    of the snake word theta(w): the snake of v realizes the rational whose
    word is theta(v)."""
    sw = ref.theta(w)

    def counts(v):
        return ref.fraction_of_cf(ref.cf_of_word(ref.theta(v)))

    return {
        "word": sw,
        "prefixes": [counts(sw[:j]) for j in range(len(sw) + 1)],
        "suffixes": [counts(sw[len(sw) - j :]) for j in range(len(sw) + 1)],
    }


def _prefix_suffix_op(x, w):
    def check(out):
        return _expect(out, _prefix_table(w), "prefix_suffix_table(%s)" % x)

    return Op("prefix_suffix_table", ("prefix_suffix_table", str(x)), lambda: snake.prefix_suffix_table(x), check)


def _markoff_row_expected(w):
    number = ref.markoff_number(w)
    snake_word = "0" + ref.gamma(w[1:-1]) + "0" if len(w) >= 2 else None
    return number, snake_word, (number if snake_word else None)


def _markoff_row_op(w):
    def check(row):
        number, snake_word, count = _markoff_row_expected(w)
        poly = _coeffs(row["q_polynomial"])
        got = (row["word"], row["number"], markoff.markoff_of(w), ref.evaluate(poly, 1), ref.evaluate(poly, 2),
               row["snake_word"], row["matching_count"])
        want = (w, number, number, number, ref.mu_at(w, 2)[1], snake_word, count)
        return _expect(got, want, "markoff_row(%s)" % w)

    return Op("markoff_row", ("markoff_row", w), lambda: markoff.markoff_row(w), check)


def stats_words(rng, scale=1.0):
    """Random words of 10-16 letters, three per length from the quantile
    slices of r + s, through the three statistics and the prefix/suffix
    table; plus markoff_row on every Christoffel word of 3-7 letters
    (8 letters would cost half a second a row)."""
    ops = []
    lengths = range(10, 17) if scale >= 1 else stratified(rng, 10, 16, _count(scale, 7))
    for n in lengths:
        for w in quantile_words(rng, n, _count(scale, 3)):
            a = ref.cf_of_word(w)
            x = Fraction(*ref.fraction_of_cf(a))
            ops += [
                _statistics_op("rank_polynomials", x, lambda x=x: fence.rank_polynomials(x), a),
                _statistics_op("area_statistics", x, lambda x=x: snake.area_statistics(x), a),
                _statistics_op("norm1_statistics", a, lambda a=a: numeration.norm1_statistics(a), a),
                _prefix_suffix_op(x, w),
            ]
    words = ref.christoffel_words(3, 7)
    ops += [_markoff_row_op(w) for w in words[: _count(scale, len(words))]]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- cli-mix

README_EXAMPLES = (
    (("qrat", "7/2"), "(q^4+q^3+2q^2+2q+1)/(q+1)\n"),
    (("rep", "3", "--cf", "[2;2,2]"), "2,2,1\n"),
    (("val", "2,2,1", "--cf", "[2;2,2]"), "3\n"),
    (("enum", "matchings", "2/7", "--count"), "perp=2 par=7 total=9\n"),
    (("markoff", "--word", "00101"), "194\n"),
    (("tree", "sb", "--depth", "2"), "1/3 2/3 3/2 3\n"),
)


def run_cli(argv):
    """cli.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv, check):
    argv = tuple(argv)

    def verdict(output):
        code, out, err = output
        if code != 0 or err:
            return "%s: exit %r, stderr %r" % (" ".join(argv), code, _short(err))
        problem = check(out)
        return problem and "%s: %s" % (" ".join(argv), problem)

    return Op("cli " + argv[0], argv, lambda: run_cli(argv), verdict)


def _frac_text(p, q):
    return str(p) if q == 1 else "%d/%d" % (p, q)


def _split_check(rows, a, what):
    """rows of (in the first half?, size): the two size polynomials must
    be the theorem pair of a."""
    filled = dict(Counter(s for first, s in rows if first))
    empty = dict(Counter(s for first, s in rows if not first))
    return _expect((filled, empty), ref.theorem_pair(a), what + " size polynomials")


def _check_admissible_rows(rows, a):
    lo, hi = ref.z_interval(a)
    if [n for n, _ in rows] != list(range(lo, hi)):
        return "values are not the interval [%d, %d) in order" % (lo, hi)
    for n, b in rows:
        if ref.val(b, a) != n:
            return "row %d has digits %s of value %d" % (n, b, ref.val(b, a))
    filled = [b[0] > 0 if a[0] > 0 else b[1] == a[1] for _, b in rows]
    return _split_check([(f, sum(b)) for f, (_, b) in zip(filled, rows)], a, "admissible")


def _check_ideals(ideals, w):
    """Every listed set is a distinct order ideal of the fence of w."""
    if len(set(map(tuple, ideals))) != len(ideals):
        return "repeated ideal"
    for ideal in ideals:
        if not ref.is_ideal_mask(sum(1 << i for i in ideal), w):
            return "%s is not an ideal" % sorted(ideal)
    return None


def _snake_edges(sw):
    cells = [(0, 0)]
    for c in sw:
        cx, cy = cells[-1]
        cells.append((cx + 1, cy) if c == "0" else (cx, cy + 1))
    edges = set()
    for cx, cy in cells:
        corners = ((cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1))
        for i in range(4):
            edges.add(tuple(sorted((corners[i], corners[(i + 1) % 4]))))
    return edges


def _check_matchings(rows, sw, a):
    """rows of (class, area, edge list): distinct perfect matchings of the
    snake of sw whose area polynomials split as the theorem pair."""
    edges = _snake_edges(sw)
    vertices = {v for e in edges for v in e}
    seen = set()
    for cls, _, chosen in rows:
        chosen = tuple(sorted(tuple(sorted(e)) for e in chosen))
        if cls not in ("perp", "par") or not set(chosen) <= edges:
            return "matching with class %r or an edge outside the snake" % cls
        covered = [v for e in chosen for v in e]
        if len(covered) != len(vertices) or set(covered) != vertices:
            return "%s is not a perfect matching" % (chosen,)
        seen.add(chosen)
    if len(seen) != len(rows):
        return "repeated matching"
    return _split_check([(cls == "perp", area) for cls, area, _ in rows], a, "matchings")


_EDGE = re.compile(r"\((-?\d+),(-?\d+)\)-\((-?\d+),(-?\d+)\)")


def _rational_cli_ops(rng, p, q):
    """Every per-rational subcommand on p/q, in text and json form."""
    x = _frac_text(p, q)
    a = ref.cf_of_fraction(p, q)
    w = ref.word_of(a)
    sw = ref.theta(w)
    n = len(w)
    ops = []

    def qrat_text(out):
        return _check_q_pair(p, q, *ref.parse_fraction_str(out.rstrip("\n")), "qrat")

    def qrat_json(out):
        d = json.loads(out)
        num = {int(e): c for e, c in d["num"].items()}
        den = {int(e): c for e, c in d["den"].items()}
        return _expect(d["x"], x, "x") or _check_q_pair(p, q, num, den, "qrat json")

    ops += [_cli_op(["qrat", x], qrat_text), _cli_op(["qrat", x, "--format", "json"], qrat_json)]

    for family, names in (("admissible", ("filled", "empty")), ("ideals", ("filled", "empty")),
                          ("matchings", ("perp", "par"))):
        line = "%s=%d %s=%d total=%d\n" % (names[0], p, names[1], q, p + q)
        ops.append(_cli_op(["enum", family, x, "--count"], lambda out, line=line: _expect(out, line, "count line")))
        counts = {names[0]: p, names[1]: q, "total": p + q}
        ops.append(_cli_op(["enum", family, x, "--count", "--format", "json"],
                           lambda out, c=counts: _expect(json.loads(out), c, "count json")))

    def admissible_text(out):
        rows = [(int(n), tuple(int(d) for d in b.split(","))) for n, b in (ln.split("\t") for ln in out.splitlines())]
        return _check_admissible_rows(rows, a)

    def admissible_json(out):
        d = json.loads(out)
        return _expect(tuple(d["cf"]), a, "cf") or _check_admissible_rows([(n, tuple(b)) for n, b in d["rows"]], a)

    def ideals_rows(ideals):
        if len(ideals) != p + q:
            return "%d ideals, expected %d" % (len(ideals), p + q)
        return _check_ideals(ideals, w) or _split_check([(0 in i, len(i)) for i in ideals], a, "ideals")

    def ideals_text(out):
        return ideals_rows([[int(v) for v in ln.strip("{}").split(",") if v] for ln in out.splitlines()])

    def ideals_json(out):
        d = json.loads(out)
        return _expect(d["x"], x, "x") or ideals_rows(d["ideals"])

    def matchings_text(out):
        rows = []
        for ln in out.splitlines():
            cls, area, edges = ln.split(" ")
            found = [((int(m[1]), int(m[2])), (int(m[3]), int(m[4]))) for m in _EDGE.finditer(edges)]
            rows.append((cls[len("class="):], int(area[len("area="):]), found))
        return _expect(len(rows), p + q, "matching count") or _check_matchings(rows, sw, a)

    def matchings_json(out):
        d = json.loads(out)
        rows = [(m["class"], m["area"], [(tuple(u), tuple(v)) for u, v in m["edges"]]) for m in d["matchings"]]
        return _expect(len(rows), p + q, "matching count") or _check_matchings(rows, sw, a)

    ops += [
        _cli_op(["enum", "admissible", x], admissible_text),
        _cli_op(["enum", "admissible", x, "--format", "json"], admissible_json),
        _cli_op(["enum", "ideals", x], ideals_text),
        _cli_op(["enum", "ideals", x, "--format", "json"], ideals_json),
        _cli_op(["enum", "matchings", x], matchings_text),
        _cli_op(["enum", "matchings", x, "--format", "json"], matchings_json),
    ]

    def svg(circles, lines):
        def check(out):
            shape = (out.startswith("<svg"), out.rstrip("\n").endswith("</svg>"), out.count("<circle"), out.count("<line"))
            return _expect(shape, (True, True, circles, lines), "svg (open, close, circles, lines)")

        return check

    def dot(out):
        return _expect((out.startswith("digraph fence {"), out.count("->")), (True, n), "dot (header, edges)")

    ops += [
        _cli_op(["render", "snake", x], svg(2 * n + 4, 3 * n + 4)),
        _cli_op(["render", "fence", x], svg(n + 1, n)),
        _cli_op(["render", "fence", x, "--format", "dot"], dot),
    ]

    table = _prefix_table(w)

    def table_text(out):
        lines = out.splitlines()
        rows = [tuple(int(v) for v in ln.split("\t")) for ln in lines[2:]]
        want = [(j,) + pre + suf for j, (pre, suf) in enumerate(zip(table["prefixes"], table["suffixes"]))]
        return _expect(lines[0], "word\t" + sw, "word line") or _expect(rows, want, "table rows")

    def table_json(out):
        d = json.loads(out)
        got = {"word": d["word"], "prefixes": [tuple(r) for r in d["prefixes"]],
               "suffixes": [tuple(r) for r in d["suffixes"]]}
        return _expect(got, table, "table json")

    ops += [_cli_op(["table", x], table_text), _cli_op(["table", x, "--format", "json"], table_json)]

    b = ref.random_admissible(rng, a)
    value = ref.val(b, a)
    digits = ",".join(map(str, b))
    cf_arg = ref.cf_text(a)
    ops += [
        _cli_op(["rep", str(value), "--cf", cf_arg], lambda out: _expect(out, digits + "\n", "rep")),
        _cli_op(["rep", str(value), "--cf", cf_arg, "--format", "json"],
                lambda out: _expect(json.loads(out), {"cf": list(a), "n": value, "digits": list(b)}, "rep json")),
        _cli_op(["val", digits, "--cf", cf_arg], lambda out: _expect(out, "%d\n" % value, "val")),
        _cli_op(["val", digits, "--cf", cf_arg, "--format", "json"],
                lambda out: _expect(json.loads(out), {"cf": list(a), "digits": list(b), "n": value}, "val json")),
    ]
    return ops


def _tree_op(kind, depth, fmt):
    def level_check(items):
        sums = {sum(ref.cf_of_fraction(*((int(t), 1) if "/" not in t else map(int, t.split("/"))))) for t in items}
        got = (len(items), len(set(items)), sums)
        problem = _expect(got, (2**depth, 2**depth, {depth + 1}), "level (size, distinct, partial-quotient sums)")
        if not problem and kind == "sb":
            values = [Fraction(t) for t in items]
            problem = _expect(values == sorted(values), True, "Stern-Brocot level in ascending order")
        return problem

    argv = ["tree", kind, "--depth", str(depth)]
    if fmt == "json":
        return _cli_op(argv + ["--format", "json"], lambda out: level_check(json.loads(out)["level"]))
    return _cli_op(argv, lambda out: level_check(out.split()))


def _markoff_cli_op(w, fmt):
    number, snake_word, count = _markoff_row_expected(w)
    q2 = ref.mu_at(w, 2)[1]

    def check_fields(fields, poly):
        got = (fields, ref.evaluate(poly, 1), ref.evaluate(poly, 2))
        return _expect(got, ((w, number, snake_word, count), number, q2), "markoff row")

    def text(out):
        header, row = out.splitlines()
        word, num, poly, sword, cnt = row.split("\t")
        return _expect(header, "word\tnumber\tq_polynomial\tsnake_word\tmatching_count", "header") or check_fields(
            (word, int(num), sword, int(cnt)), ref.parse_poly(poly))

    def as_json(out):
        d = json.loads(out)
        poly = {int(e): c for e, c in d["q_polynomial"].items()}
        return check_fields((d["word"], d["number"], d["snake_word"], d["matching_count"]), poly)

    argv = ["markoff", "--word", w, "--table"]
    return _cli_op(argv + ["--format", "json"], as_json) if fmt == "json" else _cli_op(argv, text)


def cli_mix(rng, scale=1.0):
    """cli.main over every subcommand but verify: per-rational commands on
    words of 4-11 letters (three per length, from the quantile slices of
    r + s), tree levels of depth 2-9 in both formats, the Markoff table
    of every Christoffel word of 5-7 letters, and the README examples."""
    ops = [_cli_op(argv, lambda out, e=expected: _expect(out, e, "README example")) for argv, expected in README_EXAMPLES]
    lengths = range(4, 12) if scale >= 1 else stratified(rng, 4, 11, _count(scale, 8))
    for n in lengths:
        for w in quantile_words(rng, n, _count(scale, 3)):
            ops += _rational_cli_ops(rng, *ref.fraction_of_cf(ref.cf_of_word(w)))
    depths = range(2, 10) if scale >= 1 else stratified(rng, 2, 9, _count(scale, 8))
    for depth in depths:
        for fmt in ("text", "json"):
            ops.append(_tree_op(rng.choice(("sb", "cw")), depth, fmt))
    words = ref.christoffel_words(5, 7)
    for w in words[: _count(scale, len(words))]:
        ops.append(_markoff_cli_op(w, rng.choice(("text", "json"))))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- verify-parts

# The desk checks of verify that take under two seconds, cheapest first.
# The other three (counting and bijections, word and polynomial
# properties, independent oracles) take 2-60 s each and are measured by
# hand with `qrationals verify --level desk`.
VERIFY_PARTS = (
    "q-rational-goldens",
    "numeration-tables",
    "prefix-suffix-table",
    "lattice-convexity",
    "three-statistics",
    "markoff-theorems",
)


def _slug(name):
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _verify_op(part):
    """One of verify's checks at desk level, looked up in verify.CHECKS at
    call time; it raises on a failed claim and returns None."""

    def call():
        return next(fn for name, fn in verify.CHECKS if _slug(name) == part)("desk")

    return Op("verify " + part, ("verify", part, "desk"), call, lambda out: _expect(out, None, "verify " + part))


def _backtracking_op(w):
    def check(masks):
        want = _objects(ref.theta(w))
        return _expect((len(masks), masks == sorted(set(masks))), (want, True), "matchings (count, sorted distinct)")

    return Op("matchings_by_backtracking", ("matchings_by_backtracking", w),
              lambda: snake.matchings_by_backtracking(snake.Snake(w)), check)


def _subset_filter_op(w):
    def check(masks):
        order = masks == sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
        ideals = all(ref.is_ideal_mask(m, w) for m in masks)
        return _expect((len(masks), order, ideals), (_objects(w), True, True), "ideals (count, order, all ideals)")

    return Op("ideals_by_subset_filter", ("ideals_by_subset_filter", w),
              lambda: fence.ideals_by_subset_filter(fence.Fence(w)), check)


def _box(a):
    """Lattice points of the bounding box [0, a_0] x ... x [0, a_{k-1}]."""
    box = 1
    for ai in a:
        box *= ai + 1
    return box


def _convexity_op(a):
    def check(report):
        got = (report["dimension"], report["generators"], report["box"], report["violations"])
        return _expect(got, (len(a), sum(ref.fraction_of_cf(a)), _box(a), []), "convexity_report%s" % (a,))

    return Op("convexity_report", ("convexity_report", a), lambda: polytope.convexity_report(a), check)


def _halfspace_op(a):
    return Op("verify_halfspace_split", ("verify_halfspace_split", a), lambda: polytope.verify_halfspace_split(a),
              lambda ok: _expect(ok, True, "verify_halfspace_split%s" % (a,)))


def _closure_op(n):
    want = {"0", "1"} | set(ref.christoffel_words(2, n))
    return Op("christoffel_closure", ("christoffel_closure", n), lambda: words.christoffel_closure(n),
              lambda got: _expect(sorted(got), sorted(want), "christoffel_closure(%d)" % n))


def verify_parts(rng, scale=1.0):
    """verify's checks in VERIFY_PARTS (at every scale), and the
    brute-force oracles and polytope's exact hull tests on inputs of
    verify's desk sizes: matchings by backtracking and ideals by subset
    filtering on words of 10-14 letters (eight per length, from the
    quantile slices of r + s, so that many lie beyond op_p90_ms), convexity and half-space reports on
    expansions with at most 5 partial quotients summing to at most 8
    (sorted by bounding-box size, one from the middle fifth of each of 60
    slices), and the Christoffel closure up to 8-12 letters."""
    ops = [_verify_op(part) for part in VERIFY_PARTS]
    for n in range(10, 15) if scale >= 1 else stratified(rng, 10, 14, _count(scale, 5)):
        for w in quantile_words(rng, n, _count(scale, 8)):
            ops += [_backtracking_op(w), _subset_filter_op(w)]
    pool = sorted(ref.expansions(5, 8), key=lambda a: (_box(a), a))
    slices = _count(scale, 60)
    for j in range(slices):
        a = pool[int((j + 0.4 + 0.2 * rng.random()) * len(pool) / slices)]
        ops += [_convexity_op(a), _halfspace_op(a)]
    for n in range(8, 13) if scale >= 1 else stratified(rng, 8, 12, _count(scale, 5)):
        ops.append(_closure_op(n))
    rng.shuffle(ops)
    return ops


GENERATORS = {"qrat-large": qrat_large, "stats-words": stats_words, "cli-mix": cli_mix, "verify-parts": verify_parts}


def cli_out_bytes(op, output):
    """Bytes a CLI operation wrote to stdout; 0 for other operations."""
    return len(output[1].encode()) if op.kind.startswith("cli ") else 0
