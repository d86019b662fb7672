"""The three statistics and every count.  Each statistic is one
q-product, `theorem_pair` of its model's expansion: of the fence's word,
of either expansion for the digit vectors, and of theta of the snake's
word for the matchings.  The fence's path scan lists ideals and
matchings and counts on ints.  The statistics equal the listings on
short words, the path scan on dense lists on every word of up to 14
letters and on long and tall ones, and the matrix pair; neither they nor
the counts reach an enumerator."""

import re
from fractions import Fraction
from random import Random
from time import perf_counter

from hypothesis import given, settings, strategies as st
import pytest

from qrationals import _oracle, cli, fence, markoff, numeration, qpoly, snake, verify
from qrationals.cf import cf_even, cf_odd, cf_value, rational_of_word, word_of
from qrationals.qpoly import Poly, _plus, theorem_pair
from qrationals.verify import PREFIXES_84_37, SUFFIXES_84_37, _tally
from qrationals.words import all_words, theta

short_words = st.text(alphabet="01", max_size=12)
long_words = st.integers(200, 400).flatmap(
    lambda n: st.text(alphabet="01", min_size=n, max_size=n)
)
tall_expansions = st.tuples(
    st.integers(0, 300), st.lists(st.integers(1, 300), min_size=1, max_size=3)
).map(lambda t: (t[0],) + tuple(t[1]) + ((1,) if len(t[1]) % 2 == 0 else ()))


@given(short_words)
@settings(max_examples=80)
def test_ideal_scan_tallies_the_listed_ideals(w):
    f = fence.Fence(w)
    listed = _tally([(bool(m & 1), bin(m).count("1")) for m in fence.enumerate_ideals(f)])
    assert fence.ideal_statistics(f) == listed


@given(short_words)
@settings(max_examples=80)
def test_matching_scan_tallies_the_listed_matchings(w):
    g = snake.Snake(w)
    rows = [(g.classify(m) == "perp", g.area(m)) for m in snake.enumerate_matchings(g)]
    pair = _tally(rows)
    assert snake.matching_statistics(g) == pair
    assert snake.matching_counts(w) == tuple(p.eval_at_one() for p in pair)


@given(short_words)
@settings(max_examples=80)
def test_digit_scan_tallies_the_listed_vectors(w):
    x = rational_of_word(w)
    for a in (cf_even(x), cf_odd(x)):
        filled, empty = _oracle.partition(a)
        listed = _tally([(True, sum(b)) for b in filled] + [(False, sum(b)) for b in empty])
        assert numeration.norm1_statistics(a) == listed


def _check_scans_against_the_matrix_pair(a):
    x = cf_value(a)
    reference = theorem_pair(a)
    assert fence.ideal_statistics(fence.fence_of_rational(x)) == reference
    assert fence.rank_polynomials(x) == reference
    assert snake.matching_statistics(snake.snake_of_rational(x)) == reference
    assert snake.area_statistics(x) == reference
    assert numeration.norm1_statistics(a) == reference
    assert snake.matching_counts(snake.snake_word(x)) == (x.numerator, x.denominator)


@given(long_words)
@settings(max_examples=8, deadline=None)
def test_scans_equal_the_matrix_pair_on_long_words(w):
    _check_scans_against_the_matrix_pair(cf_even(rational_of_word(w)))


@given(tall_expansions)
@settings(max_examples=8, deadline=None)
def test_scans_equal_the_matrix_pair_on_tall_partial_quotients(a):
    _check_scans_against_the_matrix_pair(a)


def _dense_statistics(word):
    """The path scan on dense coefficient lists, a reference for the packed
    q-product: the empty ideal is [1], an element more is [0] + poly and a
    join adds coefficientwise."""
    return tuple(map(Poly, fence._path_scan(word, [1], lambda poly, i: [0] + poly, _plus)))


def _check_statistics_against_the_dense_scan(w):
    reference = _dense_statistics(w)
    assert fence.ideal_statistics(fence.Fence(w)) == reference, w
    assert snake.matching_statistics(snake.Snake(theta(w))) == reference, w
    # the odd-length expansion of W(a)'s rational, which the wrapper rewrites
    assert numeration.norm1_statistics(cf_odd(rational_of_word(w))) == reference, w


def test_packed_scan_equals_the_dense_scan_on_short_words():
    for w in all_words(14):
        _check_statistics_against_the_dense_scan(w)


@pytest.mark.parametrize("seed", range(10))
def test_packed_scan_equals_the_dense_scan_on_long_and_tall_words(seed):
    rng = Random(seed)
    long_word = "".join(rng.choice("01") for _ in range(rng.randint(200, 400)))
    # [a_0; a_1, ..., a_{k-1}] with quotients up to 300, k even
    tall = (rng.randint(0, 300),) + tuple(rng.randint(1, 300) for _ in range(2 * rng.randint(1, 2) - 1))
    for w in (long_word, word_of(tall)):
        _check_statistics_against_the_dense_scan(w)


def test_statistics_of_twenty_thousand_letters_at_q_equals_one_zero_and_two():
    # [1; 1000 x 20]: 20,000 letters in runs of 1,000, each one closed-form
    # power in the kernel; a pass per letter over integers as wide as the
    # output takes seconds
    x = cf_value((1,) + (1000,) * 20)
    a = cf_even(x)
    v = (1, 0)  # the integer product of the q = 2 matrices
    for i in range(len(a) - 1, -1, -1):
        for _ in range(a[i]):
            v = (2 * v[0] + v[1], v[1]) if i % 2 == 0 else (2 * v[0], 2 * v[0] + v[1])
    start = perf_counter()
    pairs = [fence.rank_polynomials(x), snake.area_statistics(x)]
    seconds = perf_counter() - start
    for first, second in pairs:
        assert (first.eval_at_one(), second.eval_at_one()) == (x.numerator, x.denominator)
        assert second.eval_at_zero() == 1
        at_two = [sum(c << e for e, c in enumerate(p.dense)) for p in (first, second)]
        assert at_two == [v[0], v[1] // 2]
    assert seconds < 0.5, "two statistics of 20,000 letters took %.2f s" % seconds


@pytest.fixture
def no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(qpoly.Poly, "__init__", refuse)


@pytest.fixture
def no_enumerator(monkeypatch):
    def refuse(*args):
        raise AssertionError("an enumerator was called")

    for module, name in (
        (fence, "enumerate_ideals"),
        (fence, "ideals_by_subset_filter"),
        (snake, "enumerate_matchings"),
        (snake, "matchings_by_backtracking"),
        (numeration, "enumerate_admissible"),
        (_oracle, "partition"),
        (cli, "enumerate_ideals"),
        (cli, "numeration_rows"),
        (cli, "enumerate_matchings"),
    ):
        monkeypatch.setattr(module, name, refuse)


def test_statistics_and_counts_list_nothing(no_enumerator):
    x = Fraction(84, 37)
    reference = theorem_pair(cf_even(x))
    assert fence.rank_polynomials(x) == reference
    assert snake.area_statistics(x) == reference
    assert numeration.norm1_statistics(cf_even(x)) == reference
    assert snake.prefix_suffix_table(x)["prefixes"][-1] == (84, 37)
    assert markoff.markoff_row("00101")["matching_count"] == 194


def _check_table_against_a_scan_per_row(w):
    table = snake.prefix_suffix_table(rational_of_word(theta(w)))
    assert table["word"] == w
    assert table["prefixes"] == [snake.matching_counts(w[:j]) for j in range(len(w) + 1)]
    assert table["suffixes"] == [snake.matching_counts(w[len(w) - j:]) for j in range(len(w) + 1)]


@given(st.text(alphabet="01", max_size=40))
@settings(max_examples=60, deadline=None)
def test_table_sweep_equals_a_scan_per_row(w):
    _check_table_against_a_scan_per_row(w)


def test_table_equals_a_scan_per_row_on_every_short_word():
    for w in all_words(10):
        _check_table_against_a_scan_per_row(w)


def _counting(monkeypatch, module, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
    return calls


@pytest.fixture
def no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("a transfer scan was run")

    for name in ("matching_counts", "_path_scan"):
        monkeypatch.setattr(snake, name, refuse)


def test_table_is_one_sweep_each_way(no_scan):
    table = snake.prefix_suffix_table(Fraction(84, 37))
    assert table["prefixes"] == PREFIXES_84_37
    assert table["suffixes"] == SUFFIXES_84_37


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_table_of_a_2000_letter_word_runs_no_scan(no_scan):
    r, s = _fibonacci(2002), _fibonacci(2001)
    table = snake.prefix_suffix_table(Fraction(r, s))
    assert len(table["word"]) == 2000
    assert table["prefixes"][-1] == table["suffixes"][-1] == (r, s)
    assert len(table["prefixes"]) == len(table["suffixes"]) == 2001


@given(st.text(alphabet="01", max_size=12))
@settings(max_examples=30)
def test_listings_run_the_statistics_scan(w):
    with pytest.MonkeyPatch.context() as monkeypatch:
        # every scan is the fence's, called by the snake's listing under its
        # own import of the name; every statistic is `theorem_pair`, called
        # under each model's own import of the name, and one kernel product
        scans = _counting(monkeypatch, fence, "_path_scan")
        monkeypatch.setattr(snake, "_path_scan", fence._path_scan)
        pairs = []
        for module in (fence, snake, numeration):
            _counting(monkeypatch, module, "theorem_pair", pairs)
        products = _counting(monkeypatch, qpoly, "_q_product_vector")
        g, f = snake.Snake(w), fence.Fence(w)
        # one scan per listing
        assert snake.enumerate_matchings(g) == snake.matchings_by_backtracking(g)
        assert fence.enumerate_ideals(f) == fence.ideals_by_subset_filter(f)
        assert (len(scans), len(pairs), len(products)) == (2, 0, 0)
        # one product and no scan per statistic, the digits' of either expansion
        x = rational_of_word(w)
        statistics = (
            lambda: snake.matching_statistics(g),
            lambda: fence.ideal_statistics(f),
            lambda: fence.rank_polynomials(x),
            lambda: snake.area_statistics(x),
            lambda: numeration.norm1_statistics(cf_even(x)),
            lambda: numeration.norm1_statistics(cf_odd(x)),
        )
        for n, statistic in enumerate(statistics, 1):
            statistic()
            assert (len(scans), len(pairs), len(products)) == (2, n, n)


def _suffixes_swapped(original):
    def wrong(x):
        table = original(x)
        return dict(table, suffixes=[(par, perp) for perp, par in table["suffixes"]])

    return wrong


def test_table_check_names_the_rational_side_and_row(monkeypatch):
    # the suffix recurrence with perp and par exchanged: a 1 adding r to s
    # and a 0 adding s to r gives (s, r) for every suffix
    monkeypatch.setattr(snake, "prefix_suffix_table", _suffixes_swapped(snake.prefix_suffix_table))
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c[0] == "prefix/suffix table"])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][:2] == ("prefix/suffix table", False)
    assert rows[0][2] == (
        "the suffix column against the per-row scan fails on 1/2 (word '1') at index 1: got [(2, 1)], expected [(1, 2)]"
    )


def test_listing_carries_each_matchings_area():
    for w in all_words(10):
        g = snake.Snake(w)
        masks = snake.enumerate_matchings(g)
        assert snake.enumerate_matchings(g, area=True) == [(m, g.area(m)) for m in masks]


def test_area_statistics_build_no_snake(monkeypatch):
    # the area scan reads the basic matching off the word
    def refuse(word):
        raise AssertionError("a Snake was built")

    monkeypatch.setattr(snake, "Snake", refuse)
    x = Fraction(84, 37)
    assert snake.area_statistics(x) == theorem_pair(cf_even(x))


@pytest.mark.parametrize(
    "family, expected",
    (
        ("admissible", "filled=84 empty=37 total=121\n"),
        ("ideals", "filled=84 empty=37 total=121\n"),
        ("matchings", "perp=84 par=37 total=121\n"),
    ),
)
def test_count_paths_list_nothing(no_enumerator, no_polynomial, capsys, family, expected):
    assert cli.main(["enum", family, "84/37", "--count"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "family, first, second",
    (("admissible", "filled", "empty"), ("ideals", "filled", "empty"), ("matchings", "perp", "par")),
)
def test_counts_of_a_2000_letter_word_run_on_ints(no_enumerator, no_polynomial, capsys, family, first, second):
    r, s = _fibonacci(2002), _fibonacci(2001)
    assert cli.main(["enum", family, "%d/%d" % (r, s), "--count"]) == 0
    assert capsys.readouterr().out == "%s=%d %s=%d total=%d\n" % (first, r, second, s, r + s)


def _swapped(original):
    def wrong(*args):
        first, second = original(*args)
        return second, first

    return wrong


def _one_short(original):
    def wrong(*args):
        return original(*args)[:-1]

    return wrong


@pytest.mark.parametrize(
    "module, name, plant, model, path",
    (
        (numeration, "norm1_statistics", _swapped, "admissible vectors", "the q-product"),
        (fence, "enumerate_ideals", _one_short, "order ideals", "enumeration"),
        (snake, "enumerate_matchings", _one_short, "matchings", "enumeration"),
    ),
)
def test_three_statistics_check_names_model_and_path(monkeypatch, module, name, plant, model, path):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    with pytest.raises(AssertionError, match="^%s statistics by %s fails on 1: got " % (model, path)):
        verify.check_three_statistics("desk")


def test_three_statistics_check_holds_the_side_of_each_matching(monkeypatch):
    # the basic matching at the other parity: the listing twists it, so its
    # own y_0 bit agrees with the scan, but the first-cell edge rule does not
    sides = snake._basic_sides.__wrapped__
    monkeypatch.setattr(snake, "_basic_sides", lambda prev, letter, odd: sides(prev, letter, 1 - odd))
    with pytest.raises(AssertionError, match="^matchings statistics by enumeration fails on 1: got "):
        verify.check_three_statistics("desk")


def test_three_statistics_check_holds_the_odd_length_rule(monkeypatch):
    # an odd-length expansion made even by appending a quotient 1 without
    # lowering the last one: [..., a, 1] is [..., a + 1], another rational.
    # Only the digits' row passes the odd-length expansion to its wrapper.
    def unlowered(a):
        return theorem_pair(a + (1,) if len(a) % 2 else a)

    monkeypatch.setattr(numeration, "norm1_statistics", unlowered)
    with pytest.raises(
        AssertionError,
        match="^" + re.escape("admissible vectors statistics by the q-product fails on 1: got (Poly(q^2+q), Poly(1)), expected (Poly(q), Poly(1))"),
    ):
        verify.check_three_statistics("desk")
