from fractions import Fraction

from hypothesis import given, strategies as st
import pytest

import qrationals.cf
from qrationals.cf import (
    cf_even,
    cf_odd,
    cf_parse,
    cf_str,
    cf_value,
    check_cf,
    convergents,
    cw_level,
    r_sequence,
    rational_of_word,
    rationals_with_sum_upto,
    sb_level,
    word_of,
    word_of_rational,
)
from qrationals.fence import fence_of_rational
from qrationals.snake import prefix_suffix_table, snake_word
from qrationals.words import all_words, complement

rationals = st.builds(Fraction, st.integers(1, 400), st.integers(1, 400))
short_words = st.text(alphabet="01", max_size=12)


@pytest.mark.parametrize(
    "x, even, odd",
    (
        (Fraction(22, 7), (3, 7), (3, 6, 1)),
        (Fraction(4, 5), (0, 1, 3, 1), (0, 1, 4)),
        (Fraction(2, 7), (0, 3, 1, 1), (0, 3, 2)),
        (Fraction(17, 5), (3, 2, 1, 1), (3, 2, 2)),
        (Fraction(84, 37), (2, 3, 1, 2, 2, 1), (2, 3, 1, 2, 3)),
        (Fraction(1), (0, 1), (1,)),
    ),
)
def test_expansions_of_both_parities(x, even, odd):
    assert cf_even(x) == even
    assert cf_odd(x) == odd


@given(rationals)
def test_expansions_evaluate_back(x):
    assert cf_value(cf_even(x)) == x
    assert cf_value(cf_odd(x)) == x
    assert len(cf_even(x)) % 2 == 0
    assert len(cf_odd(x)) % 2 == 1


def test_check_cf_rejects_malformed():
    with pytest.raises(ValueError):
        check_cf((0,))
    with pytest.raises(ValueError):
        check_cf((2, 0, 2))
    with pytest.raises(ValueError):
        check_cf(())
    with pytest.raises(ValueError):
        check_cf((-1, 2))


def test_convergents_and_r_sequence():
    p, q = convergents((2, 2, 2))
    assert p == (1, 2, 5, 12)
    assert q == (0, 1, 2, 5)
    assert r_sequence((2, 2, 2)) == (1, 1, 3, 7, 17)
    assert r_sequence((2, 2, 2, 2)) == (1, 1, 3, 7, 17, 41)
    assert r_sequence((1, 1, 1, 1, 1, 1)) == (1, 1, 2, 3, 5, 8, 13, 21)


@given(rationals)
def test_last_convergent_is_the_rational(x):
    a = cf_even(x)
    p, q = convergents(a)
    assert Fraction(p[-1], q[-1]) == x


@given(rationals)
def test_r_recurrence(x):
    a = cf_even(x)
    r = r_sequence(a)
    assert len(r) == len(a) + 2
    for i in range(2, len(r)):
        assert r[i] == a[i - 2] * r[i - 1] + r[i - 2]


@pytest.mark.parametrize(
    "x, w",
    (
        (Fraction(17, 5), "111001"),
        (Fraction(36, 121), "00011011100"),
        (Fraction(84, 37), "1100010011"),
        (Fraction(27, 10), "1101100"),
        (Fraction(1), ""),
        (Fraction(1, 2), "0"),
        (Fraction(2), "1"),
    ),
)
def test_word_codec_goldens(x, w):
    assert word_of(cf_even(x)) == w
    assert rational_of_word(w) == x


def _rational_of_word_by_runs(w):
    """The word's runs as partial quotients (a leading 0 before a first
    run of 0s, the last quotient raised by one for its dropped final 0),
    then the expansion evaluated from its last quotient back."""
    if not w:
        return Fraction(1)
    runs = []
    for c in w:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    quotients = [0] if w[0] == "0" else []
    quotients.extend(n for _, n in runs)
    if w[-1] == "1":
        quotients.append(1)
    else:
        quotients[-1] += 1
    x = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        x = a + 1 / x
    return x


def test_rational_of_word_equals_the_run_based_route():
    for w in all_words(12):
        assert rational_of_word(w) == _rational_of_word_by_runs(w), w


@given(short_words)
def test_word_codec_round_trip(w):
    assert word_of(cf_even(rational_of_word(w))) == w


@given(rationals)
def test_rational_codec_round_trip(x):
    assert rational_of_word(word_of(cf_even(x))) == x


@given(short_words)
def test_complement_inverts_the_rational(w):
    assert rational_of_word(complement(w)) == 1 / rational_of_word(w)


def test_word_of_needs_even_length():
    with pytest.raises(ValueError):
        word_of((3, 7, 1))


@pytest.mark.parametrize(
    "a, message",
    (
        ((3, 7, 1), "word_of needs the even-length form, got [3;7,1]"),
        ((3, 0), "invalid partial quotients: a_1 < 1 in an expansion of length 2"),
        ((), "empty expansion"),
        ((0,), "[0] does not expand a positive rational"),
        ((-1, 2), "invalid partial quotients: a_0 < 0 in an expansion of length 2"),
        ((2, 3, 0, 1), "invalid partial quotients: a_2 < 1 in an expansion of length 4"),
    ),
)
def test_word_of_checks_its_input(a, message):
    with pytest.raises(ValueError) as info:
        word_of(a)
    assert str(info.value) == message


@given(rationals)
def test_word_of_rational_is_word_of_the_even_expansion(x):
    assert word_of_rational(x) == word_of(cf_even(x))


def test_word_of_rational_checks_no_expansion_it_built(monkeypatch):
    def refuse(a):
        raise AssertionError("cf_even's expansion needs no second check")

    monkeypatch.setattr(qrationals.cf, "check_cf", refuse)
    assert word_of_rational(Fraction(84, 37)) == "1100010011"
    assert word_of_rational(Fraction(1)) == ""
    # the three models build their word this way
    assert fence_of_rational(Fraction(84, 37)).word == "1100010011"
    assert snake_word(Fraction(84, 37)) == "1001000110"
    assert prefix_suffix_table(Fraction(84, 37))["prefixes"][-1] == (84, 37)


def test_cf_bracket_syntax():
    assert cf_parse("[2;2,2]") == (2, 2, 2)
    assert cf_parse("[0;3,1,1]") == (0, 3, 1, 1)
    assert cf_str((2, 3, 1, 2, 2, 1)) == "[2;3,1,2,2,1]"
    with pytest.raises(ValueError):
        cf_parse("2;2,2")
    with pytest.raises(ValueError):
        cf_parse("[2,2,2]")
    with pytest.raises(ValueError):
        cf_parse("[2;a]")


@pytest.mark.parametrize(
    "text, named",
    (
        ("[2;\u0662,2]", "'\u0662' at position 4 of 7"),  # ARABIC-INDIC DIGIT TWO
        ("[2;\uff12,2]", "'\uff12' at position 4 of 7"),  # FULLWIDTH DIGIT TWO
        ("[2;2_0,2]", "'_' at position 5 of 9"),
    ),
)
def test_cf_parse_reads_ascii_digits_only(text, named):
    # int() alone reads these as 2, 2 and 20
    with pytest.raises(ValueError) as info:
        cf_parse(text)
    assert str(info.value) == "expected [a0;a1,...], got " + named


@pytest.mark.parametrize(
    "text, reason",
    (
        ("[2;2,2,0]", "invalid partial quotients: a_3 < 1 in an expansion of length 4"),
        ("[2;-2]", "invalid partial quotients: a_1 < 1 in an expansion of length 2"),
        ("[-1;2]", "invalid partial quotients: a_0 < 0 in an expansion of length 2"),
        ("[0]", "[0] does not expand a positive rational"),
    ),
)
def test_cf_parse_keeps_the_reason_an_expansion_is_invalid(text, reason):
    # well-formed integers that are no expansion are refused by check_cf
    with pytest.raises(ValueError) as info:
        cf_parse(text)
    assert str(info.value) == reason


@given(st.integers(0, 6))
def test_parse_round_trip_on_tree_levels(depth):
    for x in sb_level(depth):
        a = cf_even(x)
        assert cf_parse(cf_str(a)) == a


def test_tree_levels():
    assert sb_level(0) == [Fraction(1)]
    assert sb_level(1) == [Fraction(1, 2), Fraction(2)]
    assert sb_level(2) == [Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3)]
    assert cw_level(2) == [Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(3)]


def test_tree_levels_are_their_words_in_order():
    sb, cw = [""], [""]
    for depth in range(13):
        assert sb_level(depth) == [rational_of_word(w) for w in sb]
        assert cw_level(depth) == [rational_of_word(w) for w in cw]
        sb = [w + c for w in sb for c in "01"]
        cw = [c + w for w in cw for c in "01"]


def test_tree_levels_agree_with_the_word_codec():
    for depth in range(7):
        level = set(sb_level(depth))
        assert level == set(cw_level(depth))
        assert level == {rational_of_word(w) for w in all_words(depth, depth)}


def test_rationals_with_sum_upto():
    xs = rationals_with_sum_upto(5)
    assert xs == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(2, 1),
        Fraction(1, 3),
        Fraction(3, 1),
        Fraction(1, 4),
        Fraction(2, 3),
        Fraction(3, 2),
        Fraction(4, 1),
    ]
    assert all(x.numerator + x.denominator <= 30 for x in rationals_with_sum_upto(30))
