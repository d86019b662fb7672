import random

from hypothesis import given, strategies as st
import pytest

from qrationals.words import (
    all_words,
    check_word,
    christoffel,
    christoffel_closure,
    complement,
    eta,
    gamma,
    gamma_prime,
    hat,
    is_christoffel,
    reversal,
    theta,
)

words = st.text(alphabet="01", max_size=14)


def _theta_by_letters(w):
    n = len(w)
    return "".join(c if (n - 1 - i) % 2 else ("1" if c == "0" else "0") for i, c in enumerate(w))


def _eta_by_letters(w):
    return "".join(c if i % 2 else ("1" if c == "0" else "0") for i, c in enumerate(w))


def test_theta_and_eta_equal_the_letter_by_letter_flips():
    rng = random.Random(2026)
    long_words = ["".join(rng.choices("01", k=rng.randint(200, 2000))) for _ in range(100)]
    for w in [*all_words(14), *long_words]:
        assert theta(w) == _theta_by_letters(w), w
        assert eta(w) == _eta_by_letters(w), w


@pytest.mark.parametrize(
    "w, expected",
    (
        ("0111", "0010"),
        ("1101100", "0111001"),
        ("011001011001", "001100001100"),
        ("10110110001001", "11100011011100"),
        ("", ""),
        ("0", "1"),
        ("1", "0"),
    ),
)
def test_theta_goldens(w, expected):
    assert theta(w) == expected


@pytest.mark.parametrize(
    "w, expected",
    (
        ("0111", "1101"),
        ("01", "11"),
        ("10", "00"),
    ),
)
def test_eta_goldens(w, expected):
    assert eta(w) == expected


@given(words)
def test_involutions(w):
    assert complement(complement(w)) == w
    assert reversal(reversal(w)) == w
    assert hat(hat(w)) == w
    assert theta(theta(w)) == w
    assert eta(eta(w)) == w


@given(words)
def test_theta_eta_conjugate_through_hat(w):
    assert hat(theta(w)) == eta(hat(w))


@given(words)
def test_theta_commutes_with_complement(w):
    assert theta(complement(w)) == complement(theta(w))


@given(words)
def test_theta_preserves_length_and_theta_eta_differ_only_by_side(w):
    assert len(theta(w)) == len(w)
    assert eta(w) == reversal(theta(reversal(w)))


def test_gamma_images():
    assert gamma("") == ""
    assert gamma("0") == "00"
    assert gamma("1") == "0110"
    assert gamma_prime("0") == "10"
    assert gamma_prime("1") == "1100"


@given(words)
def test_gamma_pair_intertwined_by_theta(w):
    """theta turns the padded gamma image into the padded gamma' image."""
    assert theta("0" + gamma(w) + "0") == "0" + gamma_prime(w) + "1"


@pytest.mark.parametrize(
    "p, q, expected",
    (
        (1, 0, "0"),
        (0, 1, "1"),
        (1, 1, "01"),
        (2, 1, "001"),
        (1, 2, "011"),
        (3, 2, "00101"),
        (2, 3, "01011"),
        (7, 1, "00000001"),
    ),
)
def test_christoffel_goldens(p, q, expected):
    assert christoffel(p, q) == expected
    assert is_christoffel(expected)


def test_christoffel_rejects_bad_parameters():
    with pytest.raises(ValueError, match="coprime"):
        christoffel(2, 4)
    with pytest.raises(ValueError):
        christoffel(0, 0)


def test_closure_matches_the_direct_construction():
    direct = {w for w in all_words(9) if is_christoffel(w)}
    assert christoffel_closure(9) == direct


def test_non_christoffel_words():
    assert not is_christoffel("")
    assert not is_christoffel("10")
    assert not is_christoffel("0110")
    assert not is_christoffel("0011")


def test_check_word_rejects_non_binary():
    with pytest.raises(ValueError, match="binary word"):
        check_word("012")
    with pytest.raises(ValueError, match="^not a binary word: a NoneType$"):
        check_word(None)
    # a long word is named by its length and first bad letter, not echoed
    with pytest.raises(ValueError, match="^not a binary word: '2' at position 4000 of 5000$"):
        check_word("0" * 3999 + "2" * 1001)
