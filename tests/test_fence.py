from fractions import Fraction

from hypothesis import given, strategies as st
import pytest

from qrationals import fence
from qrationals._oracle import xy_pair
from qrationals.cf import cf_even, cf_odd, rational_of_word
from qrationals.fence import (
    Fence,
    chains,
    enumerate_ideals,
    fence_of_rational,
    fence_to_dot,
    fence_to_svg,
    ideal_statistics,
    ideals_by_subset_filter,
    psi,
    psi_inverse,
)
from qrationals.numeration import enumerate_admissible, is_filled
from qrationals.words import all_words

words = st.text(alphabet="01", max_size=10)
rationals = st.builds(Fraction, st.integers(1, 25), st.integers(1, 25))


def test_shape():
    f = Fence("111001")
    assert f.size == 7
    assert f.heights() == (0, 1, 2, 3, 2, 1, 2)
    assert f.covers == [(0, 1), (1, 2), (2, 3), (4, 3), (5, 4), (5, 6)]


def test_ideal_counts():
    assert len(enumerate_ideals(Fence("0111"))) == 9
    assert len(enumerate_ideals(Fence("111001"))) == 22
    assert enumerate_ideals(Fence("")) == [0, 1]


def test_is_ideal_on_a_vee():
    # y1 below both ends: {1} closed, {0} and {2} are not
    assert enumerate_ideals(Fence("01")) == [0b000, 0b010, 0b011, 0b110, 0b111]


@given(words)
def test_path_scan_agrees_with_subset_filter(w):
    f = Fence(w)
    assert enumerate_ideals(f) == ideals_by_subset_filter(f)


def test_subset_filter_equals_a_test_of_each_subset_against_each_cover():
    for w in all_words(8):
        f = Fence(w)
        naive = [
            m
            for m in range(1 << f.size)
            if all(m >> lo & 1 or not m >> up & 1 for lo, up in f.covers)
        ]
        naive.sort(key=lambda m: (bin(m).count("1"), m))
        assert ideals_by_subset_filter(f) == naive


def test_subset_filter_builds_the_masks_of_a_large_fence_uncached():
    w = "01101001100101101"
    f = Fence(w)
    assert f.size == 18 > fence._CACHED_MASK_SIZE
    cached = fence._cached_subset_masks.cache_info().currsize
    assert ideals_by_subset_filter(f) == enumerate_ideals(f)
    assert fence._cached_subset_masks.cache_info().currsize == cached


def test_both_listers_order_a_large_fence_by_size_then_mask():
    # above the cached mask size the listers were held only against each
    # other, so an order fault they shared would pass there
    w = "01101001100101101"
    f = Fence(w)
    assert f.size == 18 > fence._CACHED_MASK_SIZE
    x = rational_of_word(w)
    for ideals in (enumerate_ideals(f), ideals_by_subset_filter(f)):
        assert len(set(ideals)) == x.numerator + x.denominator
        assert ideals == sorted(ideals, key=lambda m: (bin(m).count("1"), m))


@given(words)
def test_ideals_are_closed_under_union_and_intersection(w):
    f = Fence(w)
    masks = enumerate_ideals(f)
    present = set(masks)
    for i in masks[: 12]:
        for j in masks[: 12]:
            assert i | j in present
            assert i & j in present


def test_rank_polynomial_goldens():
    num, den = ideal_statistics(fence_of_rational(Fraction(2, 7)))
    assert str(num) == "q^5+q^4"
    assert str(den) == "q^4+2*q^3+2*q^2+q+1"
    num, den = ideal_statistics(fence_of_rational(Fraction(1)))
    assert (str(num), str(den)) == ("q", "1")
    num, den = ideal_statistics(fence_of_rational(Fraction(4, 5)))
    assert str(num) == "q^5+q^4+q^3+q^2"
    assert str(den) == "q^4+q^3+q^2+q+1"


@given(words)
def test_statistics_satisfy_the_transfer_recursion(w):
    assert ideal_statistics(Fence(w)) == xy_pair(w)


def test_chains_partition_the_ground_set():
    blocks = chains((3, 3, 2, 1, 3, 3))
    assert [len(b) for b in blocks] == [3, 3, 2, 1, 3, 3]
    assert [b.start for b in blocks] == [0, 3, 6, 8, 9, 12]


def test_psi_golden():
    a = (3, 3, 2, 1, 3, 3)
    mask = sum(1 << i for i in (0, 1, 6, 7, 8, 9, 13, 14))
    assert psi(mask, a) == (2, 0, 2, 1, 1, 2)
    assert psi_inverse((2, 0, 2, 1, 1, 2), a) == mask


@pytest.mark.parametrize(
    "b, a, reason",
    (
        ((0, 1), (1, 1), "^digits not admissible .*: b_1 = a_1 but b_0 != a_0$"),
        ((0, 1, 0, 0), (0, 1, 3, 1), "^digits not admissible .*: b_2 = 0 but b_1 != 0$"),
        ((0, 5), (1, 1), r"^digits not admissible .*: b_1 is outside \[0, a_1\]$"),
        ((1, 1, 1), (1, 1), "^digit vector has length 3, expansion 2$"),
        ((0,), (1, 1), "^digit vector has length 1, expansion 2$"),
        ((1.5, 0), (2, 2), "^b_0 is not an integer"),
    ),
)
def test_psi_inverse_refuses_digits_that_are_not_admissible(b, a, reason):
    # an inadmissible vector has no ideal: psi_inverse refuses it as val does
    with pytest.raises(ValueError, match=reason):
        psi_inverse(b, a)


@pytest.mark.parametrize(
    "mask, a, reason",
    (
        (1 << 20, (1, 1), "^the mask holds y_20, past the 2 elements of the fence$"),
        (5, (2, -1, 1), "^invalid partial quotients: a_1 < 1 in an expansion of length 3$"),
        (-1, (1, 1), "^an ideal's mask is nonnegative, got a negative one$"),
    ),
)
def test_psi_refuses_what_is_no_ideal_of_a_fence(mask, a, reason):
    # as psi_inverse refuses digits that are not admissible
    with pytest.raises(ValueError, match=reason):
        psi(mask, a)


@given(rationals)
def test_psi_is_a_statistic_preserving_bijection(x):
    # both expansions of x have the word of the fence, so psi serves both
    f = fence_of_rational(x)
    for a in (cf_even(x), cf_odd(x)):
        seen = []
        for mask in enumerate_ideals(f):
            b = psi(mask, a)
            assert sum(b) == bin(mask).count("1")
            assert is_filled(b, a) == bool(mask & 1)
            assert psi_inverse(b, a) == mask
            seen.append(b)
        assert sorted(seen) == sorted(enumerate_admissible(a))


def test_dot_and_svg_emitters():
    f = Fence("011")
    dot = fence_to_dot(f)
    assert dot.startswith("digraph")
    assert "y3" in dot and "y1 -> y0" in dot
    svg = fence_to_svg(f, ideal=0b0110)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
