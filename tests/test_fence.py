from fractions import Fraction

from hypothesis import given, strategies as st

from qrationals._oracle import xy_pair
from qrationals.cf import cf_even
from qrationals.fence import (
    Fence,
    chains,
    enumerate_ideals,
    fence_of_rational,
    fence_to_dot,
    fence_to_svg,
    ideal_statistics,
    ideals_by_subset_filter,
    is_ideal,
    psi,
    psi_inverse,
)
from qrationals.numeration import enumerate_admissible, is_filled

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
    f = Fence("01")
    # y1 below both ends: {1} closed, {0} and {2} are not
    assert is_ideal(0b010, f)
    assert not is_ideal(0b001, f)
    assert not is_ideal(0b100, f)
    assert is_ideal(0b111, f)


@given(words)
def test_frontier_scan_agrees_with_subset_filter(w):
    f = Fence(w)
    assert enumerate_ideals(f) == ideals_by_subset_filter(f)


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


@given(rationals)
def test_psi_is_a_statistic_preserving_bijection(x):
    a = cf_even(x)
    f = fence_of_rational(x)
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
