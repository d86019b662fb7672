from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings, strategies as st
import pytest

from qrationals import _oracle, numeration, polytope, verify
from qrationals._oracle import HullSystem, box_scan_report, in_hull, partition
from qrationals.cf import cf_value
from qrationals.numeration import enumerate_admissible, is_admissible
from qrationals.polytope import convexity_report, halfspace, inequalities, verify_halfspace_split


@st.composite
def expansions(draw):
    first = draw(st.integers(0, 3))
    rest = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    a = (first,) + tuple(rest)
    assume(sum(a) <= 7)
    return a


@st.composite
def wider_expansions(draw):
    first = draw(st.integers(0, 4))
    rest = draw(st.lists(st.integers(1, 4), min_size=0, max_size=5))
    a = (first,) + tuple(rest)
    assume(a != (0,) and sum(a) <= 10)
    return a


def test_generators_are_inside():
    h = HullSystem.of_expansion((2, 2, 2))
    for p in h.points:
        assert in_hull(p, h)


def test_known_outside_points():
    h = HullSystem.of_expansion((0, 1, 3, 1))
    assert not in_hull((0, 0, 0, 1), h)
    assert not in_hull((0, 0, 1, 1), h)
    h = HullSystem.of_expansion((2, 2, 2))
    # odd digit at its cap without the forced predecessor
    assert not in_hull((1, 2, 0), h)
    # even digit at zero above a positive predecessor
    assert not in_hull((2, 2, 0), h)


def test_fractional_interior_membership_on_custom_hulls():
    square = HullSystem([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert in_hull((1, 1), square)
    assert not in_hull((3, 1), square)
    segment = HullSystem([(0, 0), (2, 2)])
    assert in_hull((1, 1), segment)
    assert not in_hull((1, 0), segment)
    point = HullSystem([(5,)])
    assert in_hull((5,), point)
    assert not in_hull((4,), point)


def test_the_inequalities_cut_out_more_than_the_hull():
    # P, the box cut by the rows of `inequalities`, is not conv(B): for
    # a = (1, 2, 1) it holds (0, 1, 1/2), and twice that point lies outside
    # the hull of 2B
    a = (1, 2, 1)
    c = (Fraction(0), Fraction(1), Fraction(1, 2))
    assert all(0 <= ci <= ai for ci, ai in zip(c, a))
    assert all(sum(u * v for u, v in zip(y, c)) <= t for y, t in inequalities(a))
    doubled = HullSystem([tuple(2 * d for d in b) for b in enumerate_admissible(a)])
    assert not in_hull(tuple(2 * ci for ci in c), doubled)


def test_hull_system_rejects_garbage():
    with pytest.raises(ValueError):
        HullSystem([])
    with pytest.raises(ValueError):
        HullSystem([(0, 0), (1,)])


@given(expansions())
@settings(max_examples=40, deadline=None)
def test_lattice_points_of_the_hull_are_the_admissible_vectors(a):
    report = convexity_report(a)
    assert report["violations"] == []
    assert report["dimension"] == len(a)
    assert report["generators"] == len(enumerate_admissible(a))


@given(expansions())
@settings(max_examples=40, deadline=None)
def test_halfspace_splits_the_partition(a):
    assert verify_halfspace_split(a)
    y, t = halfspace(a)
    filled, empty = partition(a)
    for b in filled:
        assert sum(u * v for u, v in zip(y, b)) >= t
    for b in empty:
        assert sum(u * v for u, v in zip(y, b)) < t


def test_halfspace_split_lists_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the half-space split must not enumerate")

    monkeypatch.setattr(numeration, "enumerate_admissible", refuse)
    assert verify_halfspace_split((5,) * 10)
    assert verify_halfspace_split((0, 7, 3))


@pytest.mark.parametrize("a", ((2, 2, 2), (0, 3, 1, 1)))
def test_halfspace_split_refuses_a_shifted_cut(monkeypatch, a):
    # the split takes its cut from `halfspace`
    cut = polytope.halfspace
    monkeypatch.setattr(polytope, "halfspace", lambda b: (cut(b)[0], cut(b)[1] + 1))
    assert not verify_halfspace_split(a)


@pytest.mark.parametrize(
    "plant, message",
    (
        # the bound one off either way, and a normal that reads a second digit
        (lambda y, t: (y, t + 1), "the half-space split fails on (0, 1) at index 0: got [1], expected []"),
        (lambda y, t: (y, t - 1), "the half-space split fails on (0, 1) at index 0: got [0], expected []"),
        (
            lambda y, t: (y[:-1] + (1,), t),
            "the half-space normal past its digit fails on (0, 1, 1): got (1,), expected (0,)",
        ),
    ),
)
def test_half_space_claims_fail_by_values(monkeypatch, plant, message):
    cut = polytope.halfspace
    monkeypatch.setattr(polytope, "halfspace", lambda a: plant(*cut(a)))
    with pytest.raises(AssertionError) as failure:
        verify.check_polytope("desk")
    assert str(failure.value) == message


def test_halfspace_normals():
    assert halfspace((2, 2, 2)) == ((1, 0, 0), 1)
    assert halfspace((0, 3, 1, 1)) == ((0, 1, 0, 0), 3)


def test_every_box_point_is_classified_correctly():
    a = (1, 2, 1, 2)
    h = HullSystem.of_expansion(a)
    for c in product(*(range(ai + 1) for ai in a)):
        assert in_hull(c, h) == is_admissible(c, a)


@given(wider_expansions())
@settings(max_examples=60, deadline=None)
def test_report_equals_the_box_scan_oracle(a):
    assert convexity_report(a) == box_scan_report(a, enumerate_admissible(a))


@pytest.mark.parametrize("slack", (-100, 100))
def test_box_scan_tests_each_row_as_a_separator(monkeypatch, slack):
    # rows that every point or no point breaks change which points reach
    # Fourier-Motzkin, never the report
    rows_of = _oracle.inequalities
    monkeypatch.setattr(_oracle, "inequalities", lambda a: [(y, t + slack) for y, t in rows_of(a)])
    for a in ((2, 2, 2), (0, 1, 3, 1), (1, 2, 1, 2)):
        assert box_scan_report(a, enumerate_admissible(a)) == convexity_report(a)


def test_box_scan_refuses_a_row_that_weighs_a_third_digit(monkeypatch):
    rows_of = _oracle.inequalities

    def widened(a):
        rows = rows_of(a)
        y, t = rows[0]
        rows[0] = (y[:2] + (1,) + y[3:], t)
        return rows

    monkeypatch.setattr(_oracle, "inequalities", widened)
    with pytest.raises(ValueError, match="row 0 weighs digits other than 0 and 1"):
        box_scan_report((2, 2, 2), enumerate_admissible((2, 2, 2)))


@given(expansions())
@settings(max_examples=40, deadline=None)
def test_lattice_points_of_the_inequalities_are_the_admissible_vectors(a):
    rows = inequalities(a)
    assert len(rows) == len(a) - 1
    for c in product(*(range(ai + 1) for ai in a)):
        inside = all(sum(u * v for u, v in zip(y, c)) <= t for y, t in rows)
        assert inside == is_admissible(c, a)


def test_report_lists_nothing_and_scans_no_box(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convexity_report must not enumerate")

    for name in ("enumerate_admissible", "HullSystem", "product"):
        assert not hasattr(polytope, name)
    monkeypatch.setattr(numeration, "enumerate_admissible", refuse)
    a = (5,) * 10
    assert convexity_report(a) == {
        "dimension": 10,
        "generators": sum(cf_value(a).as_integer_ratio()),
        "box": 6**10,
        "violations": [],
    }


def test_broken_inequality_fails_the_check_naming_the_expansion(monkeypatch):
    # convexity_report reads its rows from `inequalities`
    rows_of = polytope.inequalities

    def broken(a):
        rows = rows_of(a)
        if tuple(a) == (2, 2, 2):
            y, t = rows[-1]
            rows[-1] = (y, t + 1)  # now lets (1, 0) through at i = 2
        return rows

    monkeypatch.setattr(polytope, "inequalities", broken)
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c[0] == "lattice convexity"])
    passed, rows = verify.run_checks("desk")
    assert passed is False
    assert rows[0][:2] == ("lattice convexity", False)
    assert "(2, 2, 2)" in rows[0][2]
