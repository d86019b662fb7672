"""Convex hull of the admissible vectors, over exact integer arithmetic.

The admissible vectors of an expansion a span a polytope in [0,a_0] x
... x [0,a_{k-1}] whose lattice points are exactly the admissible
vectors, and the B-filled/B-empty split is cut out by one open half
space.  Decisions are made without floating point: membership of a
point in the hull is settled by Fourier-Motzkin elimination on the
separating-functional system {y.(c - p) > 0 for all generators p},
which is feasible iff c lies outside.  All vectors stay integral, so no
denominators ever appear.
"""

from itertools import product
from math import gcd

from .cf import check_cf
from .numeration import enumerate_admissible, partition

__all__ = [
    "HullSystem",
    "in_hull",
    "halfspace",
    "separates",
    "convexity_report",
    "verify_lattice_convexity",
    "verify_halfspace_split",
]


class HullSystem:
    """Generator points of a hull, kept as exact integer vectors."""

    __slots__ = ("points", "dim", "_point_set")

    def __init__(self, points):
        self.points = tuple(tuple(int(x) for x in p) for p in points)
        if not self.points:
            raise ValueError("no generators")
        self.dim = len(self.points[0])
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("mixed dimensions")
        self._point_set = frozenset(self.points)

    @classmethod
    def of_expansion(cls, a):
        return cls(enumerate_admissible(check_cf(a)))


def _normalize(d):
    """Divide an integer vector by the gcd of its entries; None if zero."""
    g = 0
    for x in d:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in d)


def _fm_feasible(vectors, dim):
    """Whether some y solves y.d > 0 for every d (strict, homogeneous).

    Eliminates one coordinate at a time, combining each positive-
    coefficient row with each negative one; a zero row at any point is
    the contradiction 0 > 0.
    """
    system = set()
    for d in vectors:
        d = _normalize(d)
        if d is None:
            return False
        system.add(d)
    remaining = list(range(dim))
    while remaining and system:
        j = min(
            remaining,
            key=lambda jj: sum(d[jj] > 0 for d in system) * sum(d[jj] < 0 for d in system),
        )
        pos = [d for d in system if d[j] > 0]
        neg = [d for d in system if d[j] < 0]
        nxt = set(d for d in system if d[j] == 0)
        for p in pos:
            for n in neg:
                e = _normalize(
                    tuple(pi * -n[j] + ni * p[j] for pi, ni in zip(p, n))
                )
                if e is None:
                    return False
                nxt.add(e)
        system = nxt
        remaining.remove(j)
    return True


def in_hull(c, hull):
    """Exact test for c in conv(generators): c is outside iff a strictly
    separating functional exists, which Fourier-Motzkin decides.

    >>> h = HullSystem.of_expansion((0, 1, 3, 1))
    >>> in_hull((0, 0, 0, 1), h)
    False
    >>> in_hull((1, 1), HullSystem([(0, 0), (2, 0), (0, 2), (2, 2)]))
    True
    """
    c = tuple(int(x) for x in c)
    if c in hull._point_set:
        return True
    return not _fm_feasible([tuple(ci - pi for ci, pi in zip(c, p)) for p in hull.points], hull.dim)


def separates(y, c, points):
    """Whether the functional y puts c strictly above every point."""
    cut = sum(yi * ci for yi, ci in zip(y, c))
    return all(sum(yi * pi for yi, pi in zip(y, p)) < cut for p in points)


def _violation_certificate(c, a):
    """For a box point breaking an admissibility rule, the functional
    that the broken rule suggests as a separator (still verified by the
    caller, never trusted)."""
    k = len(a)
    for i in range(1, k):
        if i % 2 == 1 and c[i] == a[i] and c[i - 1] < a[i - 1]:
            y = [0] * k
            y[i] = a[i - 1]
            y[i - 1] = -1
            return tuple(y)
        if i % 2 == 0 and c[i] == 0 and c[i - 1] > 0:
            y = [0] * k
            y[i] = -a[i - 1]
            y[i - 1] = 1
            return tuple(y)
    return None


def convexity_report(a):
    """Scan the whole bounding box and report any lattice point where
    hull membership and admissibility disagree."""
    a = check_cf(a)
    hull = HullSystem.of_expansion(a)
    violations = []
    box = 1
    for ai in a:
        box *= ai + 1
    for c in product(*(range(ai + 1) for ai in a)):
        if c in hull._point_set:
            continue
        y = _violation_certificate(c, a)
        if y is not None and separates(y, c, hull.points):
            continue
        if in_hull(c, hull):
            violations.append(c)
    return {
        "dimension": hull.dim,
        "generators": len(hull.points),
        "box": box,
        "violations": violations,
    }


def verify_lattice_convexity(a):
    """True iff the lattice points of the hull are exactly the
    admissible vectors.

    >>> verify_lattice_convexity((0, 1, 3, 1))
    True
    >>> verify_lattice_convexity((2, 2, 2))
    True
    """
    return not convexity_report(a)["violations"]


def halfspace(a):
    """(normal y, bound t) of the open half space {y.x < t} that holds
    the empty part of the partition: {x_0 < 1} when a_0 > 0, {x_1 < a_1}
    when a_0 = 0."""
    a = check_cf(a)
    y = [0] * len(a)
    if a[0] > 0:
        y[0] = 1
        t = 1
    else:
        y[1] = 1
        t = a[1]
    return tuple(y), t


def verify_halfspace_split(a):
    """True iff the enumerated partition agrees elementwise with the
    half-space cut.

    >>> verify_halfspace_split((1, 1))
    True
    >>> verify_halfspace_split((2, 2, 2))
    True
    """
    filled, empty = partition(a)
    y, t = halfspace(a)

    def side(b):
        return sum(yi * bi for yi, bi in zip(y, b))

    return all(side(b) < t for b in empty) and all(side(b) >= t for b in filled)
