"""The digit polytope of an expansion, by its inequalities.

The admissible vectors B of an expansion a = (a_0, ..., a_{k-1}) are the
lattice points of the box [0, a_0] x ... x [0, a_{k-1}] that obey k - 1
rules, each on two consecutive digits.  Each rule is one linear
inequality (`inequalities`), and with the box they cut out a polytope P.
`convexity_report` certifies every inequality on its two-digit grid: the
pairs the rule allows satisfy it and the others break it.  So
P ∩ Z^k = B, and conv(B) ∩ Z^k = B follows without listing B.  The
B-filled/B-empty split is cut out by one open half space (`halfspace`),
certified on the one digit it reads.

The oracle is the hull itself: `_box_scan_report` scans every box point
and settles its membership in conv(B) by Fourier-Motzkin elimination
(`in_hull`) on the separating-functional system {y.(c - p) > 0 for all
generators p}, which is feasible iff c lies outside.  Only `verify` and
the tests call it.  Everything is exact integer arithmetic.
"""

from itertools import product
from math import gcd, prod

from .cf import check_cf, r_sequence
from .numeration import _filled, _rule_holds, enumerate_admissible

__all__ = [
    "HullSystem",
    "in_hull",
    "halfspace",
    "separates",
    "inequalities",
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


def _dot(y, x):
    return sum(yi * xi for yi, xi in zip(y, x))


def separates(y, c, points):
    """Whether the functional y puts c strictly above every point."""
    cut = _dot(y, c)
    return all(_dot(y, p) < cut for p in points)


def inequalities(a):
    """The rows (y, t), meaning y.x <= t, of the admissibility rules
    i = 1..k-1; with the box 0 <= x_i <= a_i they cut out P.

    Odd i: a_{i-1} x_i - x_{i-1} <= a_{i-1} (a_i - 1), so x_i = a_i
    forces x_{i-1} = a_{i-1}.  Even i: x_{i-1} - a_{i-1} x_i <= 0, so
    x_i = 0 forces x_{i-1} = 0.

    >>> inequalities((2, 2, 2))
    [((-1, 2, 0), 2), ((0, 1, -2), 0)]
    """
    a = check_cf(a)
    rows = []
    for i in range(1, len(a)):
        y = [0] * len(a)
        if i % 2 == 1:
            y[i - 1], y[i] = -1, a[i - 1]
            rows.append((tuple(y), a[i - 1] * (a[i] - 1)))
        else:
            y[i - 1], y[i] = 1, -a[i - 1]
            rows.append((tuple(y), 0))
    return rows


def convexity_report(a):
    """Lattice convexity of B, read off the inequalities of P.

    Each row is certified on its (a_{i-1} + 1)(a_i + 1) grid of digit
    pairs: it holds exactly on the pairs that rule i allows.  Then
    B ⊆ P and P ∩ Z^k = B, so conv(B) has no lattice point outside B and
    `violations` is empty.  A row that fails its certificate raises
    ValueError naming a, i and the pair.  No vector is listed and no box
    point visited.

    >>> convexity_report((0, 1, 3, 1))
    {'dimension': 4, 'generators': 9, 'box': 16, 'violations': []}
    """
    a = check_cf(a)
    for i, (y, t) in enumerate(inequalities(a), 1):
        for u in range(a[i - 1] + 1):
            for v in range(a[i] + 1):
                if (y[i - 1] * u + y[i] * v <= t) != _rule_holds(i, u, v, a):
                    raise ValueError(
                        "inequality %d of %s disagrees with rule %d on the digit pair %s"
                        % (i, a, i, (u, v))
                    )
    return {
        "dimension": len(a),
        "generators": r_sequence(a)[-1],
        "box": prod(ai + 1 for ai in a),
        "violations": [],
    }


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


def _box_scan_report(a):
    """Oracle for `convexity_report`: scan the whole bounding box and
    report every lattice point outside B that lies in conv(B).

    A point outside B is ruled out by the functional its broken rule
    suggests when y.c exceeds max_p y.p over the generators (which is
    `separates(y, c, points)`); that maximum is computed once per
    distinct y.  Any other point goes to Fourier-Motzkin."""
    a = check_cf(a)
    hull = HullSystem.of_expansion(a)
    tops = {}
    box = 0
    violations = []
    for c in product(*(range(ai + 1) for ai in a)):
        box += 1
        if c in hull._point_set:
            continue
        y = _violation_certificate(c, a)
        if y is not None:
            if y not in tops:
                tops[y] = max(_dot(y, p) for p in hull.points)
            if _dot(y, c) > tops[y]:
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
    """True iff the half-space cut holds exactly the B-empty vectors.

    The cut reads one digit, b_j, and so does the partition: b_0 when
    a_0 > 0, b_1 otherwise.  So the cut is certified against the
    partition's rule on the values 0..a_j of that digit, and no vector
    is listed.

    >>> verify_halfspace_split((1, 1))
    True
    >>> verify_halfspace_split((2, 2, 2))
    True
    """
    a = check_cf(a)
    y, t = halfspace(a)
    j = next(i for i, yi in enumerate(y) if yi)
    if any(y[j + 1:]):
        return False
    digits = [0] * len(a)
    for u in range(a[j] + 1):
        digits[j] = u
        if (y[j] * u < t) == _filled(digits, a):
            return False
    return True
