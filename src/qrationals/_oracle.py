"""Independent references that `verify` and the tests hold the production paths against.

Nothing in the production modules imports this module; only `verify` and
the tests do.  It holds reference values only, never a verdict: each
reference computes a result the slow and obvious way, and the claims that
compare it with a fast path live in `verify` and the tests.

* the Mat2 products: 2x2 matrices of polynomials (`Mat2`), multiplied
  out entry by entry, for the q-deformed elementary matrices
  L_q = [[q, 0], [q, 1]] and R_q = [[q, 1], [0, 1]] (`mat2_product_vector`,
  `matrix_q_rational`), the monoid maps `nu_q` and `mu_q`, and the pair
  (X, Y) that `nu_q` gives (`xy_pair`);
* the matching-to-ideal map by its one-cell recursion (`phi_by_pop`);
* a matching's side by its first cell (`first_cell_perp`);
* the digit model's split of its reference listing into the filled and
  the empty vectors (`partition`);
* lattice convexity of the digit polytope by a scan of the whole box
  (`box_scan_report`), with exact convex-hull membership decided by
  Fourier-Motzkin elimination (`in_hull`).

Division by q (`Poly.shift(-1)`) raises ValueError on a nonzero constant
term, so a product that q does not divide fails loudly.
"""

from itertools import product
from math import gcd

from .cf import check_cf
from .numeration import _filled, enumerate_admissible
from .polytope import inequalities
from .qpoly import ONE, Q, ZERO, Poly, QRational
from .words import check_word


def times(p, r):
    """The product of two polynomials, term by term: Mat2's entry product."""
    data = [0] * (len(p.dense) + len(r.dense) - 1)
    for e1, c1 in enumerate(p.dense):
        for e2, c2 in enumerate(r.dense):
            data[e1 + e2] += c1 * c2
    return Poly(data)


class Mat2:
    """2x2 matrix of Poly entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(ONE, ZERO, ZERO, ONE)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __mul__(self, other):
        return Mat2(
            times(self.a, other.a) + times(self.b, other.c),
            times(self.a, other.b) + times(self.b, other.d),
            times(self.c, other.a) + times(self.d, other.c),
            times(self.c, other.b) + times(self.d, other.d),
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power %d of a Mat2" % n)
        out = Mat2.identity()
        for _ in range(n):
            out = out * self
        return out

    def apply(self, v):
        """Matrix times column vector (pair of Poly)."""
        x, y = v
        return (times(self.a, x) + times(self.b, y), times(self.c, x) + times(self.d, y))

    def transpose(self):
        return Mat2(self.a, self.c, self.b, self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "Mat2[[%s, %s], [%s, %s]]" % self.entries()


def L_q():
    return Mat2(Q, ZERO, Q, ONE)


def R_q():
    return Mat2(Q, ONE, ZERO, ONE)


def nu_q(w):
    """Monoid homomorphism 0 -> L_q, 1 -> R_q."""
    check_word(w)
    out = Mat2.identity()
    for c in w:
        out = out * (L_q() if c == "0" else R_q())
    return out


_MU0_ENTRIES = (Poly((0, 1, 1)), ONE, Q, ONE)
_MU1_ENTRIES = (Poly((0, 1, 2, 1, 1)), Poly((1, 1)), Poly((0, 1, 1)), ONE)


def mu_q(w):
    """Monoid homomorphism with mu_q(0) = R_q L_q, mu_q(1) = R_q^2 L_q^2.

    Coded from the displayed single-letter matrices, independently of
    nu_q; the identity mu_q(w) == nu_q(gamma_prime(w)) is a test.
    """
    check_word(w)
    out = Mat2.identity()
    for c in w:
        out = out * Mat2(*(_MU0_ENTRIES if c == "0" else _MU1_ENTRIES))
    return out


def mat2_product_vector(a, v):
    """R_q^{a_0} L_q^{a_1} R_q^{a_2} ... applied to the pair v of Poly, one
    Mat2 factor at a time from the right: the oracle that q_rational,
    theorem_pair and q_markoff are checked against."""
    for i in range(len(a) - 1, -1, -1):
        m = R_q() if i % 2 == 0 else L_q()
        for _ in range(a[i]):
            v = m.apply(v)
    return v


def matrix_q_rational(a):
    """q^-1 R_q^{a_0} ... L_q^{a_{2l-1}} (1,0)^T by the Mat2 product."""
    v1, v2 = mat2_product_vector(a, (ONE, ZERO))
    return QRational(v1.shift(-1), v2.shift(-1))


def xy_pair(w):
    """(X(w), Y(w)) = diag(1,q)^-1 nu_q(w) (q, q)^T."""
    v1, v2 = nu_q(w).apply((Q, Q))
    return v1, v2.shift(-1)


_UNIT_SQUARE = frozenset({((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 0), (0, 1))})
_UNIT_VERTICALS = frozenset({((0, 0), (0, 1)), ((1, 0), (1, 1))})


def _pop_first_cell(m, letter):
    """Erase the first cell from a matching given as an edge set, and
    translate the rest back to the origin."""
    uh = ((0, 0), (1, 0))
    uv = ((0, 0), (0, 1))
    if letter == "0":
        out = m - {uv} if uv in m else (m ^ _UNIT_SQUARE) - {uv}
        dx, dy = -1, 0
    else:
        out = m - {uh} if uh in m else (m ^ _UNIT_SQUARE) - {uh}
        dx, dy = 0, -1
    return frozenset(
        (((x1 + dx, y1 + dy), (x2 + dx, y2 + dy))) for (x1, y1), (x2, y2) in out
    )


def phi_by_pop(m, word):
    """Ideal of a matching by the one-cell recursion: record whether the
    matching is perpendicular, pop the first cell, shift the rest up."""
    if not word:
        return 0 if m == _UNIT_VERTICALS else 1
    rest = phi_by_pop(_pop_first_cell(m, word[0]), word[1:])
    return rest << 1 | first_cell_perp(((0, 0), (1, 0)) in m, word)


def first_cell_perp(horizontal, word):
    """The side of a matching of the snake of `word`, read off its first
    cell: perpendicular iff it holds the cell's bottom edge ((0, 0), (1, 0))
    exactly when the word has even length."""
    return horizontal == (len(word) % 2 == 0)


def partition(a):
    """(filled, empty) sublists of `enumerate_admissible(a)`, order kept:
    the reference lister's split, which the digit statistics are held against.

    >>> [len(part) for part in partition((0, 1, 3, 1))]
    [4, 5]
    >>> [len(part) for part in partition((0, 2))]
    [1, 2]
    """
    a = check_cf(a)
    filled, empty = [], []
    for b in enumerate_admissible(a):
        (filled if _filled(b, a) else empty).append(b)
    return filled, empty


class HullSystem:
    """Generator points of a hull, kept as exact integer vectors."""

    __slots__ = ("points", "dim", "_point_set")

    def __init__(self, points):
        self.points = tuple(tuple(map(int, p)) for p in points)
        if not self.points:
            raise ValueError("no generators")
        self.dim = len(self.points[0])
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("mixed dimensions")
        self._point_set = frozenset(self.points)

    @classmethod
    def of_expansion(cls, a):
        """The hull of the admissible vectors of a; enumerate_admissible
        checks a."""
        return cls(enumerate_admissible(a))


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
    c = tuple(map(int, c))
    if c in hull._point_set:
        return True
    return not _fm_feasible([tuple(ci - pi for ci, pi in zip(c, p)) for p in hull.points], hull.dim)


def dot(y, x):
    return sum(yi * xi for yi, xi in zip(y, x))


def _first_broken(c, rows):
    """(i, y.c) for the first row (y, t) of `inequalities` with y.c > t,
    read on the two digits i and i + 1 that row i weighs; (None, None)
    when c breaks none."""
    for i, (y, t) in enumerate(rows):
        value = y[i] * c[i] + y[i + 1] * c[i + 1]
        if value > t:
            return i, value
    return None, None


def _row_maxima(rows, hull):
    """max y.p over the generators p, for each row (y, t) of `inequalities`:
    row i must weigh digits i and i + 1 alone (ValueError otherwise), so
    its maximum is taken over the distinct digit pairs (p_i, p_{i+1}) of
    the generators."""
    tops = []
    for i, (y, _) in enumerate(rows):
        if any(y[:i]) or any(y[i + 2:]):
            raise ValueError("row %d weighs digits other than %d and %d: %s" % (i, i, i + 1, y))
        tops.append(max(y[i] * u + y[i + 1] * v for u, v in {p[i:i + 2] for p in hull.points}))
    return tops


def box_scan_report(a, points):
    """Oracle for `polytope.convexity_report`: scan the whole bounding box
    and report every lattice point outside B that lies in conv(B), where
    `points` is B as `enumerate_admissible(a)` lists it.

    A point outside B is ruled out by the first row (y, t) of
    `inequalities(a)` it breaks when y puts it strictly above every
    generator, that is above the row's maximum over the listed generators:
    the row is tested as a separator against B, never trusted.  Any other
    point goes to Fourier-Motzkin."""
    a = check_cf(a)
    rows = inequalities(a)
    hull = HullSystem(points)
    tops = _row_maxima(rows, hull)
    box = 0
    violations = []
    for c in product(*(range(ai + 1) for ai in a)):
        box += 1
        if c in hull._point_set:
            continue
        i, value = _first_broken(c, rows)
        if i is not None and value > tops[i]:
            continue
        if in_hull(c, hull):
            violations.append(c)
    return {
        "dimension": hull.dim,
        "generators": len(hull.points),
        "box": box,
        "violations": violations,
    }
