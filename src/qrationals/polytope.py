"""The digit polytope of an expansion, by its inequalities.

The admissible vectors B of an expansion a = (a_0, ..., a_{k-1}) are the
lattice points of the box [0, a_0] x ... x [0, a_{k-1}] that obey k - 1
rules, each on two consecutive digits.  Each rule is one linear
inequality (`inequalities`), and with the box they cut out a polytope P.
`convexity_report` certifies every inequality on its two-digit grid: the
pairs the rule allows satisfy it and the others break it.  So
P ∩ Z^k = B, and conv(B) ∩ Z^k = B follows without listing B.  The
B-filled/B-empty split is cut out by one open half space (`halfspace`),
certified on the one digit it reads.  Everything is exact integer
arithmetic.
"""

from math import prod

from .cf import check_cf, convergents
from .numeration import _filled, _rule_holds

__all__ = [
    "halfspace",
    "inequalities",
    "convexity_report",
    "verify_halfspace_split",
]


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
    p, q = convergents(a)
    return {
        "dimension": len(a),
        "generators": p[-1] + q[-1],  # r_k
        "box": prod(ai + 1 for ai in a),
        "violations": [],
    }


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
    normal, wrong = _halfspace_misses(check_cf(a))
    return not any(normal) and not wrong


def _halfspace_misses(a):
    """The two findings of the certificate, which holds iff the first has
    no nonzero entry and the second is empty: the normal's entries past
    its first nonzero one, b_j's, and the values of b_j in 0..a_j that the
    cut puts on the wrong side."""
    y, t = halfspace(a)
    j = next(i for i, yi in enumerate(y) if yi)
    digits = [0] * len(a)
    wrong = []
    for u in range(a[j] + 1):
        digits[j] = u
        if (y[j] * u < t) == _filled(digits, a):
            wrong.append(u)
    return y[j + 1:], wrong
