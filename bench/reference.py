"""Reference arithmetic for the output checks, independent of qrationals.

Everything here is integer arithmetic written from the definitions: the
word codec W(a) = 1^{a_0} 0^{a_1} ... 0^{a_{2l-1}-1}, the q-deformed
elementary matrices R_q = [[q, 1], [0, 1]] and L_q = [[q, 0], [q, 1]]
evaluated at an integer q, Christoffel words, and a parser for the
printed polynomials.  The benchmark uses it to generate inputs and to
check the package's outputs without calling the package.
"""

import re
from fractions import Fraction
from math import gcd


def runs(w):
    """Maximal runs of w as (letter, length) pairs."""
    out = []
    for c in w:
        if out and out[-1][0] == c:
            out[-1][1] += 1
        else:
            out.append([c, 1])
    return [(c, n) for c, n in out]


def cf_of_word(w):
    """The even-length expansion a with W(a) = w."""
    if not w:
        return (0, 1)
    a = [0] if w[0] == "0" else []
    a.extend(n for _, n in runs(w))
    if w[-1] == "1":
        a.append(1)
    else:
        a[-1] += 1
    return tuple(a)


def word_of(a):
    """W(a) of an even-length expansion."""
    return "".join(("1" if i % 2 == 0 else "0") * (ai - (i == len(a) - 1)) for i, ai in enumerate(a))


def cf_of_fraction(p, q):
    """The even-length expansion of p/q."""
    a = []
    while q:
        a.append(p // q)
        p, q = q, p % q
    if len(a) % 2:
        a = a[:-2] + [a[-2] + 1] if a[-1] == 1 and len(a) > 1 else a[:-1] + [a[-1] - 1, 1]
    return tuple(a)


def fraction_of_cf(a):
    """(p, q) with p/q = [a_0; a_1, ..., a_{k-1}], in lowest terms."""
    p0, p1, q0, q1 = 1, a[0], 0, 1
    for x in a[1:]:
        p0, p1 = p1, x * p1 + p0
        q0, q1 = q1, x * q1 + q0
    return p1, q1


def cf_text(a):
    return "[%d;%s]" % (a[0], ",".join(str(x) for x in a[1:])) if len(a) > 1 else "[%d]" % a[0]


def theta(w):
    """Flip the letters at even distance from the right end."""
    n = len(w)
    return "".join(c if (n - 1 - i) % 2 else "10"[int(c)] for i, c in enumerate(w))


def gamma(w):
    return "".join("00" if c == "0" else "0110" for c in w)


def christoffel(p, q):
    """Lower Christoffel word with p zeros and q ones."""
    n = p + q
    return "".join("1" if (i + 1) * q // n - i * q // n else "0" for i in range(n))


def christoffel_words(min_len, max_len):
    """Every lower Christoffel word with min_len..max_len letters, two or more."""
    out = []
    for n in range(max(min_len, 2), max_len + 1):
        out.extend(christoffel(p, n - p) for p in range(1, n) if gcd(p, n - p) == 1)
    return out


def expansions(k_max, sum_max):
    """Every expansion (a_0 >= 0, later a_i >= 1) with at most k_max
    partial quotients summing to at most sum_max, except (0,)."""
    out = []

    def grow(prefix, total):
        if prefix and prefix != (0,):
            out.append(prefix)
        if len(prefix) < k_max:
            for ai in range(0 if not prefix else 1, sum_max - total + 1):
                grow(prefix + (ai,), total + ai)

    grow((), 0)
    return out


def is_ideal_mask(mask, w):
    """Whether the bitmask is a lower set of the fence of w (rising on 1)."""
    for k, letter in enumerate(w, start=1):
        lo, up = (k - 1, k) if letter == "1" else (k, k - 1)
        if mask >> up & 1 and not mask >> lo & 1:
            return False
    return True


def _mat_mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _r(q):
    return (q, 1, 0, 1)


def _l(q):
    return (q, 0, q, 1)


def product_vector(a, q):
    """R_q^{a_0} L_q^{a_1} ... L_q^{a_{k-1}} applied to (1, 0), at integer q."""
    x, y = 1, 0
    for i in range(len(a) - 1, -1, -1):
        m = _r(q) if i % 2 == 0 else _l(q)
        for _ in range(a[i]):
            x, y = m[0] * x + m[1] * y, m[2] * x + m[3] * y
    return x, y


def q_pair_at(a, q):
    """(R(q), S(q)) of the q-rational with even expansion a, at integer q > 0."""
    x, y = product_vector(a, q)
    if x % q or y % q:
        raise ValueError("product vector at q=%d not divisible by q" % q)
    return x // q, y // q


def _add(u, v):
    if len(u) < len(v):
        u, v = v, u
    return [c + (v[i] if i < len(v) else 0) for i, c in enumerate(u)]


def theorem_pair(a):
    """(q R(q), S(q)) as {exponent: coefficient} maps: the product vector
    R_q^{a_0} ... L_q^{a_{k-1}} (1, 0) on dense coefficient lists, with
    its second entry divided by q."""
    x, y = [1], [0]
    for i in range(len(a) - 1, -1, -1):
        for _ in range(a[i]):
            if i % 2 == 0:
                x = _add([0] + x, y)
            else:
                x = [0] + x
                y = _add(x, y)
    if y[0]:
        raise ValueError("second entry of the product vector not divisible by q")
    return (
        {e: c for e, c in enumerate(x) if c},
        {e - 1: c for e, c in enumerate(y) if c},
    )


def mu_at(w, q):
    """Product over w of 0 -> R_q L_q and 1 -> R_q^2 L_q^2, at integer q."""
    rl = _mat_mul(_r(q), _l(q))
    rrll = _mat_mul(_mat_mul(_r(q), _r(q)), _mat_mul(_l(q), _l(q)))
    m = (1, 0, 0, 1)
    for c in w:
        m = _mat_mul(m, rl if c == "0" else rrll)
    return m


def markoff_number(w):
    return mu_at(w, 1)[1]


def val(b, a):
    """Alternating valuation sum (-1)^i b_i r_i with r_{i} = a_{i-1} r_{i-1} + r_{i-2}."""
    r = [1, 1]
    for x in a:
        r.append(x * r[-1] + r[-2])
    return sum((-1) ** i * bi * r[i + 1] for i, bi in enumerate(b))


def random_admissible(rng, a):
    """A random digit vector obeying the admissibility rules, drawn
    most-significant digit first so that the rules can force b_{i-1}."""
    k = len(a)
    b = [0] * k
    forced = None
    for i in range(k - 1, -1, -1):
        b[i] = forced if forced is not None else rng.randint(0, a[i])
        forced = None
        if i and i % 2 == 1 and b[i] == a[i]:
            forced = a[i - 1]
        elif i and i % 2 == 0 and b[i] == 0:
            forced = 0
    return tuple(b)


def z_interval(a):
    r = [1, 1]
    for x in a:
        r.append(x * r[-1] + r[-2])
    k = len(a)
    return (0, r[k + 1]) if k % 2 else (r[k] - r[k + 1], r[k])


_TERM = re.compile(r"([+-]?)(\d*)\*?(q(?:\^(-?\d+))?)?")


def parse_poly(text):
    """{exponent: coefficient} of a printed polynomial such as
    '2q^3-q+1', '2*q^3+1' or 'q^-1'."""
    coeffs = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError("cannot parse polynomial %r at %d" % (text, pos))
        c = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            c = -c
        e = 0
        if m.group(3):
            e = int(m.group(4)) if m.group(4) else 1
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    return {e: c for e, c in coeffs.items() if c}


def parse_fraction_str(text):
    """(numerator, denominator) coefficient maps of 'A/B' or '(A)/(B)'."""
    num, den = text.split("/")
    return parse_poly(num.strip("()")), parse_poly(den.strip("()"))


def evaluate(coeffs, q):
    """Value of an {exponent: coefficient} map at integer q (exact)."""
    if all(e >= 0 for e in coeffs):
        return sum(c * q**e for e, c in coeffs.items())
    return sum(c * Fraction(q) ** e for e, c in coeffs.items())
