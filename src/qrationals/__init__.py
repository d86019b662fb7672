"""Exact arithmetic for q-deformed rationals and their combinatorics.

The package follows one chain of objects: a positive rational has an
even-length continued fraction expansion, the expansion encodes a binary
word, and the word drives four equivalent combinatorial models whose
statistics all produce the same pair of polynomials in q:

* admissible digit sequences for an alternating numeration system
  (`numeration`),
* order ideals of a fence poset (`fence`),
* perfect matchings of a snake graph (`snake`),
* the matrix product of the q-deformed elementary matrices (`qpoly`).

`markoff` specializes the machinery to Christoffel words and Markoff
numbers.  `polytope` writes the digit sequences' polytope as one
inequality per admissibility rule and reads lattice convexity off those
inequalities.  `cli`/`verify` expose everything as a command line tool
with a re-derivation harness; `verify` holds the production paths
against the brute-force oracles of the private module `_oracle` (the
Mat2 matrix product, the pop recursion for matchings, the split of the
listed digit vectors, and a box scan with Fourier-Motzkin hull
membership), which no production module imports.
"""

__version__ = "0.1.0"
