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
inequalities; a box scan with Fourier-Motzkin hull membership is its
oracle.  `cli`/`verify` expose everything as a command line tool with a
re-derivation harness.
"""

__version__ = "0.1.0"
