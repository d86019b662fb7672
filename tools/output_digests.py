"""One sha256 per family of command-line calls, to compare the output bytes
of two checkouts.

    python tools/output_digests.py [--bound N]

Each line is a family, the number of calls in it and a sha256 over, for
each call in turn, its argv, exit code, stdout and stderr, as
`qrationals.cli.main(argv)` gives them in this process.  The package is
imported from the `src` next to this script, so a copy of the script in
another checkout digests that checkout; a line that differs between two
runs names the family whose bytes changed.

The families cover every subcommand but `verify`, in each format it
takes: `qrat`, `enum` (each family, listed and counted), `render`,
`table`, `rep` and `val` on every reduced r/s with r + s <= N (60 by
default), `rep` on each n of the expansion's interval and one past
either end, `val` on each admissible vector; `tree sb|cw` at depths
0-12; `markoff --upto` on a fixed set of bounds; `markoff --word`, with
and without `--table`, on every Christoffel word of at most 8 letters;
and one fixed set of refusals.  Stdlib only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qrationals import cli  # noqa: E402
from qrationals.cf import cf_even, cf_str  # noqa: E402
from qrationals.numeration import enumerate_admissible, z_interval  # noqa: E402
from qrationals.words import all_words, is_christoffel  # noqa: E402

REFUSALS = (
    [],
    ["bogus"],
    ["qrat"],
    ["qrat", "0"],
    ["qrat", "-1/2"],
    ["qrat", "1/0"],
    ["qrat", "abc"],
    ["qrat", "7" * 50 + "x"],
    ["qrat", "1/2002"],
    ["qrat", "2/3", "--format", "xml"],
    ["rep", "3", "--cf", "[2;2,0]"],
    ["rep", "x", "--cf", "[2;2,2]"],
    ["rep", "3", "--cf", "2;2"],
    ["val", "1,a", "--cf", "[1;1]"],
    ["val", "0,1,0", "--cf", "[1;1]"],
    ["enum", "ideals", "1000/999"],
    ["enum", "trees", "2/3"],
    ["render", "snake", "2/3", "--format", "dot"],
    ["table", "1/2002"],
    ["markoff"],
    ["markoff", "--upto", "5", "--table"],
    ["markoff", "--upto", "5", "--word", "0"],
    ["markoff", "--upto", "1" + "0" * 200],
    ["markoff", "--word", "0110"],
    ["markoff", "--word", "012"],
    ["markoff", "--word", "0" * 2001],
    ["tree", "sb", "--depth", "-1"],
    ["tree", "cw", "--depth", "17"],
    ["tree", "xy", "--depth", "2"],
    ["verify", "--level", "bogus"],
)


def rationals(bound):
    """(r, s) of every reduced r/s with r + s <= bound."""
    return [(r, t - r) for t in range(2, bound + 1) for r in range(1, t) if gcd(r, t - r) == 1]


def families(bound):
    """{family: [argv, ...]}, in print order: each family that takes
    `--format text|json` once per format, then `render` and the refusals."""
    pairs = rationals(bound)
    texts = ["%d/%d" % rs for rs in pairs]
    expansions = [cf_even(Fraction(*rs)) for rs in pairs]
    christoffel = [w for w in all_words(8) if w and is_christoffel(w)]
    formatted = {
        "qrat R": [["qrat", x] for x in texts],
        "qrat R --shift-check": [["qrat", x, "--shift-check"] for x in texts],
        "table R": [["table", x] for x in texts],
        "rep N --cf A": [
            ["rep", str(n), "--cf", cf_str(a)] for a in expansions for lo, hi in [z_interval(a)] for n in range(lo - 1, hi + 1)
        ],
        "val B --cf A": [["val", ",".join(map(str, b)), "--cf", cf_str(a)] for a in expansions for b in enumerate_admissible(a)],
        "markoff --upto M": [["markoff", "--upto", str(m)] for m in (*range(40), *(10**k for k in range(2, 31)))],
        "markoff --word W": [["markoff", "--word", w] for w in christoffel],
        "markoff --word W --table": [["markoff", "--word", w, "--table"] for w in christoffel],
    }
    for family in ("admissible", "ideals", "matchings"):
        formatted["enum %s R" % family] = [["enum", family, x] for x in texts]
        formatted["enum %s R --count" % family] = [["enum", family, x, "--count"] for x in texts]
    for kind in ("sb", "cw"):
        formatted["tree %s --depth D" % kind] = [["tree", kind, "--depth", str(d)] for d in range(13)]
    out = {}
    for fmt in ("text", "json"):
        for name, argvs in formatted.items():
            out["%s --format %s" % (name, fmt)] = [argv + ["--format", fmt] for argv in argvs]
    for shape, formats in (("fence", ("svg", "dot")), ("snake", ("svg",))):
        for fmt in formats:
            out["render %s R --format %s" % (shape, fmt)] = [["render", shape, x, "--format", fmt] for x in texts]
    out["refusals"] = list(REFUSALS)
    return out


def call(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on the argv it refuses
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest_lines(bound):
    """One "family<TAB>calls<TAB>sha256" line per family."""
    lines = []
    for family, argvs in families(bound).items():
        h = hashlib.sha256()
        for argv in argvs:
            h.update(repr((argv, *call(argv))).encode())
        lines.append("%s\t%d\t%s" % (family, len(argvs), h.hexdigest()))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=60, help="largest r + s of the per-rational calls")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width
    for line in digest_lines(args.bound):
        print(line)


if __name__ == "__main__":
    main()
