"""Command-line interface.

One subcommand per task: exact q-deformation of a rational, the
numeration codec in both directions, enumeration of the three
combinatorial families, SVG/dot rendering, the prefix/suffix table,
Markoff utilities, rational trees, and the verification harness.

Everything is deterministic; exit codes are 0 on success, 2 on a parse
or usage error or an output over its size limit, 3 when a verification
check fails.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import verify as _verify
from .cf import cf_even, cf_parse, cw_level, sb_level
from .fence import (
    enumerate_ideals,
    fence_of_rational,
    fence_to_dot,
    fence_to_svg,
    ideal_statistics,
)
from .markoff import markoff_numbers_upto, markoff_of, markoff_row
from .numeration import norm1_statistics, numeration_rows, rep, val
from .qpoly import q_rational, q_shift_identity_check
from .snake import (
    enumerate_matchings,
    matching_counts,
    matching_edges,
    prefix_suffix_table,
    snake_of_rational,
    snake_to_svg,
    snake_word,
)

__all__ = ["main"]

# `enum` without --count lists r + s objects of up to len(word) + 2
# elements each, and `tree --depth d` builds 2^d rationals; both grow
# exponentially with the input, so larger requests exit 2 before any work.
MAX_LISTED_ELEMENTS = 10**6
MAX_TREE_DEPTH = 16
# `qrat`, `enum --count`, `table` and `markoff --word --table` take time
# quadratic in the length of the word they work on: at 2,000 letters
# `qrat` on a Fibonacci ratio takes 0.6 s and `enum ideals --count`
# 0.34 s on a 2-core Xeon.  Longer words exit 2 before any work.
MAX_WORD_LENGTH = 2000


def _check_word_length(what, letters):
    if letters > MAX_WORD_LENGTH:
        raise ValueError(
            "%s has %d letters, over the limit of %d letters" % (what, letters, MAX_WORD_LENGTH)
        )


def _parse_rational(text):
    """A positive rational whose word is at most MAX_WORD_LENGTH letters."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            x = Fraction(int(num), int(den))
        else:
            x = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational: %r" % text)
    if x <= 0:
        raise ValueError("need a positive rational, got %s" % x)
    _check_word_length("the word of %s" % _frac_str(x), sum(cf_even(x)) - 1)
    return x


def _parse_digits(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("digits must be comma-separated integers: %r" % text)


def _frac_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _emit(args, payload):
    print(json.dumps(payload, indent=2))


def _cmd_qrat(args):
    x = _parse_rational(args.rational)
    qx = q_rational(x)
    if args.format == "json":
        payload = {"x": _frac_str(x)}
        payload.update(qx.to_json())
        if args.shift_check:
            payload["shift_check"] = q_shift_identity_check(x)
            if not payload["shift_check"]:
                _emit(args, payload)
                return 3
        _emit(args, payload)
        return 0
    print(qx.fraction_str())
    if args.shift_check:
        if not q_shift_identity_check(x):
            print("FAIL shift identity for %s" % _frac_str(x), file=sys.stderr)
            return 3
        print("shift-check ok")
    return 0


def _cmd_rep(args):
    a = cf_parse(args.cf)
    digits = rep(args.n, a)
    if args.format == "json":
        _emit(args, {"cf": list(a), "n": args.n, "digits": list(digits)})
        return 0
    print(",".join(str(d) for d in digits))
    return 0


def _cmd_val(args):
    a = cf_parse(args.cf)
    digits = _parse_digits(args.digits)
    n = val(digits, a)
    if args.format == "json":
        _emit(args, {"cf": list(a), "digits": list(digits), "n": n})
        return 0
    print(n)
    return 0


def _emit_count(args, labels, counts):
    """One count line, or JSON object, per half and their total."""
    (first, second), (m, n) = labels, counts
    if args.format == "json":
        _emit(args, {first: m, second: n, "total": m + n})
    else:
        print("%s=%d %s=%d total=%d" % (first, m, second, n, m + n))
    return 0


def _enum_admissible(args, x):
    a = cf_even(x)
    if args.count:
        counts = (p.eval_at_one() for p in norm1_statistics(a))
        return _emit_count(args, ("filled", "empty"), counts)
    rows = numeration_rows(a)
    if args.format == "json":
        _emit(args, {"cf": list(a), "rows": [[n, list(b)] for n, b in rows]})
        return 0
    for n, b in rows:
        print("%d\t%s" % (n, ",".join(str(d) for d in b)))
    return 0


def _enum_ideals(args, x):
    fence = fence_of_rational(x)
    if args.count:
        counts = (p.eval_at_one() for p in ideal_statistics(fence))
        return _emit_count(args, ("filled", "empty"), counts)
    elements = [[i for i in range(fence.size) if m >> i & 1] for m in enumerate_ideals(fence)]
    if args.format == "json":
        _emit(args, {"x": _frac_str(x), "ideals": elements})
        return 0
    for ideal in elements:
        print("{%s}" % ",".join(str(i) for i in ideal))
    return 0


def _enum_matchings(args, x):
    if args.count:
        return _emit_count(args, ("perp", "par"), matching_counts(snake_word(x)))
    g = snake_of_rational(x)
    rows = [
        {
            "class": g.classify(m),
            "area": g.area(m),
            "edges": matching_edges(g, m),
        }
        for m in enumerate_matchings(g)
    ]
    if args.format == "json":
        for row in rows:
            row["edges"] = [[list(u), list(v)] for u, v in row["edges"]]
        _emit(args, {"x": _frac_str(x), "matchings": rows})
        return 0
    for row in rows:
        edges = ",".join("(%d,%d)-(%d,%d)" % (u + v) for u, v in row["edges"])
        print("class=%s area=%d edges=%s" % (row["class"], row["area"], edges))
    return 0


def _cmd_enum(args):
    x = _parse_rational(args.rational)
    objects, length = x.numerator + x.denominator, sum(cf_even(x)) + 1
    if not args.count and objects * length > MAX_LISTED_ELEMENTS:
        raise ValueError(
            "enum %s %s would list %d objects of up to %d elements, over the "
            "limit of %d elements; use --count"
            % (args.family, _frac_str(x), objects, length, MAX_LISTED_ELEMENTS)
        )
    handler = {
        "admissible": _enum_admissible,
        "ideals": _enum_ideals,
        "matchings": _enum_matchings,
    }[args.family]
    return handler(args, x)


def _cmd_render(args):
    x = _parse_rational(args.rational)
    fmt = args.format or "svg"
    if args.shape == "fence":
        fence = fence_of_rational(x)
        if fmt == "svg":
            print(fence_to_svg(fence))
            return 0
        if fmt == "dot":
            print(fence_to_dot(fence))
            return 0
        raise ValueError("render supports svg or dot, not %r" % fmt)
    if fmt == "svg":
        print(snake_to_svg(snake_of_rational(x)))
        return 0
    raise ValueError("snake graphs render as svg only, not %r" % fmt)


def _cmd_table(args):
    x = _parse_rational(args.rational)
    table = prefix_suffix_table(x)
    if args.format == "json":
        _emit(
            args,
            {
                "word": table["word"],
                "prefixes": [list(p) for p in table["prefixes"]],
                "suffixes": [list(p) for p in table["suffixes"]],
            },
        )
        return 0
    print("word\t%s" % table["word"])
    print("len\tprefix_perp\tprefix_par\tsuffix_perp\tsuffix_par")
    for j, (pre, suf) in enumerate(zip(table["prefixes"], table["suffixes"])):
        print("%d\t%d\t%d\t%d\t%d" % (j, pre[0], pre[1], suf[0], suf[1]))
    return 0


def _cmd_markoff(args):
    if args.upto is not None:
        numbers = markoff_numbers_upto(args.upto)
        if args.table:
            raise ValueError("--table needs --word")
        if args.format == "json":
            _emit(args, {"bound": args.upto, "numbers": numbers})
        else:
            print(",".join(str(m) for m in numbers))
        return 0
    if not args.table:
        number = markoff_of(args.word)
        if args.format == "json":
            _emit(args, {"word": args.word, "number": number})
        else:
            print(number)
        return 0
    if len(args.word) >= 2:
        # the snake word is 0 gamma(inner) 0, and gamma sends 0 to 00 and 1 to 0110
        inner = args.word[1:-1]
        _check_word_length("the snake word of %s" % args.word, 2 + 2 * len(inner) + 2 * inner.count("1"))
    row = markoff_row(args.word)
    if args.format == "json":
        payload = dict(row)
        payload["q_polynomial"] = row["q_polynomial"].to_json()
        _emit(args, payload)
        return 0
    print("word\tnumber\tq_polynomial\tsnake_word\tmatching_count")
    print(
        "%s\t%d\t%s\t%s\t%s"
        % (
            row["word"],
            row["number"],
            row["q_polynomial"].compact(),
            row["snake_word"] if row["snake_word"] is not None else "-",
            row["matching_count"] if row["matching_count"] is not None else "-",
        )
    )
    return 0


def _cmd_tree(args):
    if args.depth < 0:
        raise ValueError("depth must be nonnegative")
    if args.depth > MAX_TREE_DEPTH:
        raise ValueError(
            "depth %d would build 2^%d rationals, over the limit of depth %d"
            % (args.depth, args.depth, MAX_TREE_DEPTH)
        )
    level = sb_level(args.depth) if args.kind == "sb" else cw_level(args.depth)
    if args.format == "json":
        _emit(args, {"kind": args.kind, "depth": args.depth, "level": [_frac_str(x) for x in level]})
        return 0
    print(" ".join(_frac_str(x) for x in level))
    return 0


def _cmd_verify(args):
    if args.format == "json":
        ok, rows = _verify.run_checks(args.level)
        _emit(
            args,
            {
                "level": args.level,
                "ok": ok,
                "checks": [{"name": n, "ok": o, "message": m} for n, o, m in rows],
            },
        )
    else:
        ok, _ = _verify.run_checks(args.level, report=print)
    return 0 if ok else 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qrationals",
        description="Exact q-deformed rationals and their combinatorial models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json"), default="text"):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("qrat", help="q-deformation of a rational")
    p.add_argument("rational")
    p.add_argument("--shift-check", action="store_true", dest="shift_check")
    add_format(p)
    p.set_defaults(func=_cmd_qrat)

    p = sub.add_parser("rep", help="digits of an integer in a numeration system")
    p.add_argument("n", type=int)
    p.add_argument("--cf", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("val", help="integer value of a digit vector")
    p.add_argument("digits")
    p.add_argument("--cf", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("enum", help="enumerate a combinatorial family")
    p.add_argument("family", choices=("admissible", "ideals", "matchings"))
    p.add_argument("rational")
    p.add_argument("--count", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("render", help="draw a snake graph or fence poset")
    p.add_argument("shape", choices=("snake", "fence"))
    p.add_argument("rational")
    p.add_argument("--format", choices=("svg", "dot"), default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("table", help="prefix/suffix matching counts")
    p.add_argument("rational")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("markoff", help="Markoff numbers and their q-analogs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--upto", type=int)
    group.add_argument("--word")
    p.add_argument("--table", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_markoff)

    p = sub.add_parser("tree", help="one level of a rational tree")
    p.add_argument("kind", choices=("sb", "cw"))
    p.add_argument("--depth", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--level", choices=("desk", "deep"), default="desk")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
