"""Command-line interface.

One subcommand per task: exact q-deformation of a rational, the
numeration codec in both directions, enumeration of the three
combinatorial families, SVG/dot rendering, the prefix/suffix table,
Markoff utilities, rational trees, and the verification harness.
`enum --count` prints the counting theorem's split (r, s) of r/s, which
`verify` holds against the path scans.  A rational is read and carried
as its reduced numerator and denominator, two ints, and written p/q, or
p when q = 1, as `str` writes a Fraction; no subcommand but `verify`
loads `fractions`, `decimal` or `json`.

Each subcommand returns its JSON payload and its text lines, and `main`
alone prints one or the other.  `_json` writes a payload, in the same
bytes as `json.dumps(payload, indent=2)`.  An `enum` listing writes its
own JSON text instead, in the same bytes: it reads each row as integers
off its lister and writes it in the format asked for by one format
string.  The text of each element or edge is written once per
listing, and a row joins them a byte of its mask at a time, out of a
byte table built for that listing alone.  Under `--format json` its
payload is that text, which `main` writes as is; in text mode its
payload is None and no JSON is built.

One table, `_COMMANDS`, describes the subcommands.  `_parse` reads a
well-formed argv from it and loads no argparse; `_build_parser` builds from
it the argparse parser that gives help and refusals for any other argv.

Everything is deterministic; exit codes are 0 on success, 2 on a parse
or usage error or an input or output over its size limit, 3 when a
verification check fails.  The limits: an `enum` listing holds at most
10^6 elements, `tree --depth` is at most 16, a word worked on (of a
rational, of `markoff --word`, or the snake word of `markoff --word
--table`) has at most 2,000 letters, `markoff --upto` takes a bound
of at most 200 digits, and the value `val` prints has at most as many
digits as str() writes (4,300 by default).
"""

import sys
from functools import cache
from itertools import compress, product
from math import gcd
from operator import itemgetter
from types import SimpleNamespace

# The C string writer that `json.encoder.encode_basestring_ascii` is on
# CPython, imported without the `json` package.
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .cf import _cw_pairs, _quotients, _sb_pairs, _with_parity, cf_parse, word_of
from .fence import Fence, enumerate_ideals, fence_to_dot, fence_to_svg
from .markoff import markoff_numbers_upto, markoff_of, markoff_row
from .numeration import _integer, numeration_rows, rep, val
from .qpoly import _q_rational, _shift_identity_holds
from .snake import Snake, _prefix_suffix_table, enumerate_matchings, snake_to_svg
from .words import _decimal, _summary, check_word, theta

__all__ = ["main"]

# `enum` without --count lists r + s objects of up to len(word) + 2
# elements each, and `tree --depth d` builds 2^d rationals; both grow
# exponentially with the input, so larger requests exit 2 before any work.
MAX_LISTED_ELEMENTS = 10**6
MAX_TREE_DEPTH = 16
# `qrat`, `table` and `markoff --word` take time quadratic in the length
# of the word they work on: at 2,000 letters `qrat` on a Fibonacci ratio
# takes 0.17 s and `table` 15-19 ms on a 2-core Xeon (medians of 7 runs).
# Of the `qrat` time, 0.15-0.16 s is the q-product kernel; unpacking its
# result takes about 2 ms and printing it about 13 ms (2,001 coefficients
# of up to 417 digits).  Longer words exit 2 before any work, also for
# `enum --count`, which reads its counts off the rational and runs no scan.
MAX_WORD_LENGTH = 2000
# `markoff --upto N` lists about (log N)^2 numbers of up to log N digits:
# a 200-digit bound lists 38,512 numbers, 5.2 MB of text, in 0.26 s on
# the same machine.  Longer bounds exit 2 before any work.
MAX_MARKOFF_DIGITS = 200


def _check_word_length(what, letters):
    if letters > MAX_WORD_LENGTH:
        raise ValueError(
            "%s has %s letters, over the limit of %d letters"
            % (what, letters if letters <= 10**9 else "more than 10^9", MAX_WORD_LENGTH)
        )


def _parse_rational(text):
    """A positive rational whose word is at most MAX_WORD_LENGTH letters,
    as its reduced numerator and denominator p, q > 0, and its even-length
    expansion.  It reads what `Fraction(_decimal(num), _decimal(den))`
    reads: a sign on either part, and a 0 denominator refused."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            p, q = _decimal(num), _decimal(den)
        else:
            p, q = _decimal(text), 1
    except ValueError:
        q = 0  # refused as a 0 denominator is
    if not q:
        raise ValueError("not a rational: %s" % _summary(text, "0123456789/"))
    if p == 0 or (p < 0) != (q < 0):
        raise ValueError("need a positive rational, got %s" % ("0" if p == 0 else "a negative one"))
    g = gcd(p, q)
    p, q = abs(p) // g, abs(q) // g
    a = _with_parity(_quotients(p, q), True)
    letters = sum(a) - 1
    if letters > MAX_WORD_LENGTH:  # the rational is named in a refusal alone
        _check_word_length("the word of %s" % _rational_name(p, q), letters)
    return p, q, a


def _rational_text(p, q):
    """The reduced rational p/q as `str` writes its Fraction."""
    return "%d/%d" % (p, q) if q != 1 else "%d" % p


def _rational_name(p, q):
    """A rational parsed by `_parse_rational`, named in a message: in full up
    to 40 characters, else by the digit counts of its two parts."""
    name = _rational_text(p, q)
    if len(name) > 40:  # str() is safe: int() parsed each part from at most 4,300 digits
        name = "a %d/%d-digit rational" % (len(str(p)), len(str(q)))
    return name


def _int(text):
    """`_decimal` for an argument: argparse itself would echo a refused text
    in full, so one over 40 characters is named by its length and its first
    character that is not an ASCII digit or a sign."""
    try:
        return _decimal(text)
    except ValueError:
        import argparse

        if len(text) <= 40:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        raise argparse.ArgumentTypeError("not an int: %s" % _summary(text, "0123456789+-")) from None


def _parse_digits(text):
    try:
        return tuple(map(_decimal, text.split(",")))
    except ValueError:
        raise ValueError("digits must be comma-separated integers, got %s" % _summary(text, "0123456789,"))


def _cmd_qrat(args):
    p, q, a = _parse_rational(args.rational)
    qx = _q_rational(a)
    x = _rational_text(p, q)
    payload = {"x": x}
    payload.update(qx.to_json())
    lines = [qx.fraction_str()]
    if not args.shift_check:
        return payload, lines, None
    payload["shift_check"] = _shift_identity_holds(a, qx)
    if not payload["shift_check"]:
        return payload, lines, "FAIL shift identity for %s" % x
    return payload, lines + ["shift-check ok"], None


def _cmd_rep(args):
    a = cf_parse(args.cf)
    digits = rep(args.n, a)
    return {"cf": a, "n": args.n, "digits": digits}, [",".join(str(d) for d in digits)], None


def _cmd_val(args):
    a = cf_parse(args.cf)
    digits = _parse_digits(args.digits)
    n = val(digits, a)
    try:
        text = str(n)
    except ValueError:  # n can be far longer than its input, and str() has a limit
        raise ValueError(
            "the value is %s, over the limit of %d digits" % (_integer(n), sys.get_int_max_str_digits())
        ) from None
    return {"cf": a, "digits": digits, "n": n}, [text], None


# The bits of each byte value as `compress` selectors, bit j at position j.
_BYTE_BITS = [bits[::-1] for bits in product((0, 1), repeat=8)]


class _Pieces(dict):
    """One listing's byte table: (byte index i, byte value) -> the
    comma-joined texts of the bits that byte sets, bits 8i to 8i + 7
    naming texts[8i:8i + 8], written the first time a mask holds it."""

    def __init__(self, texts):
        self.octets = [texts[j : j + 8] for j in range(0, len(texts), 8)]

    def __missing__(self, key):
        i, byte = key
        piece = self[key] = ",".join(compress(self.octets[i], _BYTE_BITS[byte]))
        return piece


def _joined(texts, masks):
    """For each mask in turn, the texts[i] of the bits i it sets, joined
    by commas: the pieces of its nonzero bytes, out of a byte table made
    for this listing alone, so a row costs a lookup per byte, not a step
    per bit.  Each row is joined when it is read, so that no list of
    them outlives its listing's lines."""
    size, piece = (len(texts) + 7) // 8, _Pieces(texts).__getitem__
    return (",".join(filter(None, map(piece, enumerate(m.to_bytes(size, "little"))))) for m in masks)


def _listing_json(key, value, rows_key, rows):
    """The JSON text of {key: value, rows_key: [...]} from the JSON text of
    each row, written at the rows' indent."""
    return '{\n  "%s": %s,\n  "%s": [\n    %s\n  ]\n}' % (key, _json(value, "\n  "), rows_key, ",\n    ".join(rows))


def _enum_admissible(x, a, as_json):
    # every row is n and its len(a) digits
    if as_json:
        row = "[\n      %d,\n      [\n        " + ",\n        ".join(["%d"] * len(a)) + "\n      ]\n    ]"
    else:
        row = "%d\t" + ",".join(["%d"] * len(a))
    lines = [row % (n, *b) for n, b in numeration_rows(a)]
    return _listing_json("cf", a, "rows", lines) if as_json else lines


def _enum_ideals(x, a, as_json):
    fence = Fence(word_of(a))
    if as_json:
        row, texts = "[%s\n    ]", ["\n      %d" % i for i in range(fence.size)]
    else:
        row, texts = "{%s}", [str(i) for i in range(fence.size)]
    lines = list(map(row.__mod__, _joined(texts, enumerate_ideals(fence))))
    if not as_json:
        return lines
    lines[0] = "[]"  # the empty ideal, which comes first
    return _listing_json("x", x, "ideals", lines)


def _enum_matchings(x, a, as_json):
    g = Snake(theta(word_of(a)))
    if as_json:
        row = '{\n      "class": "%s",\n      "area": %d,\n      "edges": [%s\n      ]\n    }'
        # an edge ((x, y), (x', y')) as `_json` writes it at its indent
        point = "\n          [\n            %d,\n            %d\n          ]"
        edge = "\n        [" + point + "," + point + "\n        ]"
    else:
        row, edge = "class=%s area=%d edges=%s", "(%d,%d)-(%d,%d)"
    listed = enumerate_matchings(g, area=True)
    edges = _joined([edge % (e[0] + e[1]) for e in g.edges], map(itemgetter(0), listed))
    lines = [row % (g.classify(m), area, text) for (m, area), text in zip(listed, edges)]
    return _listing_json("x", x, "matchings", lines) if as_json else lines


def _cmd_enum(args):
    m, n, a = _parse_rational(args.rational)
    if args.count:
        # the counting theorem: each family of r/s splits as (r, s), which
        # verify holds against the scans
        first, second = ("perp", "par") if args.family == "matchings" else ("filled", "empty")
        return {first: m, second: n, "total": m + n}, ["%s=%d %s=%d total=%d" % (first, m, second, n, m + n)], None
    objects, length = m + n, sum(a) + 1
    if objects * length > MAX_LISTED_ELEMENTS:
        raise ValueError(
            "enum %s %s would list %s objects of up to %d elements, over the "
            "limit of %d elements; use --count"
            % (args.family, _rational_name(m, n), _integer(objects), length, MAX_LISTED_ELEMENTS)
        )
    x = _rational_text(m, n)
    # each lister takes the rational's text, its expansion and the format
    handler = {
        "admissible": _enum_admissible,
        "ideals": _enum_ideals,
        "matchings": _enum_matchings,
    }[args.family]
    if args.format == "json":
        return handler(x, a, True), (), None
    return None, handler(x, a, False), None


def _cmd_render(args):
    a = _parse_rational(args.rational)[2]
    if args.shape == "fence":
        fence = Fence(word_of(a))
        return None, [fence_to_svg(fence) if args.format == "svg" else fence_to_dot(fence)], None
    if args.format != "svg":
        raise ValueError("snake graphs render as svg only, not %r" % args.format)
    return None, [snake_to_svg(Snake(theta(word_of(a))))], None


def _cmd_table(args):
    a = _parse_rational(args.rational)[2]
    table = _prefix_suffix_table(word_of(a))
    lines = ["word\t%s" % table["word"], "len\tprefix_perp\tprefix_par\tsuffix_perp\tsuffix_par"]
    lines += (
        "%d\t%d\t%d\t%d\t%d" % (j, pre[0], pre[1], suf[0], suf[1])
        for j, (pre, suf) in enumerate(zip(table["prefixes"], table["suffixes"]))
    )
    return table, lines, None


def _cmd_markoff(args):
    if args.upto is not None:
        if args.table:
            raise ValueError("--table needs --word")
        if args.upto >= 10**MAX_MARKOFF_DIGITS:
            raise ValueError(
                "markoff --upto takes a bound of at most %d digits, got %d digits"
                % (MAX_MARKOFF_DIGITS, len(str(args.upto)))
            )
        numbers = markoff_numbers_upto(args.upto)
        return {"bound": args.upto, "numbers": numbers}, [",".join(str(m) for m in numbers)], None
    _check_word_length("the Markoff word", len(args.word))
    if not args.table:
        number = markoff_of(args.word)
        return {"word": args.word, "number": number}, [str(number)], None
    if len(args.word) >= 2:
        # 0 gamma(w[1:-1]) 0 has 2 letters per letter of w but one, and 2 more per
        # inner 1; a word that is not binary is refused as one before its length
        check_word(args.word)
        _check_word_length("the snake word of the Markoff word", 2 * (len(args.word) - 1 + args.word.count("1", 1, -1)))
    row = markoff_row(args.word)
    payload = dict(row)
    payload["q_polynomial"] = row["q_polynomial"].to_json()
    lines = [
        "word\tnumber\tq_polynomial\tsnake_word\tmatching_count",
        "%s\t%d\t%s\t%s\t%s"
        % (
            row["word"],
            row["number"],
            row["q_polynomial"].compact(),
            row["snake_word"] if row["snake_word"] is not None else "-",
            row["matching_count"] if row["matching_count"] is not None else "-",
        ),
    ]
    return payload, lines, None


def _cmd_tree(args):
    if args.depth < 0:
        raise ValueError("depth must be nonnegative")
    if args.depth > MAX_TREE_DEPTH:
        raise ValueError(
            "depth %d would build 2^%d rationals, over the limit of depth %d"
            % (args.depth, args.depth, MAX_TREE_DEPTH)
        )
    level = [_rational_text(p, q) for p, q in (_sb_pairs if args.kind == "sb" else _cw_pairs)(args.depth)]
    return {"kind": args.kind, "depth": args.depth, "level": level}, [" ".join(level)], None


def _cmd_verify(args):
    # imported here, since no other subcommand needs verify or its oracles
    from . import verify

    # text mode prints each row as its check finishes, so no lines are left
    ok, rows = verify.run_checks(args.level, report=print if args.format == "text" else None)
    checks = [{"name": n, "ok": o, "message": m, "seconds": round(t, 3)} for n, o, m, t in rows]
    return {"level": args.level, "ok": ok, "checks": checks}, (), None if ok else ""


_PRINTABLE = "".join(map(chr, range(32, 127)))

# Each subcommand's handler, help line, positionals as (dest, kind) and
# options in help order as (option, kind, default, required), with dests as
# argparse names them.  A kind is None for a text, int for an integer, bool
# for a flag or a tuple of choices.  Each of markoff's --upto and --word is
# required unless the other is given, and they are not given together.
_RATIONAL = ("rational", None)
_CF = ("--cf", None, None, True)
_FORMAT = ("--format", ("text", "json"), "text", False)
_DEPTH = ("--depth", int, None, True)
_LEVEL = ("--level", ("desk", "deep"), "desk", False)
_COMMANDS = {
    "qrat": (_cmd_qrat, "q-deformation of a rational", (_RATIONAL,), (("--shift-check", bool, False, False), _FORMAT)),
    "rep": (_cmd_rep, "digits of an integer in a numeration system", (("n", int),), (_CF, _FORMAT)),
    "val": (_cmd_val, "integer value of a digit vector", (("digits", None),), (_CF, _FORMAT)),
    "enum": (
        _cmd_enum,
        "enumerate a combinatorial family",
        (("family", ("admissible", "ideals", "matchings")), _RATIONAL),
        (("--count", bool, False, False), _FORMAT),
    ),
    "render": (
        _cmd_render,
        "draw a snake graph or fence poset",
        (("shape", ("snake", "fence")), _RATIONAL),
        (("--format", ("svg", "dot"), "svg", False),),
    ),
    "table": (_cmd_table, "prefix/suffix matching counts", (_RATIONAL,), (_FORMAT,)),
    "markoff": (
        _cmd_markoff,
        "Markoff numbers and their q-analogs",
        (),
        (("--upto", int, None, "--word"), ("--word", None, None, "--upto"), ("--table", bool, False, False), _FORMAT),
    ),
    "tree": (_cmd_tree, "one level of a rational tree", (("kind", ("sb", "cw")),), (_DEPTH, _FORMAT)),
    "verify": (_cmd_verify, "run the verification harness", (), (_LEVEL, _FORMAT)),
}


def _dashed(token):
    """Whether argparse may read the token as an option, not a number."""
    return token[:1] == "-" and not (token[1:].isdigit() and token.isascii())


def _parse(argv):
    """`_build_parser().parse_args(argv)` read from `_COMMANDS` if argv is
    well formed, else None: the exact subcommand first, each option in full
    and once at most, no `_dashed` value or positional, the exact positional
    count, known choices, ints `_decimal` reads and each required option."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    func, _, positionals, options = spec
    left = {option[0]: option for option in options}  # the options not given so far
    values = {option[2:].replace("-", "_"): default for option, _, default, _ in options}
    values.update(command=argv[0], func=func)
    count = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if _dashed(token):
            if token not in left:
                return None
            dest, kind = token[2:].replace("-", "_"), left.pop(token)[1]
            if kind is bool:
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None or _dashed(token):
                return None
        elif count < len(positionals):
            dest, kind = positionals[count]
            count += 1
        else:
            return None
        if kind is int:
            try:
                token = _decimal(token)
            except ValueError:
                return None
        elif kind is not None and token not in kind:
            return None
        values[dest] = token
    for option, _, _, required in options:
        if required is True and option in left or type(required) is str and (option in left) == (required in left):
            return None
    return SimpleNamespace(**values) if count == len(positionals) else None


# Built on the first argv that `_parse` leaves to argparse, and reused.
# The parser holds the `_cmd_*` handlers themselves, and they read the
# limits and library functions at call time.
@cache
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose refusals name any token over 40 characters by `_summary`."""

        def parse_known_args(self, args=None, namespace=None):
            self._tokens = sys.argv[1:] if args is None else list(args)
            return super().parse_known_args(args, namespace)

        def error(self, message):
            # longest first, so that no token is cut up by the summary of one inside it
            for token in sorted(self._tokens, key=len, reverse=True):
                if len(token) > 40:
                    name = _summary(token, _PRINTABLE)
                    message = message.replace(repr(token), name).replace(token, name)
            super().error(message)

    def typed(kind):
        return {"type": _int} if kind is int else {"choices": kind}

    parser = _Parser(prog="qrationals", description="Exact q-deformed rationals and their combinatorial models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, kind in positionals:
            p.add_argument(dest, **typed(kind))
        pair = None
        for option, kind, default, required in options:
            if kind is bool:
                p.add_argument(option, action="store_true")
            elif type(required) is str:
                pair = pair or p.add_mutually_exclusive_group(required=True)
                pair.add_argument(option, **typed(kind))
            else:
                p.add_argument(option, default=default, required=required, **typed(kind))
        p.set_defaults(func=func)
    return parser


def _json(value, indent="\n"):
    """`json.dumps(value, indent=2)`, byte for byte, for the values a
    payload holds: dicts with str keys, lists, tuples, str, int, None,
    bool and float.  On Python 3.11 `json.dumps` takes its pure-Python
    encoder whenever it indents; this writes the same text faster.
    `indent` is the newline and the spaces before `value`.  A list or
    tuple of nothing but ints is written in one join.  Only a float,
    which verify's payload alone holds, loads `json`."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        if type(value[0]) is int is type(value[-1]) and set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    import json

    return json.dumps(value)


def main(argv=None):
    """Run one subcommand and write its result.

    Each subcommand returns (payload, lines, failure): the JSON payload,
    the text lines, and None on success or, for a failed check, the line
    (possibly empty) that text output writes to stderr before exit 3."""
    args = _parse(sys.argv[1:] if argv is None else argv) or _build_parser().parse_args(argv)
    try:
        payload, lines, failure = args.func(args)
        if args.format == "json":
            # an `enum` listing's payload is its JSON text already
            sys.stdout.write((payload if type(payload) is str else _json(payload)) + "\n")
        else:
            lines = list(lines)
            if lines:  # one write; none for no lines, as in verify's text mode
                sys.stdout.write("\n".join(lines) + "\n")
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if failure is None:
        return 0
    if failure and args.format != "json":
        print(failure, file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
