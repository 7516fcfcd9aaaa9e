"""Command-line surface: construction, generation, discrepancy, verification.

Every command is deterministic for a fixed flag set; shifts are always
user-supplied, never sampled.  Exit codes: 64 for usage errors, 2 for a
violated property (verify), 3 for an exceeded enumeration or point budget.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .discrepancy import warnock_l2, warnock_scan
from .genmat import GeneratingMatrixSet, sequence_net, write_matrix_files
from .netverify import (
    DEFAULT_DUAL_EXPONENT,
    DEFAULT_PATTERN_BUDGET,
    DualNetBasis,
    VerificationBudgetError,
    character_sum,
    dual_enumerate,
    find_dependency,
)
from .points import (
    DyadicPoint,
    _corollary_columns,
    _net_columns,
    _shift_columns,
    corollary_pointset,
    net_points,
)
from .walsh import _r_table, mu_vec

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

DEFAULT_SEQUENCE_ALPHA = 5  # scan/gen sequence mode
DEFAULT_POINT_BUDGET_EXPONENT = 22  # at most 2^22 points (gen, disc, scan) or lines (rtable)


class PointBudgetError(Exception):
    """A point set larger than 2^budget_exponent points was requested."""

    def __init__(self, points: str, budget_exponent: int) -> None:
        super().__init__(f"generation of {points} points exceeds budget 2^{budget_exponent}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _dec_formatter(prec: int):
    """format_dec for one precision, with 5^prec computed once; it takes
    (num, prec) like every formatter and ignores the second argument."""
    five = 5**prec

    def format_dec_at(num: int, _prec: int) -> str:
        if num == 0:
            return "0"
        digits = str(num * five).rjust(prec, "0")
        frac = digits.rstrip("0") or "0"
        return "0." + frac

    return format_dec_at


def format_dec(num: int, prec: int) -> str:
    """Exact decimal expansion of num * 2^-prec."""
    return _dec_formatter(prec)(num, prec)


def format_hexfrac(num: int, prec: int) -> str:
    return f"0x{num:x}p-{prec}"


def format_bin(num: int, prec: int) -> str:
    return "0." + format(num, f"0{prec}b") if prec else "0"


_FORMATTERS = {"dec": format_dec, "hexfrac": format_hexfrac, "bin": format_bin}
_SIGNS = {"+", "-"}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_DECIMAL = re.compile(r"([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")  # digits, point, exponent


def parse_coordinate(text: str, fmt: str) -> tuple[int, int]:
    """(numerator, precision) of one coordinate in the given text format.

    No formatter writes a `_` digit separator or a sign, so neither is
    read, though `int` and `Fraction` would take both.  A dec value is
    ASCII digits with an optional point and an optional signed exponent
    (`9.5367431640625e-07`, as float repr writes it): its digits D over
    10^k are dyadic exactly when 5^k divides D, and the precision returned
    is the least that holds the value.
    """
    text = text.strip()
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    if fmt == "hexfrac":
        body, _, exp = text.partition("p-")
        if not body.startswith("0x") or not exp or _SIGNS & set(body + exp):
            raise ValueError(f"bad hexfrac value {text!r}")
        return int(body, 16), int(exp)
    if fmt == "bin":
        if text == "0":
            return 0, 0
        frac = text[2:]
        if not text.startswith("0.") or _SIGNS & set(frac):
            raise ValueError(f"bad binary value {text!r}")
        return int(frac, 2) if frac else 0, len(frac)
    if text.startswith(("+", "-")):
        raise ValueError(f"signed coordinate {text!r}")
    match = _DECIMAL.fullmatch(text)
    if not match or not (match[1] or match[2]):
        raise ValueError(f"bad decimal value {text!r}")
    frac = match[2] or ""
    num, k = int(match[1] + frac), len(frac) - int(match[3] or 0)  # num / 10^k
    if k <= 0:
        if num:
            raise ValueError(f"coordinate {text!r} outside [0,1)")
        return 0, 0
    ten = 10**k
    if num >= ten:
        raise ValueError(f"coordinate {text!r} outside [0,1)")
    num, rest = divmod(num, ten >> k)  # num / 10^k = (num / 5^k) / 2^k
    if rest:
        raise ValueError(f"coordinate {text!r} is not dyadic")
    if not num:
        return 0, 0
    zeros = (num & -num).bit_length() - 1
    return num >> zeros, k - zeros


def read_point_file(path: str, fmt: str) -> list[DyadicPoint]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty point file")
    parsed = [[parse_coordinate(tok, fmt) for tok in ln.split()] for ln in lines]
    s = len(parsed[0])
    prec = max((p for row in parsed for _, p in row), default=0)
    points = []
    for row in parsed:
        if len(row) != s:
            raise ValueError("ragged point file")
        points.append(DyadicPoint(tuple(n << (prec - p) for n, p in row), prec))
    return points


def _emit(text: Iterable[str], out_path: str | None) -> None:
    """Write the pieces of text, each one or more whole lines, as they come."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


def _parse_shift(text: str, s: int) -> DyadicPoint:
    """The shift of s comma-separated groups of hex digits, each left-aligned
    at 4 bits per digit of the longest group.  A group is digits only: int()
    would also take a sign, a `0x` prefix or a `_`, which would move the
    digits, since the group's length sets their place."""
    parts = text.split(",")
    if len(parts) != s:
        raise ValueError(f"shift needs {s} comma-separated hex groups")
    for p in parts:
        if not p or not set(p) <= _HEX_DIGITS:
            raise ValueError(f"bad shift group {p!r}: hex digits 0-9a-fA-F only")
    nums = []
    prec = 4 * max(len(p) for p in parts)
    for p in parts:
        nums.append(int(p, 16) << (prec - 4 * len(p)))
    return DyadicPoint(tuple(nums), prec)


def _check_points(points: str, log2_points: int, budget_exponent: int) -> None:
    """Raise PointBudgetError if 2^log2_points exceeds 2^budget_exponent."""
    if log2_points > budget_exponent:
        raise PointBudgetError(points, budget_exponent)


def _generated_net(args) -> GeneratingMatrixSet | None:
    """Check the generated-mode flags and the point budget before anything
    is built; the net's matrices, or None in corollary (--count) mode."""
    if args.count is not None:
        if args.alpha is not None:
            raise ValueError("--alpha is fixed to 3 in corollary (--count) mode")
        _check_points(str(args.count), max(args.count - 1, 0).bit_length(),
                      args.budget_exponent)
        return None
    if args.m is None:
        raise ValueError("need --m (net mode) or --count (corollary mode)")
    _check_points(f"2^{args.m}", args.m, args.budget_exponent)
    alpha = args.alpha if args.alpha is not None else DEFAULT_SEQUENCE_ALPHA
    return sequence_net(args.s, alpha, args.m)


def _generate(args) -> list[DyadicPoint]:
    g = _generated_net(args)
    return corollary_pointset(args.s, args.count) if g is None else net_points(g)


def _cmd_gen(args) -> int:
    g = _generated_net(args)
    if g is None:
        cols, prec = _corollary_columns(args.s, args.count)
    else:
        cols, prec = _net_columns(g, 1 << g.width), g.depth
    if args.shift is not None:
        cols, prec = _shift_columns(cols, prec, _parse_shift(args.shift, args.s))
    fmt = _FORMATTERS[args.format]
    if args.format == "dec":
        fmt = _dec_formatter(prec)
    lines = [" ".join(fmt(c, prec) for c in row) for row in zip(*(c.tolist() for c in cols))]
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def _cmd_disc(args) -> int:
    if args.infile:
        points = read_point_file(args.infile, args.format)
    else:
        points = _generate(args)
    value = warnock_l2(points, exact=args.exact)
    _emit([f"{value!r}\n"], args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    _check_points(str(args.nmax), max(args.nmax - 1, 0).bit_length(), args.budget_exponent)
    alpha = args.alpha if args.alpha is not None else DEFAULT_SEQUENCE_ALPHA
    width = max((args.nmax - 1).bit_length(), 1)
    g = sequence_net(args.s, alpha, width)
    points = net_points(g, count=args.nmax)
    report = warnock_scan(points, args.nmax, exact=args.exact)
    _emit([report.to_csv()], args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = sequence_net(args.s, args.alpha, args.m)
    t = args.t if args.t is not None else g.t_bound
    if t is None:
        raise ValueError("no formula bound available; pass --t")
    top = args.alpha * args.m
    # every net meets t = alpha*m, so such a bound certifies nothing; a --t
    # beyond it is left to find_dependency's range check (exit 64)
    if t == top or (args.t is None and t > top):
        print(f"trivial: order-{args.alpha} t={t} reaches alpha*m={top} "
              f"(formula bound {g.t_bound}); nothing to search")
        return EXIT_OK
    try:
        witness = find_dependency(g, args.alpha, t, budget=args.budget)
    except VerificationBudgetError as exc:
        print(f"unverified: {exc}")
        return EXIT_BUDGET
    if witness is None:
        print(f"certified: order-{args.alpha} quality t={t} "
              f"(formula bound {g.t_bound})")
        return EXIT_OK
    rows = " ".join(f"(j={j + 1},row={i})" for j, i in witness)
    print(f"violated: dependent admissible rows {rows} at t={t}")
    return EXIT_VIOLATED


def _dual_lines(dual: DualNetBasis, pts: list[DyadicPoint] | None) -> Iterator[str]:
    yield (f"# s={dual.s} m={dual.m} digit_range={dual.digit_range} "
           f"rank={dual.rank} dual_size={dual.size()}\n")
    for ks in dual.elements():
        line = " ".join(str(k) for k in ks) + f"  mu={mu_vec(ks)}"
        if pts is not None:
            line += f"  char_sum={character_sum(pts, ks)}"
        yield line + "\n"


def _cmd_dual(args) -> int:
    if args.check:
        _check_points(f"2^{args.m}", args.m, args.budget_exponent)
    g = sequence_net(args.s, args.alpha, args.m)
    try:
        dual = dual_enumerate(g, budget_exponent=args.budget_exponent)
    except VerificationBudgetError as exc:
        print(f"unverified: {exc}")
        return EXIT_BUDGET
    terms = dual.size() << args.m  # --check: one Walsh character per element and point
    if args.check and terms > 1 << args.budget_exponent:
        sys.stderr.write(f"budget exceeded: character sums of {dual.size()} dual elements "
                         f"over 2^{args.m} points = {terms} terms exceed budget "
                         f"2^{args.budget_exponent}\n")
        return EXIT_BUDGET
    _emit(_dual_lines(dual, net_points(g) if args.check else None), args.out)
    return EXIT_OK


def _rtable_rows(kmax: int, zeros: list[str]) -> Iterator[str]:
    """The CSV header, then the 2^kmax lines of each k as one piece: k and
    the tail ",l,0,1" from zeros, or ",l,num,den" where _r_table lists a
    nonzero r(k, l).  r(k, k) is never 0, so every k has a group."""
    yield "k,l,numerator,denominator\n"
    for k, entries in groupby(_r_table(kmax), key=lambda e: e[0]):
        tails = zeros.copy()
        for _, l, r in entries:
            tails[l] = f",{l},{r.numerator},{r.denominator}\n"
        yield str(k) + str(k).join(tails)


def _cmd_rtable(args) -> int:
    if 2 * args.kmax > DEFAULT_POINT_BUDGET_EXPONENT:
        sys.stderr.write(f"budget exceeded: rtable of 4^{args.kmax} = {4**args.kmax} lines "
                         f"exceeds budget 2^{DEFAULT_POINT_BUDGET_EXPONENT}\n")
        return EXIT_BUDGET
    zeros = [f",{l},0,1\n" for l in range(1 << args.kmax)]
    _emit(_rtable_rows(args.kmax, zeros), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    g = sequence_net(args.s, args.alpha, args.m)
    paths = write_matrix_files(g, args.outdir)
    _emit((f"{p}\n" for p in paths), None)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every main call."""
    parser = _Parser(prog="hodisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate points of a net or corollary set")
    gen.add_argument("--s", type=int, required=True)
    gen.add_argument("--alpha", type=int, default=None)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--count", type=int, default=None, help="corollary mode: N points")
    gen.add_argument("--shift", default=None, help="hex digits per coordinate, comma-separated")
    gen.add_argument("--format", choices=sorted(_FORMATTERS), default="dec")
    gen.add_argument("--out", default=None)
    gen.add_argument("--budget-exponent", type=int, default=DEFAULT_POINT_BUDGET_EXPONENT,
                      help="exit 3 beyond 2^E points")
    gen.set_defaults(func=_cmd_gen)

    disc = sub.add_parser("disc", help="L2 discrepancy of one point set")
    disc.add_argument("--in", dest="infile", default=None)
    disc.add_argument("--s", type=int, default=None)
    disc.add_argument("--alpha", type=int, default=None)
    disc.add_argument("--m", type=int, default=None)
    disc.add_argument("--count", type=int, default=None)
    disc.add_argument("--format", choices=sorted(_FORMATTERS), default="dec")
    disc.add_argument("--exact", action="store_true")
    disc.add_argument("--out", default=None)
    disc.add_argument("--budget-exponent", type=int, default=DEFAULT_POINT_BUDGET_EXPONENT,
                      help="exit 3 beyond 2^E points")
    disc.set_defaults(func=_cmd_disc)

    scan = sub.add_parser("scan", help="prefix L2 scan as CSV")
    scan.add_argument("--s", type=int, required=True)
    scan.add_argument("--alpha", type=int, default=None)
    scan.add_argument("--nmax", type=int, required=True)
    scan.add_argument("--exact", action="store_true")
    scan.add_argument("--out", default=None)
    scan.add_argument("--budget-exponent", type=int, default=DEFAULT_POINT_BUDGET_EXPONENT,
                      help="exit 3 beyond 2^E points")
    scan.set_defaults(func=_cmd_scan)

    verify = sub.add_parser("verify", help="certify the order-alpha net property")
    verify.add_argument("--s", type=int, required=True)
    verify.add_argument("--alpha", type=int, required=True)
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--t", type=int, default=None)
    verify.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    verify.set_defaults(func=_cmd_verify)

    dual = sub.add_parser("dual", help="enumerate the dual net")
    dual.add_argument("--s", type=int, required=True)
    dual.add_argument("--alpha", type=int, required=True)
    dual.add_argument("--m", type=int, required=True)
    dual.add_argument("--budget-exponent", type=int, default=DEFAULT_DUAL_EXPONENT,
                      help="exit 3 beyond 2^E dual elements or, with --check, 2^E points "
                           "or dual elements times points")
    dual.add_argument("--check", action="store_true", help="append character sums")
    dual.add_argument("--out", default=None)
    dual.set_defaults(func=_cmd_dual)

    rtable = sub.add_parser("rtable", help="dump r(k,l) for k,l < 2^K as CSV, K <= 11")
    rtable.add_argument("--kmax", type=int, required=True)
    rtable.add_argument("--out", default=None)
    rtable.set_defaults(func=_cmd_rtable)

    export = sub.add_parser("export-matrices", help="write matrices + JSON sidecar")
    export.add_argument("--s", type=int, required=True)
    export.add_argument("--alpha", type=int, required=True)
    export.add_argument("--m", type=int, required=True)
    export.add_argument("--outdir", required=True)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VerificationBudgetError, PointBudgetError) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
