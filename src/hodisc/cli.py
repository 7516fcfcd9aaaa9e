"""Command-line surface: construction, generation, discrepancy, verification.

Every command is deterministic for a fixed flag set; shifts are always
user-supplied, never sampled.  Exit codes: 64 for usage errors, 2 for a
violated property (verify), 3 for an exceeded enumeration or point budget.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .discrepancy import _scan, _warnock_sq
from .genmat import GeneratingMatrixSet, _sequence_bound, sequence_net, write_matrix_files
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
    COROLLARY_PRECISION,
    DEFAULT_POINT_BUDGET_EXPONENT,
    BudgetExceeded,
    DyadicPoint,
    _corollary_columns,
    _net_columns,
    _points,
    _shift_columns,
    net_points,
)
from .walsh import _r_table, mu_vec

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

DEFAULT_SEQUENCE_ALPHA = 5  # sequence mode of gen, disc and scan
GEN_BLOCK_ROWS = 1 << 16  # gen formats and writes its lines this many at a time
MAX_FILE_PRECISION = 1024  # bits per coordinate that gen writes and disc --in reads


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def format_dec(prec: int) -> Callable[[int], str]:
    """The exact decimal expansion of num * 2^-prec, as a function of num."""
    five = 5**prec

    def dec(num: int) -> str:
        return "0." + str(num * five).rjust(prec, "0").rstrip("0") if num else "0"

    return dec


def format_hexfrac(prec: int) -> Callable[[int], str]:
    return lambda num: f"0x{num:x}p-{prec}"


def format_bin(prec: int) -> Callable[[int], str]:
    spec = f"0{prec}b"
    return lambda num: "0." + format(num, spec) if prec else "0"


_FORMATTERS = {"dec": format_dec, "hexfrac": format_hexfrac, "bin": format_bin}
_HEX = re.compile("[0-9a-fA-F]+")  # a hexfrac numerator or a --shift group
_GRAMMARS = {  # each token is fullmatched, so int() only ever sees ASCII digits
    "hexfrac": re.compile(rf"0x({_HEX.pattern})p-([0-9]+)"),
    "bin": re.compile(r"0(?:\.([01]*))?"),
    "dec": re.compile(r"(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"),
}


def parse_coordinate(text: str, fmt: str) -> tuple[int, int]:
    """(numerator, precision) of one coordinate in the given text format.

    Each format is one grammar of ASCII characters, matched whole: no
    sign, no `_` and no digit that the formatters do not write.  A dec
    value has an optional point and an optional signed exponent
    (`9.5367431640625e-07`, as float repr writes it): its digits D over
    10^k are dyadic exactly when 5^k divides D, which a nonzero D of no
    more than k*log10(5) digits cannot, so that is decided before any
    power is built.  The precision returned for dec is the least that
    holds the value.
    """
    match = _GRAMMARS[fmt].fullmatch(text.strip())
    if not match:
        raise ValueError(f"bad {fmt} value {text!r}")
    if fmt == "hexfrac":
        num, prec = int(match[1], 16), int(match[2])
        if num >> prec:
            raise ValueError("coordinate outside [0,1)")
        return num, prec
    if fmt == "bin":
        frac = match[1] or ""
        return int(frac, 2) if frac else 0, len(frac)
    whole, frac, exp = match.groups(default="")
    digits = (whole + frac).lstrip("0")
    k = len(frac) - int(exp) if exp else len(frac)  # the value is D / 10^k
    if not digits:
        return 0, 0
    if len(digits) > k:
        raise ValueError(f"coordinate {text!r} outside [0,1)")
    if 100000 * len(digits) <= 69897 * k:  # D < 10^len(D) <= 5^k, as log10(5) > 0.69897
        raise ValueError(f"coordinate {text!r} is not dyadic")
    num, rest = divmod(int(digits), 5**k)  # D / 10^k = (D / 5^k) / 2^k
    if rest:
        raise ValueError(f"coordinate {text!r} is not dyadic")
    zeros = (num & -num).bit_length() - 1
    return num >> zeros, k - zeros


def _read_lines(path: str) -> list[str]:
    """A point file's non-blank lines, stripped, one per point."""
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _parse_columns(lines: list[str], path: str, fmt: str) -> tuple[list[np.ndarray], int]:
    """A point file's numerator columns, shifted to its largest precision, and that."""
    if not lines:
        raise ValueError("empty point file")
    parsed = [[parse_coordinate(tok, fmt) for tok in ln.split()] for ln in lines]
    prec = max((p for row in parsed for _, p in row), default=0)
    if prec > MAX_FILE_PRECISION:  # every coordinate would be shifted to it
        raise BudgetExceeded(f"precision of {prec} bits in {path} exceeds cap "
                             f"{MAX_FILE_PRECISION}")
    if len(set(map(len, parsed))) != 1:
        raise ValueError("ragged point file")
    table = np.array(parsed, dtype=object)  # row, coordinate, (numerator, precision)
    return list((table[..., 0] << prec - table[..., 1]).T), prec


def read_point_file(path: str, fmt: str) -> list[DyadicPoint]:
    """The points of a point file, for API callers; disc --in reads its columns."""
    return _points(*_parse_columns(_read_lines(path), path, fmt))


def _emit(text: Iterable[str], out_path: str | None) -> None:
    """Write the pieces of text, each one or more whole lines, as they come."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


def _parse_shift(text: str, s: int) -> DyadicPoint:
    """The shift of s comma-separated groups of hex digits, each left-aligned
    at 4 bits per digit of the longest group.  A group is ASCII hex digits
    only, as in hexfrac: the group's length sets their place."""
    parts = text.split(",")
    if len(parts) != s:
        raise ValueError(f"shift needs {s} comma-separated hex groups")
    for p in parts:
        if not _HEX.fullmatch(p):
            raise ValueError(f"bad shift group {p!r}: hex digits 0-9a-fA-F only")
    prec = 4 * max(len(p) for p in parts)
    return DyadicPoint(tuple(int(p, 16) << (prec - 4 * len(p)) for p in parts), prec)


def _check_points(points: str, log2_points: int, budget_exponent: int) -> None:
    """Refuse 2^log2_points points beyond 2^budget_exponent."""
    if log2_points > budget_exponent:
        raise BudgetExceeded(f"generation of {points} points exceeds budget 2^{budget_exponent}")


def _alpha(args) -> int:
    """The order of the sequence of gen, disc or scan."""
    return DEFAULT_SEQUENCE_ALPHA if args.alpha is None else args.alpha


def _sequence(args, m: int) -> GeneratingMatrixSet:
    """The net of the first 2^m points of the sequence of gen, disc or scan."""
    return sequence_net(args.s, _alpha(args), m)


def _generated_columns(args) -> tuple[list[np.ndarray], int]:
    """Check the generated-mode flags and the point budget before anything
    is built; the numerator columns of the net or of the corollary
    (--count) set, and their precision."""
    if args.count is None and args.m is None:
        raise ValueError("need --m (net mode) or --count (corollary mode)")
    if args.s is None:
        raise ValueError("need --s to generate points, or --in FILE")
    if args.count is not None:
        if args.alpha is not None:
            raise ValueError("--alpha is fixed to 3 in corollary (--count) mode")
        _check_points(str(args.count), max(args.count - 1, 0).bit_length(),
                      args.budget_exponent)
        return _corollary_columns(args.s, args.count)
    _check_points(f"2^{args.m}", args.m, args.budget_exponent)
    g = _sequence(args, args.m)
    return _net_columns(g), g.depth


def _cmd_gen(args) -> int:
    shift = None if args.shift is None else _parse_shift(args.shift, args.s)
    # the output precision: the depth (at most 128 for a corollary set) or the shift's
    depth = COROLLARY_PRECISION if args.count is not None else _alpha(args) * (args.m or 0)
    bits = max(depth, shift.precision if shift else 0)
    if bits > MAX_FILE_PRECISION:  # disc --in would refuse the file
        raise BudgetExceeded(f"output precision of {bits} bits exceeds cap {MAX_FILE_PRECISION}")
    cols, prec = _generated_columns(args)
    if shift is not None:
        cols, prec = _shift_columns(cols, prec, shift)
    _emit(_gen_blocks(cols, _FORMATTERS[args.format](prec)), args.out)
    return EXIT_OK


def _gen_blocks(cols, fmt: Callable[[int], str]) -> Iterator[str]:
    """The formatted lines of the numerator columns, GEN_BLOCK_ROWS rows per piece."""
    for start in range(0, len(cols[0]), GEN_BLOCK_ROWS):
        rows = zip(*(c[start:start + GEN_BLOCK_ROWS].tolist() for c in cols))
        yield "".join(" ".join(map(fmt, row)) + "\n" for row in rows)


def _cmd_disc(args) -> int:
    if args.infile:  # the line count is refused before any coordinate is parsed
        lines = _read_lines(args.infile)
        if max(len(lines) - 1, 0).bit_length() > args.budget_exponent:
            raise BudgetExceeded(f"{len(lines)} points in {args.infile} "
                                 f"exceed budget 2^{args.budget_exponent}")
        cols, prec = _parse_columns(lines, args.infile, args.format)
    else:
        cols, prec = _generated_columns(args)
    value = math.sqrt(_warnock_sq(cols, prec, args.exact))  # warnock_l2 of the columns
    _emit([f"{value!r}\n"], args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    _check_points(str(args.nmax), max(args.nmax - 1, 0).bit_length(), args.budget_exponent)
    g = _sequence(args, max((args.nmax - 1).bit_length(), 1))
    report = _scan(_net_columns(g, args.nmax), g.depth, args.exact)
    _emit([report.to_csv()], args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if min(args.s, args.alpha, args.m) < 1:  # the bound below assumes them positive
        raise ValueError("dimensions must be positive")
    bound = _sequence_bound(args.s, args.alpha)  # from the generator degrees, no net built
    t = bound if args.t is None else args.t
    top = args.alpha * args.m
    # every net meets t = alpha*m, so such a bound certifies nothing; a --t
    # beyond it is left to find_dependency's range check (exit 64)
    if t == top or (args.t is None and t > top):
        print(f"trivial: order-{args.alpha} t={t} reaches alpha*m={top} "
              f"(formula bound {bound}); nothing to search")
        return EXIT_OK
    g = sequence_net(args.s, args.alpha, args.m)
    witness = find_dependency(g, args.alpha, t, budget=args.budget)
    if witness is None:
        print(f"certified: order-{args.alpha} quality t={t} (formula bound {bound})")
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
    dual = dual_enumerate(g, budget_exponent=args.budget_exponent)
    terms = dual.size() << args.m  # --check: one Walsh character per element and point
    if args.check and terms > 1 << args.budget_exponent:
        raise BudgetExceeded(f"character sums of {dual.size()} dual elements over 2^{args.m} "
                             f"points = {terms} terms exceed budget 2^{args.budget_exponent}")
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
        raise BudgetExceeded(f"rtable of 4^{args.kmax} = {4**args.kmax} lines "
                             f"exceeds budget 2^{DEFAULT_POINT_BUDGET_EXPONENT}")
    zeros = [f",{l},0,1\n" for l in range(1 << args.kmax)]
    _emit(_rtable_rows(args.kmax, zeros), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    g = sequence_net(args.s, args.alpha, args.m)
    paths = write_matrix_files(g, args.outdir)
    _emit((f"{p}\n" for p in paths), None)
    return EXIT_OK


_SHARED_FLAGS = {  # flags that mean the same on every command that takes them
    "--s": {"type": int},
    "--alpha": {"type": int},
    "--m": {"type": int},
    "--out": {},
    "--budget-exponent": {"type": int, "default": DEFAULT_POINT_BUDGET_EXPONENT,
                          "help": "exit 3 beyond 2^E points"},  # dual has its own
}


def _shared(parser: argparse.ArgumentParser, *flags: str, required: bool = False) -> None:
    for flag in flags:
        parser.add_argument(flag, required=required, **_SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every main call."""
    parser = _Parser(prog="hodisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate points of a net or corollary set")
    _shared(gen, "--s", required=True)
    _shared(gen, "--alpha", "--m")
    gen.add_argument("--count", type=int, default=None, help="corollary mode: N points")
    gen.add_argument("--shift", default=None, help="hex digits per coordinate, comma-separated")
    gen.add_argument("--format", choices=sorted(_FORMATTERS), default="dec")
    _shared(gen, "--out", "--budget-exponent")
    gen.set_defaults(func=_cmd_gen)

    disc = sub.add_parser("disc", help="L2 discrepancy of one point set")
    disc.add_argument("--in", dest="infile", default=None)
    _shared(disc, "--s", "--alpha", "--m")
    disc.add_argument("--count", type=int, default=None)
    disc.add_argument("--format", choices=sorted(_FORMATTERS), default="dec")
    disc.add_argument("--exact", action="store_true")
    _shared(disc, "--out", "--budget-exponent")
    disc.set_defaults(func=_cmd_disc)

    scan = sub.add_parser("scan", help="prefix L2 scan as CSV")
    _shared(scan, "--s", required=True)
    _shared(scan, "--alpha")
    scan.add_argument("--nmax", type=int, required=True)
    scan.add_argument("--exact", action="store_true")
    _shared(scan, "--out", "--budget-exponent")
    scan.set_defaults(func=_cmd_scan)

    verify = sub.add_parser("verify", help="certify the order-alpha net property")
    _shared(verify, "--s", "--alpha", "--m", required=True)
    verify.add_argument("--t", type=int, default=None)
    verify.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    verify.set_defaults(func=_cmd_verify)

    dual = sub.add_parser("dual", help="enumerate the dual net")
    _shared(dual, "--s", "--alpha", "--m", required=True)
    dual.add_argument("--budget-exponent", type=int, default=DEFAULT_DUAL_EXPONENT,
                      help="exit 3 beyond 2^E dual elements or, with --check, 2^E points "
                           "or dual elements times points")
    dual.add_argument("--check", action="store_true", help="append character sums")
    _shared(dual, "--out")
    dual.set_defaults(func=_cmd_dual)

    rtable = sub.add_parser("rtable", help="dump r(k,l) for k,l < 2^K as CSV, K <= 11")
    rtable.add_argument("--kmax", type=int, required=True)
    _shared(rtable, "--out")
    rtable.set_defaults(func=_cmd_rtable)

    export = sub.add_parser("export-matrices", help="write matrices + JSON sidecar")
    _shared(export, "--s", "--alpha", "--m", required=True)
    export.add_argument("--outdir", required=True)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; every refusal and usage error becomes its exit code here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationBudgetError as exc:  # a verdict, on stdout
        print(f"unverified: {exc}")
        return EXIT_BUDGET
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
