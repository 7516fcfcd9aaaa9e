import json
import os
import signal
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import hodisc.cli
from hodisc.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATED,
    build_parser,
    format_bin,
    format_dec,
    format_hexfrac,
    main,
    parse_coordinate,
    read_point_file,
)
from hodisc.discrepancy import warnock_l2, warnock_scan
from hodisc.genmat import sequence_net
from hodisc.points import DyadicPoint, corollary_pointset, digital_shift, net_points

FORMATTERS = {"dec": format_dec, "hexfrac": format_hexfrac, "bin": format_bin}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_van_der_corput(capsys):
    code, out, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["0", "0.5", "0.25", "0.75", "0.125", "0.625", "0.375", "0.875"]


def test_gen_formats_round_trip(capsys):
    for fmt in ("dec", "hexfrac", "bin"):
        code, out, _ = run(capsys, "gen", "--s", "2", "--alpha", "2", "--m", "3",
                           "--format", fmt)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 8
        parsed = [[parse_coordinate(tok, fmt) for tok in ln.split()] for ln in lines]
        assert all(len(row) == 2 for row in parsed)


def test_gen_corollary_mode(capsys):
    code, out, _ = run(capsys, "gen", "--s", "1", "--count", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5


def test_gen_corollary_rejects_alpha(capsys):
    code, _, err = run(capsys, "gen", "--s", "1", "--count", "5", "--alpha", "2")
    assert code == EXIT_USAGE
    assert "alpha" in err


def test_gen_shift_applied(capsys):
    code, plain, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "2")
    code2, shifted, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "2",
                            "--shift", "8")
    assert code == code2 == EXIT_OK
    values = [Fraction(v) for v in plain.splitlines()]
    moved = [Fraction(v) for v in shifted.splitlines()]
    # shift 0x8 = 0.1000b flips the leading digit of every point
    for a, b in zip(values, moved):
        assert abs(a - b) == Fraction(1, 2)


def _shift_point(text):
    """The point `--shift` denotes: hex groups left-aligned at 4 bits per
    digit of the longest group."""
    parts = text.split(",")
    prec = 4 * max(len(p) for p in parts)
    return DyadicPoint(tuple(int(p, 16) << (prec - 4 * len(p)) for p in parts), prec)


# (mode flags, shift): shift precision below, equal to and above the depth,
# above 64 bits, on uint64 (depth <= 64) and object (depth > 64) columns,
# and in corollary mode at precision 128 and at N = 2^m (precision 3m)
GEN_SHIFT_CASES = [
    (("--s", "2", "--alpha", "3", "--m", "4"), "a,5"),                       # 4 < 12
    (("--s", "2", "--alpha", "3", "--m", "4"), "abc,123"),                   # 12 = 12
    (("--s", "2", "--alpha", "3", "--m", "4"), "abcde,1"),                   # 20 > 12
    (("--s", "2", "--alpha", "4", "--m", "5"), "0123456789abcdef1,f"),       # 68 > 64 > 20
    (("--s", "2", "--alpha", "4", "--m", "5"), "fedcba9876543210,1"),        # 64 > 20
    (("--s", "2", "--alpha", "5", "--m", "14"), "c,3"),                      # 4 < 70
    (("--s", "2", "--alpha", "5", "--m", "14"), "0123456789abcdef01,9"),     # 72 > 70
    (("--s", "3", "--count", "37"), "8,4,2"),                                # 4 < 128
    (("--s", "2", "--count", "37"), "f" * 33 + ",1"),                        # 132 > 128
    (("--s", "2", "--count", "32"), "9,6"),                                  # 4 < 15
    (("--s", "2", "--count", "32"), "abcd1234,7"),                           # 32 > 15
]


@pytest.mark.parametrize("fmt", sorted(FORMATTERS))
@pytest.mark.parametrize("flags,shift", GEN_SHIFT_CASES)
def test_gen_shift_matches_the_pointwise_route(capsys, flags, shift, fmt):
    code, out, _ = run(capsys, "gen", *flags, "--shift", shift, "--format", fmt)
    assert code == EXIT_OK
    opts = dict(zip(flags[::2], map(int, flags[1::2])))
    if "--count" in opts:
        pts = corollary_pointset(opts["--s"], opts["--count"])
    else:
        pts = net_points(sequence_net(opts["--s"], opts["--alpha"], opts["--m"]))
    sigma = _shift_point(shift)
    want = [digital_shift(pt, sigma) for pt in pts]
    assert out.endswith("\n")
    assert out.splitlines() == [
        " ".join(map(FORMATTERS[fmt](q.precision), q.coords)) for q in want
    ]


@pytest.mark.parametrize("s,shift", [
    (1, "f_f"), (1, "+ff"), (1, "0xff"), (2, "ff,"), (1, ""), (1, "-1"), (1, " ff"),
])
def test_gen_shift_takes_hex_digits_only(capsys, s, shift):
    # int(p, 16) reads a `_`, a sign or a 0x prefix, and the group's length
    # would then move its digits; an empty --shift is an error, not no shift
    code, out, err = run(capsys, "gen", "--s", str(s), "--alpha", "1", "--m", "1",
                         "--shift", shift)
    assert code == EXIT_USAGE and out == ""
    assert "shift" in err


def test_gen_deterministic(capsys):
    args = ("gen", "--s", "2", "--alpha", "3", "--m", "4", "--format", "hexfrac")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_gen_blocks_join_to_the_unblocked_text(monkeypatch):
    # 128 rows in blocks of 7, the last one partial, give the bytes of one block
    args = ["gen", "--s", "3", "--alpha", "2", "--m", "7", "--shift", "abc,1,ffff", "--format"]
    pieces = []
    monkeypatch.setattr(hodisc.cli, "_emit", lambda text, _: pieces.append(list(text)))
    for fmt in ("dec", "hexfrac", "bin"):
        for rows in (1 << 30, 7):
            monkeypatch.setattr(hodisc.cli, "GEN_BLOCK_ROWS", rows)
            assert main(args + [fmt]) == EXIT_OK
        whole, blocks = pieces[-2:]
        assert len(whole) == 1 and len(whole[0].splitlines()) == 128
        assert len(blocks) == 19 and all(b.count("\n") == 7 for b in blocks[:-1])
        assert "".join(blocks) == whole[0]


def test_disc_generated_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "3")
    pointfile = tmp_path / "pts.txt"
    pointfile.write_text(out)
    code, direct, _ = run(capsys, "disc", "--s", "1", "--alpha", "1", "--m", "3")
    code2, from_file, _ = run(capsys, "disc", "--in", str(pointfile))
    assert code == code2 == EXIT_OK
    assert direct == from_file
    assert float(direct) > 0


def test_disc_exact_matches_float(capsys):
    _, flo, _ = run(capsys, "disc", "--s", "1", "--alpha", "1", "--m", "4")
    _, exa, _ = run(capsys, "disc", "--s", "1", "--alpha", "1", "--m", "4", "--exact")
    assert abs(float(flo) - float(exa)) < 1e-13


def test_disc_exact_beyond_the_row_loop_cap(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--s", "2", "--alpha", "2", "--m", "11")
    pointfile = tmp_path / "pts.txt"
    pointfile.write_text(out)
    code, flo, _ = run(capsys, "disc", "--in", str(pointfile))
    code2, exa, _ = run(capsys, "disc", "--in", str(pointfile), "--exact")
    assert code == code2 == EXIT_OK
    assert exa == flo
    # scans at s >= 2 and one-shots at s >= 3 still run the row loop, whose
    # exact mode is capped: a budget refusal, exit 3 with nothing on stdout
    for argv in (("scan", "--s", "2", "--nmax", "1100"), ("disc", "--s", "3", "--m", "11")):
        code, out, err = run(capsys, *argv, "--alpha", "2", "--exact")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: exact mode limited to 1024 points\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("flags", [
    # depth 64 (uint64 columns) and 65 (object columns) at s = 1..4
    *((("--s", str(s), "--alpha", alpha, "--m", m)) for s in range(1, 5)
      for alpha, m in (("8", "8"), ("13", "5"))),
    # corollary sets at N = 2^k, where the net is kept whole, and 2^k +- 1
    *((("--s", s, "--count", n)) for s in ("2", "3") for n in ("63", "64", "65")),
])
def test_disc_equals_the_api_route(capsys, flags, exact):
    code, out, err = run(capsys, "disc", *flags, *(("--exact",) if exact else ()))
    assert (code, err) == (EXIT_OK, "")
    opts = dict(zip(flags[::2], map(int, flags[1::2])))
    if "--count" in opts:
        points = corollary_pointset(opts["--s"], opts["--count"])
    else:
        points = net_points(sequence_net(opts["--s"], opts["--alpha"], opts["--m"]))
    assert out == f"{warnock_l2(points, exact=exact)!r}\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("s,nmax", [(1, 300), (2, 150), (3, 100)])
def test_scan_equals_the_api_route(capsys, s, nmax, exact):
    code, out, err = run(capsys, "scan", "--s", str(s), "--alpha", "2", "--nmax", str(nmax),
                         *(("--exact",) if exact else ()))
    assert (code, err) == (EXIT_OK, "")
    g = sequence_net(s, 2, (nmax - 1).bit_length())
    assert out == warnock_scan(net_points(g, nmax), nmax, exact).to_csv()


# (numerator, precision) per token: precisions 0 to 70 in one file, so every
# column is padded, some past 64 bits
MIXED_ROWS = [
    [(1, 3), (3, 7), (0, 0)],
    [(255, 8), (1, 1), (5, 4)],
    [(0, 2), (127, 9), (1, 70)],
    [(3, 2), (0, 5), (11, 6)],
    [(1, 1), (1, 2), (1, 3)],
]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("fmt", sorted(FORMATTERS))
def test_disc_file_equals_the_api_route(tmp_path, capsys, fmt, exact):
    pointfile = tmp_path / "pts.txt"
    pointfile.write_text("".join(
        " ".join(FORMATTERS[fmt](p)(n) for n, p in row) + "\n" for row in MIXED_ROWS))
    code, out, err = run(capsys, "disc", "--in", str(pointfile), "--format", fmt,
                         *(("--exact",) if exact else ()))
    assert (code, err) == (EXIT_OK, "")
    points = read_point_file(str(pointfile), fmt)
    assert [pt.coords[2] for pt in points] == [0, 5 << 66, 1, 11 << 64, 1 << 67]
    assert out == f"{warnock_l2(points, exact=exact)!r}\n"


def test_cli_point_paths_build_no_points(tmp_path, capsys, monkeypatch):
    # gen, disc, scan and disc --in hand numerator columns to the formatters
    # and the Warnock cores; the one point made is the sigma of gen --shift
    built = []
    check = DyadicPoint.__post_init__
    monkeypatch.setattr(DyadicPoint, "__post_init__", lambda pt: built.append(pt) or check(pt))
    pointfile = tmp_path / "pts.txt"
    net = ("--s", "3", "--alpha", "2", "--m", "6")
    for argv, points in [
        (("gen", *net, "--format", "hexfrac", "--out", str(pointfile)), 0),
        (("gen", "--s", "2", "--count", "37"), 0),
        (("gen", *net, "--shift", "a,b,c"), 1),
        (("disc", *net), 0),
        (("disc", *net, "--exact"), 0),
        (("disc", "--s", "2", "--count", "37", "--exact"), 0),
        (("scan", "--s", "2", "--alpha", "2", "--nmax", "40"), 0),
        (("scan", "--s", "1", "--alpha", "2", "--nmax", "40", "--exact"), 0),
        (("disc", "--in", str(pointfile), "--format", "hexfrac"), 0),
    ]:
        built.clear()
        assert run(capsys, *argv)[0] == EXIT_OK
        assert len(built) == points, argv


def test_scan_csv_shape_and_round_trip(capsys):
    code, out, _ = run(capsys, "scan", "--s", "2", "--alpha", "2", "--nmax", "64")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "N,l2,S,ratio_roth,ratio_proinov"
    assert len(lines) == 64  # header + rows N = 2..64
    from hodisc.discrepancy import DiscrepancyReport

    report = DiscrepancyReport.parse_csv(out, s=2)
    assert report.to_csv() == out  # lossless round trip
    assert [r.n for r in report.rows] == list(range(2, 65))


@pytest.mark.parametrize("argv,size,estimate", [
    (("gen", "--s", "1", "--alpha", "1", "--m"), 10, "2^11"),
    (("gen", "--s", "2", "--count"), 1 << 10, "1025"),
    (("disc", "--s", "1", "--alpha", "1", "--m"), 10, "2^11"),
    (("disc", "--s", "2", "--count"), 1 << 10, "1025"),
    (("scan", "--s", "1", "--alpha", "1", "--nmax"), 1 << 10, "1025"),
])
def test_point_budget_exit_three(capsys, argv, size, estimate):
    # a budget of 2^10 points: 2^10 points run, one more is refused before
    # any point is built; small sizes, so a broken guard allocates little
    code, _, _ = run(capsys, *argv, str(size), "--budget-exponent", "10", "--out", os.devnull)
    assert code == EXIT_OK
    code, out, err = run(capsys, *argv, str(size + 1), "--budget-exponent", "10")
    assert code == EXIT_BUDGET and out == ""
    assert err == f"budget exceeded: generation of {estimate} points exceeds budget 2^10\n"


def test_point_budget_default_refuses_2_to_the_40(capsys):
    code, out, err = run(capsys, "gen", "--s", "1", "--m", "40")
    assert code == EXIT_BUDGET and out == ""
    assert "2^40" in err and "2^22" in err


def test_disc_file_point_budget(tmp_path, capsys):
    # 5 points fit 2^3 and are refused at 2^2, from the line count and before Warnock
    pointfile = tmp_path / "pts.txt"
    pointfile.write_text("0.5\n0.25\n0.75\n0.125\n0\n")
    code, out, _ = run(capsys, "disc", "--in", str(pointfile), "--budget-exponent", "3")
    assert code == EXIT_OK and float(out) > 0
    for exponent in ("2", "1"):
        code, out, err = run(capsys, "disc", "--in", str(pointfile), "--budget-exponent", exponent)
        assert code == EXIT_BUDGET and out == ""
        assert err == f"budget exceeded: 5 points in {pointfile} exceed budget 2^{exponent}\n"


def test_disc_file_point_budget_before_parsing(tmp_path, capsys, monkeypatch):
    # the line count is refused before any coordinate is parsed, so a file
    # both over budget and malformed gets the budget message, not a usage error
    pointfile = tmp_path / "pts.txt"
    pointfile.write_text("0.5\n0.25\n0.75\n0.125\nnot-a-number\n")
    parsed = []

    def spy(text, fmt):
        parsed.append(text)
        return parse_coordinate(text, fmt)

    monkeypatch.setattr(hodisc.cli, "parse_coordinate", spy)
    code, out, err = run(capsys, "disc", "--in", str(pointfile), "--budget-exponent", "2")
    assert code == EXIT_BUDGET and out == "" and parsed == []
    assert err == f"budget exceeded: 5 points in {pointfile} exceed budget 2^2\n"


def test_disc_file_precision_cap(tmp_path, capsys):
    # every coordinate is shifted to the file's largest precision, so a
    # hexfrac p-50000000 (a dozen characters) is refused before any shift;
    # a dec exponent as large is decided from digit counts, before 10^k is built
    def expire(signum, frame):
        raise TimeoutError("no result within 5 s")

    def disc_within_5s(text, fmt):
        pointfile.write_text(text)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            return run(capsys, "disc", "--in", str(pointfile), "--format", fmt)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    pointfile = tmp_path / "pts.txt"
    pointfile.write_text("0x0p-1 0x0p-1\n0x1p-1024 0x1p-2\n")
    code, out, _ = run(capsys, "disc", "--in", str(pointfile), "--format", "hexfrac")
    assert code == EXIT_OK and float(out) > 0
    for prec in (1025, 50_000_000):
        code, out, err = disc_within_5s(f"0x0p-1 0x0p-1\n0x1p-{prec} 0x1p-2\n", "hexfrac")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == (f"budget exceeded: precision of {prec} bits in {pointfile} "
                       f"exceeds cap 1024\n")
    code, out, err = disc_within_5s("1e-50000000 0.5\n0.5 0.5\n", "dec")
    assert (code, out) == (EXIT_USAGE, "") and "not dyadic" in err
    assert disc_within_5s("0e-50000000 0.5\n0.5 0.5\n", "dec") == disc_within_5s(
        "0 0.5\n0.5 0.5\n", "dec")
    code, out, err = disc_within_5s(f"0 0\n{format_dec(1025)(1)} 0.5\n", "dec")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == f"budget exceeded: precision of 1025 bits in {pointfile} exceeds cap 1024\n"


@pytest.mark.parametrize("flags,bits", [
    (("--s", "1", "--alpha", "1", "--m", "2", "--shift", "f" * 257), 1028),
    (("--s", "2", "--count", "5", "--shift", "1," + "f" * 300), 1200),
    (("--s", "1", "--alpha", "103", "--m", "10"), 1030),
    (("--s", "1", "--alpha", "1000000", "--m", "1"), 1000000),
])
def test_gen_output_precision_cap(capsys, flags, bits):
    # disc --in refuses a file beyond 1024 bits, so gen refuses to write one
    # before it builds anything (here a net of dimension up to 10^6)
    for fmt in sorted(FORMATTERS):
        code, out, err = run(capsys, "gen", *flags, "--format", fmt)
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == f"budget exceeded: output precision of {bits} bits exceeds cap 1024\n"


@pytest.mark.parametrize("command", [
    ("verify", "--m", "1"), ("dual", "--m", "1"), ("disc", "--m", "1"),
    ("scan", "--nmax", "2"), ("export-matrices", "--m", "1", "--outdir"),
])
def test_generator_cap_refused_before_the_scan(tmp_path, capsys, command):
    # dimension 10^5 needs polynomials beyond the degree-16 scan cap; the
    # refusal comes from their count, before a scan that takes seconds
    def expire(signum, frame):
        raise TimeoutError("no refusal within 1 s")

    argv = command + ((str(tmp_path),) if command[-1] == "--outdir" else ())
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        code, out, err = run(capsys, *argv, "--s", "1", "--alpha", "100000")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: primitive-polynomial scan capped at degree 16\n"


def test_gen_at_the_precision_cap_reads_back(tmp_path, capsys):
    target = tmp_path / "pts.txt"
    for fmt in sorted(FORMATTERS):
        code, _, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "2",
                         "--shift", "f" * 256, "--format", fmt, "--out", str(target))
        assert code == EXIT_OK
        points = read_point_file(str(target), fmt)
        assert [pt.precision for pt in points] == [1024] * 4
        assert points[0].coords == ((1 << 1024) - 1,)


@pytest.mark.parametrize("mode", [("--m", "4"), ("--count", "100")])
def test_disc_generated_needs_s(capsys, mode):
    code, out, err = run(capsys, "disc", *mode)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: need --s to generate points, or --in FILE\n"


@pytest.mark.parametrize("argv,code,out", [
    (("verify", "--s", "2", "--alpha", "1", "--m", "6", "--t", "0"), EXIT_OK,
     "certified: order-1 quality t=0 (formula bound 0)\n"),
    (("verify", "--s", "3", "--alpha", "1", "--m", "4", "--t", "0"), EXIT_VIOLATED,
     "violated: dependent admissible rows (j=2,row=1) (j=3,row=3) (j=3,row=2) (j=3,row=1) "
     "at t=0\n"),
    (("verify", "--s", "3", "--alpha", "3", "--m", "8"), EXIT_OK,
     "trivial: order-3 t=66 reaches alpha*m=24 (formula bound 66); nothing to search\n"),
    (("verify", "--s", "2", "--alpha", "2", "--m", "6", "--t", "0", "--budget", "10"),
     EXIT_BUDGET, "unverified: enumeration of 421 patterns exceeds budget 10\n"),
    (("dual", "--s", "2", "--alpha", "2", "--m", "8", "--budget-exponent", "8"), EXIT_BUDGET,
     "unverified: enumeration of 16777216 patterns exceeds budget 256\n"),
])
def test_verdict_lines_exact(capsys, argv, code, out):
    # a verdict, "unverified" included, is one stdout line and nothing on stderr
    assert run(capsys, *argv) == (code, out, "")


def test_verify_trivial_without_building_the_net(capsys):
    # the 5715 generator polynomials up to degree 16 give a formula bound far
    # beyond alpha*m = 1; it comes from their degree counts, without a scan
    def expire(signum, frame):
        raise TimeoutError("no verdict within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        result = run(capsys, "verify", "--s", "5715", "--alpha", "1", "--m", "1")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result == (EXIT_OK, "trivial: order-1 t=77861 reaches alpha*m=1 "
                               "(formula bound 77861); nothing to search\n", "")


def test_verify_certified_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2", "--alpha", "1", "--m", "6", "--t", "0")
    assert code == EXIT_OK
    assert "certified" in out


def test_verify_never_certifies_a_trivial_or_out_of_range_t(capsys):
    # the order-3 formula bound 66 exceeds alpha*m = 24: nothing to search
    code, out, _ = run(capsys, "verify", "--s", "3", "--alpha", "3", "--m", "8")
    assert code == EXIT_OK
    assert out.startswith("trivial:") and "certified" not in out
    code, out, err = run(capsys, "verify", "--s", "2", "--alpha", "1", "--m", "4", "--t", "99")
    assert code == EXIT_USAGE
    assert "certified" not in out and "out of range" in err


def test_verify_violation_exit_two(capsys):
    # three order-1 dimensions cannot reach t = 0
    code, out, _ = run(capsys, "verify", "--s", "3", "--alpha", "1", "--m", "4", "--t", "0")
    assert code == EXIT_VIOLATED
    assert "violated" in out and "row" in out


def test_verify_budget_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2", "--alpha", "2", "--m", "6",
                       "--t", "0", "--budget", "10")
    assert code == EXIT_BUDGET
    assert "unverified" in out


def test_dual_listing(capsys):
    code, out, _ = run(capsys, "dual", "--s", "1", "--alpha", "1", "--m", "2", "--check")
    assert code == EXIT_OK
    # identity net: truncated-range dual holds only the zero vector
    assert out.splitlines()[0].endswith("dual_size=1")


def test_dual_check_point_budget(capsys):
    # --check builds all 2^m points: 2^10 run, 2^11 are refused before any is built
    code, out, _ = run(capsys, "dual", "--s", "1", "--alpha", "1", "--m", "10", "--check",
                       "--budget-exponent", "10")
    assert code == EXIT_OK and out.startswith("# s=1 m=10 ")
    code, out, err = run(capsys, "dual", "--s", "1", "--alpha", "1", "--m", "11", "--check",
                         "--budget-exponent", "10")
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exceeded: generation of 2^11 points exceeds budget 2^10\n"


def test_dual_check_sum_budget(capsys):
    # --check sums every dual element over every point: 2^3 elements times
    # 2^3 points fit 2^6 and are refused at 2^5, past both other budgets
    argv = ["dual", "--s", "2", "--alpha", "1", "--m", "3", "--check"]
    code, out, _ = run(capsys, *argv, "--budget-exponent", "6")
    assert code == EXIT_OK and len(out.splitlines()) == 8
    code, out, err = run(capsys, *argv, "--budget-exponent", "5")
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exceeded: character sums of 8 dual elements over 2^3 points "
                   "= 64 terms exceed budget 2^5\n")
    code, out, err = run(capsys, "dual", "--s", "2", "--alpha", "1", "--m", "14", "--check")
    assert code == EXIT_BUDGET and out == ""
    assert "= 268435456 terms exceed budget 2^24" in err


def test_main_calls_share_one_parser_and_no_flags(capsys):
    assert build_parser() is build_parser()
    gen = ["gen", "--s", "2", "--alpha", "1", "--m", "2"]
    dual = ["dual", "--s", "2", "--alpha", "1", "--m", "2"]
    _, plain, _ = run(capsys, *gen)
    _, listing, _ = run(capsys, *dual)
    _, shifted, _ = run(capsys, *gen, "--shift", "a0,0")
    _, checked, _ = run(capsys, *dual, "--check")
    assert shifted != plain and "char_sum=" in checked
    assert run(capsys, *gen)[1] == plain
    assert run(capsys, *dual)[1] == listing and "char_sum=" not in listing


def test_rtable(capsys):
    code, out, _ = run(capsys, "rtable", "--kmax", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "k,l,numerator,denominator"
    assert len(lines) == 1 + 16
    assert lines[1] == "0,0,1,3"
    table = {(int(k), int(l)): Fraction(int(n), int(d))
             for k, l, n, d in (ln.split(",") for ln in lines[1:])}
    from hodisc.walsh import r_coeff

    assert all(table[k, l] == r_coeff(k, l) for k in range(4) for l in range(4))


def test_rtable_line_budget(capsys):
    # 4^11 lines fill the 2^22 budget exactly, 4^12 exceed it
    code, out, err = run(capsys, "rtable", "--kmax", "11", "--out", os.devnull)
    assert (code, out, err) == (EXIT_OK, "", "")
    code, out, err = run(capsys, "rtable", "--kmax", "12")
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exceeded: rtable of 4^12 = 16777216 lines exceeds budget 2^22\n"


def test_export_matrices(tmp_path, capsys):
    outdir = tmp_path / "mats"
    code, out, _ = run(capsys, "export-matrices", "--s", "2", "--alpha", "2",
                       "--m", "3", "--outdir", str(outdir))
    assert code == EXIT_OK
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["s"] == 2 and meta["alpha"] == 2 and meta["depth"] == 6
    from hodisc.genmat import sequence_net
    from hodisc.gf2 import BitMatrix

    g = sequence_net(2, 2, 3)
    for j in (1, 2):
        text = (outdir / f"matrix_{j}.txt").read_text()
        assert BitMatrix.from_text(text) == g.matrices[j - 1]


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--s", "not-a-number", "--m", "3"])
    assert info.value.code == EXIT_USAGE


def test_missing_mode_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--s", "1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "points.txt"
    code, out, _ = run(capsys, "gen", "--s", "1", "--alpha", "1", "--m", "2",
                       "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().splitlines() == ["0", "0.5", "0.25", "0.75"]


def test_format_helpers_exact():
    assert format_dec(3)(5) == "0.625"
    assert format_dec(7)(0) == "0"
    assert format_dec(10)(1) == "0.0009765625"
    assert format_hexfrac(8)(0xA8) == "0xa8p-8"
    assert format_bin(4)(5) == "0.0101"
    assert parse_coordinate("0.625", "dec") == (5, 3)
    assert parse_coordinate("0xa8p-8", "hexfrac") == (0xA8, 8)
    assert parse_coordinate("0.0101", "bin") == (5, 4)
    with pytest.raises(ValueError):
        parse_coordinate("0.2", "dec")  # not dyadic
    # int() and Fraction() take digit separators and signs; no formatter writes them
    for text, fmt in [("0x1_0p-8", "hexfrac"), ("0x1p-+3", "hexfrac"), ("0.1_0", "bin"),
                      ("0.+1", "bin"), ("0.1_0", "dec"), ("+0.5", "dec"), ("-0", "dec"),
                      # numerators of 2^precision or more: values outside [0,1)
                      ("0x10p-4", "hexfrac"), ("0x1p-0", "hexfrac")]:
        with pytest.raises(ValueError):
            parse_coordinate(text, fmt)
    # a signed exponent in dec is still read, as float repr writes it
    assert parse_coordinate("9.5367431640625e-07", "dec") == (1, 20)


def _fraction_route(text):
    """A dec coordinate read through Fraction, with the rejections
    parse_coordinate makes before it."""
    text = text.strip()
    if "_" in text or text.startswith(("+", "-")):
        raise ValueError(text)
    value = Fraction(text)
    den = value.denominator
    if value < 0 or value >= 1 or den & (den - 1):
        raise ValueError(text)
    return value.numerator, den.bit_length() - 1


def _dec_outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "rejected"


_FLOAT_REPRS = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@given(st.one_of(
    st.tuples(st.sampled_from(sorted(FORMATTERS)), st.integers(0, 90)).flatmap(
        lambda fp: st.integers(0, (1 << fp[1]) - 1).map(FORMATTERS[fp[0]](fp[1]))),
    _FLOAT_REPRS,
    _FLOAT_REPRS.map(lambda r: r.upper()),
    st.integers(0, (1 << 24) - 1).map(lambda j: repr(j * 2.0**-24)),
    st.from_regex(r"\A[0-9]{0,3}\.?[0-9]{0,4}([eE][+-]?[0-9]{1,2})?\Z"),
))
def test_dec_parser_equals_the_fraction_route(text):
    # on every formatter's output (hexfrac and bin text are rejected as
    # decimals by both), float reprs with exponents and decimal shapes
    assert _dec_outcome(lambda t: parse_coordinate(t, "dec"), text) == _dec_outcome(
        _fraction_route, text)


@st.composite
def _point_rows(draw):
    """Rows of (numerator, precision) pairs: s coordinates at one precision."""
    s = draw(st.integers(1, 4))
    prec = draw(st.integers(0, 70))
    coord = st.integers(0, (1 << prec) - 1)
    n = draw(st.integers(1, 6))
    return [[draw(coord) for _ in range(s)] for _ in range(n)], prec


def _write_points(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    return path


def _point_text(rows, prec, fmt):
    return "".join(" ".join(map(FORMATTERS[fmt](prec), row)) + "\n" for row in rows)


@given(st.sampled_from(sorted(FORMATTERS)), st.integers(0, 90), st.data())
def test_coordinate_formats_round_trip(fmt, prec, data):
    num = data.draw(st.integers(0, (1 << prec) - 1))
    got_num, got_prec = parse_coordinate(FORMATTERS[fmt](prec)(num), fmt)
    assert Fraction(got_num, 1 << got_prec) == Fraction(num, 1 << prec)
    if fmt != "dec":  # dec prints the shortest expansion, so only the value is kept
        assert (got_num, got_prec) == (num, prec)


@settings(deadline=None)
@given(st.sampled_from(sorted(FORMATTERS)), _point_rows())
def test_point_files_round_trip(fmt, rows_prec):
    rows, prec = rows_prec
    path = _write_points(_point_text(rows, prec, fmt))
    try:
        points = read_point_file(path, fmt)
    finally:
        os.unlink(path)
    if fmt == "dec":
        assert [[Fraction(c, 1 << pt.precision) for c in pt.coords] for pt in points] == [
            [Fraction(c, 1 << prec) for c in row] for row in rows
        ]
    else:
        assert points == [DyadicPoint(tuple(row), prec) for row in rows]


_DIGITS = {"dec": "0123456789", "hexfrac": "0123456789abcdef", "bin": "01"}


def _separated(draw, token, fmt):
    """token with a leading zero digit and a `_` between two digits, which
    int() and Fraction() would read as the same value."""
    padded = {"dec": "0" + token, "hexfrac": "0x0" + token[2:],
              "bin": "0.0" + (token[2:] or "0")}[fmt]
    spots = [k for k in range(1, len(padded))
             if padded[k - 1] in _DIGITS[fmt] and padded[k] in _DIGITS[fmt]]
    k = draw(st.sampled_from(spots))
    parse_coordinate(padded, fmt)  # the defect alone makes the token invalid
    return padded[:k] + "_" + padded[k:]


def _signed(draw, token, fmt):
    sign = draw(st.sampled_from("+-"))
    if fmt == "hexfrac":  # "p--" is the negative-precision defect
        return token.replace("p-", "p-+") if sign == "+" else "-" + token
    if fmt == "bin":
        return "0." + sign + (token[2:] or "0")
    return sign + token


def _non_ascii(draw, token, fmt):
    """token with one ASCII digit after its `0x` or `0.` prefix (anywhere in
    dec) replaced by a non-ASCII digit of the same value, which int() would
    read as the same value."""
    if fmt == "bin" and token == "0":
        token = "0.0"
    spots = [k for k in range(0 if fmt == "dec" else 2, len(token)) if token[k] in _DIGITS["dec"]]
    k = draw(st.sampled_from(spots))
    parse_coordinate(token, fmt)  # the defect alone makes the token invalid
    # the zeros of the Arabic-Indic, Extended Arabic-Indic, Devanagari and fullwidth digits
    zero = draw(st.sampled_from("\u0660\u06f0\u0966\uff10"))
    return token[:k] + chr(ord(zero) + int(token[k])) + token[k + 1:]


@st.composite
def _malformed_point_files(draw):
    """A valid point file with one defect: a ragged row, a non-dyadic dec
    value, a hexfrac numerator of 2^prec or more, a negative precision, a
    `_` digit separator, a sign or a non-ASCII digit."""
    fmt, kind = draw(st.sampled_from([
        ("dec", "ragged"), ("hexfrac", "ragged"), ("bin", "ragged"),
        ("dec", "non-dyadic"), ("hexfrac", "too-large"), ("hexfrac", "negative-precision"),
        ("dec", "separator"), ("hexfrac", "separator"), ("bin", "separator"),
        ("dec", "sign"), ("hexfrac", "sign"), ("bin", "sign"),
        ("dec", "non-ascii-digit"), ("hexfrac", "non-ascii-digit"), ("bin", "non-ascii-digit"),
    ]))
    rows, prec = draw(_point_rows())
    lines = [list(map(FORMATTERS[fmt](prec), row)) for row in rows]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    if kind == "ragged":
        lines.append(list(lines[i]))  # keeps a row of the original length
        if len(lines[i]) > 1 and draw(st.booleans()):
            del lines[i][j]
        else:
            lines[i].insert(j, FORMATTERS[fmt](prec)(0))
    elif kind == "non-dyadic":
        den = draw(st.integers(1, 1 << 20)) * draw(st.sampled_from([3, 5, 7, 9, 11, 25]))
        value = Fraction(draw(st.integers(0, den - 1)), den)
        token = draw(st.sampled_from([str(value), repr(float(value))]))
        den = Fraction(token).denominator
        assume(den & (den - 1))
        lines[i][j] = token
    elif kind == "too-large":
        lines[i][j] = f"0x{draw(st.integers(1 << prec, 1 << (prec + 8))):x}p-{prec}"
    elif kind == "negative-precision":
        lines[i][j] = f"0x{draw(st.integers(0, 255)):x}p--{draw(st.integers(1, 70))}"
    elif kind == "separator":
        lines[i][j] = _separated(draw, lines[i][j], fmt)
    elif kind == "non-ascii-digit":
        lines[i][j] = _non_ascii(draw, lines[i][j], fmt)
    else:
        lines[i][j] = _signed(draw, lines[i][j], fmt)
    return fmt, "".join(" ".join(ln) + "\n" for ln in lines)


@settings(deadline=None)
@given(_malformed_point_files())
def test_malformed_point_files_exit_64(fmt_text):
    fmt, text = fmt_text
    path = _write_points(text)
    try:
        assert main(["disc", "--in", path, "--format", fmt]) == EXIT_USAGE
    finally:
        os.unlink(path)
