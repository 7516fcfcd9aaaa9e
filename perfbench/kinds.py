"""What each job kind runs, what it keeps of the result, and how it is checked.

``run`` is the timed user-level operation.  It calls hodisc through module
attributes (``H.warnock_l2``, ``H.cli.main``) looked up at call time, so the
traced run's rebinding sees every call.  ``summarize`` reduces the raw
result to a small comparable record outside the timed region.  ``check``
compares that record against an independent route and returns
``(ok, detail, measures)``; it also runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
from fractions import Fraction

import numpy as np

import hodisc as H
import hodisc.cli  # noqa: F401  (binds H.cli)

# Float L2^2 is 3^-s minus and plus sums of terms of that size, so its
# rounding error is a few ulps of 3^-s however small L2^2 is; relative to L2
# it grows roughly like N^2 (about 2e-10 at N=1024 and 3e-8 at N=8192 in
# 1-d today, see discrepancy.float_rel_err_max).  Two routes to L2^2 must
# agree within FLOAT_ULPS ulps of 3^-s; today they differ by at most about 1.4.
FLOAT_ULPS = 64
# Two routes that both end in math.sqrt of the same exact rational.
SAME_RATIONAL_RTOL = 4e-16
# Midpoint-rule bias bound of the 2-d quadrature oracle, as in the tests.
MIDPOINT_BIAS = 5.0
# The 2-d oracle's float mean of a million squared terms against the exact
# midpoint sum; today they agree to the last bit on every job.
MIDPOINT_RTOL = 1e-12
EXACT_PREFIX = 256  # scan row checked against the exact one-shot


class Ctx:
    """Where a run keeps its point files and command outputs."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def path(self, job: dict, suffix: str) -> str:
        return os.path.join(self.workdir, f"job{job['id']}.{suffix}")


# ---- shared helpers -------------------------------------------------------


def shift_point(text: str) -> H.DyadicPoint:
    parts = text.split(",")
    prec = 4 * max(len(p) for p in parts)
    return H.DyadicPoint(tuple(int(p, 16) << (prec - 4 * len(p)) for p in parts), prec)


def _width(nmax: int) -> int:
    return max((nmax - 1).bit_length(), 1)


def _net(job: dict):
    return H.sequence_net(job["s"], job["alpha"], job["m"])


def job_points(job: dict) -> list:
    """The job's net (its first ``nmax`` points for a scan), digitally shifted
    if the job has a shift."""
    count = job.get("nmax")
    m = job["m"] if "m" in job else _width(count)
    g = H.sequence_net(job["s"], job["alpha"], m)
    pts = H.net_points(g, count=count)
    if job.get("shift"):
        sigma = shift_point(job["shift"])
        pts = [H.digital_shift(pt, sigma) for pt in pts]
    return pts


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = H.cli.main(argv)
    return code, out.getvalue()


def digest(points) -> str:
    h = hashlib.sha1()
    for pt in points:
        h.update(repr((pt.coords, pt.precision)).encode())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def same_values(a, b) -> bool:
    """Two point lists hold the same coordinate values, whatever their precisions."""
    if len(a) != len(b):
        return False
    p = max(pt.precision for pt in (*a, *b))
    return all(tuple(c << (p - x.precision) for c in x.coords)
               == tuple(c << (p - y.precision) for c in y.coords) for x, y in zip(a, b))


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def in_dual(ks, matrices) -> bool:
    """Membership in the dual net from the defining system sum_j C_j^T k_j = 0."""
    acc = 0
    for k, mat in zip(ks, matrices):
        i = 0
        while k:
            if k & 1 and i < mat.rows:
                acc ^= mat.data[i]
            k >>= 1
            i += 1
    return acc == 0


def dual_element(dual, bits: int) -> tuple[int, ...]:
    """The dual vector that XORs the basis masks picked by ``bits``."""
    mask = 0
    for i, b in enumerate(dual.basis):
        if bits >> i & 1:
            mask ^= b
    keep = (1 << dual.digit_range) - 1
    return tuple((mask >> (j * dual.digit_range)) & keep for j in range(dual.s))


def _dependent(rows: list[int]) -> bool:
    """True iff the GF(2) row masks are linearly dependent."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
        else:
            return True
    return False


def check_witness(g, alpha: int, t: int, witness) -> tuple[bool, str]:
    """A witness of order-alpha violation at quality t, checked from scratch."""
    m = g.width
    rows = []
    per_coord: dict[int, list[int]] = {}
    for j, i in witness:
        if not (0 <= j < g.s and 1 <= i <= g.depth):
            return False, f"witness row ({j},{i}) out of range"
        rows.append(g.matrices[j].data[i - 1])
        per_coord.setdefault(j, []).append(i)
    for sel in per_coord.values():
        if len(set(sel)) != len(sel):
            return False, "witness repeats a row"
    weight = sum(sum(sorted(sel, reverse=True)[:alpha]) for sel in per_coord.values())
    if weight > alpha * m - t:
        return False, f"witness weight {weight} exceeds {alpha * m - t}"
    if not _dependent(rows):
        return False, "witness rows are independent"
    return True, ""


def _count_primitive(e: int) -> int:
    """Primitive polynomials of degree e over GF(2): phi(2^e - 1) / e."""
    n = (1 << e) - 1
    phi, rest, d = n, n, 2
    while d * d <= rest:
        if rest % d == 0:
            phi -= phi // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        phi -= phi // rest
    return phi // e


def formula_t_bound(s: int, alpha: int) -> int:
    """alpha * sum_j (deg p_j - 1) + s * alpha(alpha-1)/2 over the first s*alpha
    generator polynomials (x, then primitive ones by degree)."""
    degrees = [1]
    e = 1
    while len(degrees) < s * alpha:
        degrees += [e] * _count_primitive(e)
        e += 1
    t1 = sum(d - 1 for d in degrees[: s * alpha])
    return alpha * t1 + s * (alpha * (alpha - 1) // 2)


# ---- disc_float -----------------------------------------------------------


def run_warnock(job, ctx):
    return H.warnock_l2(job_points(job), exact=False)


def float_ulps(a: float, b: float, s: int) -> float:
    """|a^2 - b^2| for two L2 values, in ulps of the leading term 3^-s."""
    return abs(a * a - b * b) / (math.ulp(1.0) * 3.0 ** -s)


def check_float_value(job, value, pts):
    """Float L2 against exact (N <= 1024) or against the float scan's last row."""
    n, s = len(pts), job["s"]
    if n <= 1024:
        exact = math.sqrt(H.warnock_l2_sq(pts, exact=True))
        ulps = float_ulps(value, exact, s)
        return (ulps <= FLOAT_ULPS, f"float vs exact {ulps:.3g} ulps",
                {"float_rel_err": rel(value, exact)})
    last = H.warnock_scan(pts, n, exact=False).rows[-1].l2
    ulps = float_ulps(value, last, s)
    return ulps <= FLOAT_ULPS, f"one-shot vs scan {ulps:.3g} ulps", {}


def check_warnock(job, value, ctx):
    return check_float_value(job, value, job_points(job))


def run_scan(job, ctx):
    return H.warnock_scan(job_points(job), job["nmax"], exact=False)


def summarize_scan(job, report, ctx):
    rows = report.rows
    return {"rows": len(rows), "first": rows[0].n, "last": rows[-1].n,
            "l2_prefix": rows[EXACT_PREFIX - 2].l2,
            "l2_last": rows[-1].l2,
            "digest": hashlib.sha1(report.to_csv().encode()).hexdigest()}


def check_scan(job, summ, ctx):
    nmax = job["nmax"]
    if (summ["rows"], summ["first"], summ["last"]) != (nmax - 1, 2, nmax):
        return False, f"scan rows {summ['rows']} from {summ['first']} to {summ['last']}", {}
    pts = job_points(job)
    exact = math.sqrt(H.warnock_l2_sq(pts[:EXACT_PREFIX], exact=True))
    measures = {"float_rel_err": rel(summ["l2_prefix"], exact)}
    ulps = float_ulps(summ["l2_prefix"], exact, job["s"])
    if ulps > FLOAT_ULPS:
        return False, f"scan row {EXACT_PREFIX} vs exact {ulps:.3g} ulps", measures
    ulps = float_ulps(summ["l2_last"], H.warnock_l2(pts, exact=False), job["s"])
    return ulps <= FLOAT_ULPS, f"scan last vs one-shot {ulps:.3g} ulps", measures


def prep_disc_file(job, ctx):
    argv = ["gen", "--s", str(job["s"]), "--alpha", str(job["alpha"]), "--m", str(job["m"]),
            "--shift", job["shift"], "--format", job["format"],
            "--out", ctx.path(job, job["format"])]
    code, _ = call_cli(argv)
    if code != 0:
        raise RuntimeError(f"writing the point file failed with exit {code}")


def run_disc_file(job, ctx):
    return call_cli(["disc", "--in", ctx.path(job, job["format"]), "--format", job["format"],
                     "--out", ctx.path(job, "out")])[0]


def summarize_cli_value(job, code, ctx):
    value = None
    if code == 0:
        with open(ctx.path(job, "out")) as fh:
            value = float(fh.read())
    return {"code": code, "value": value}


def check_disc_file(job, summ, ctx):
    if summ["code"] != 0:
        return False, f"exit {summ['code']}", {}
    return check_float_value(job, summ["value"], job_points(job))


# ---- disc_exact -----------------------------------------------------------


def run_quad_2d(job, ctx):
    return H.quadrature_oracle_l2(job_points(job), grid=job["grid"])


def midpoint_l2(pts, grid: int) -> float:
    """The 2-d midpoint rule for the L2 discrepancy, summed exactly.

    With G = 2^grid midpoints x_i = (i + 1/2)/G per axis and r_k the number
    of them above coordinate p_k, the mean of (count/N - x_i y_j)^2 over the
    mesh expands Warnock-style into a sum over point pairs of
    min(r_k1, r_l1) min(r_k2, r_l2), a sum over points of the products of
    sum_{top r} x_i = r(2G - r)/(2G), and (sum_i x_i^2)^2.
    """
    G, n = 1 << grid, len(pts)
    r = [[G - min(G, math.floor(Fraction(c, 1 << pt.precision) * G + Fraction(1, 2)))
          for c in pt.coords] for pt in pts]
    a = np.array([row[0] for row in r], dtype=np.int64)
    b = np.array([row[1] for row in r], dtype=np.int64)
    pairs = int((np.minimum.outer(a, a) * np.minimum.outer(b, b)).sum())
    cross = sum(int(x) * (2 * G - int(x)) * int(y) * (2 * G - int(y)) for x, y in zip(a, b))
    sq = Fraction(G * (4 * G * G - 1), 12 * G * G)
    total = (Fraction(pairs, n * n) - Fraction(2 * cross, n * 4 * G * G) + sq * sq) / (G * G)
    return math.sqrt(total)


def check_quad_2d(job, value, ctx):
    """The oracle against an exact midpoint sum on the same mesh, and, within
    the rule's bias, against Warnock."""
    pts = job_points(job)
    mid = midpoint_l2(pts, job["grid"])
    err = rel(value, mid)
    if err > MIDPOINT_RTOL:
        return False, f"oracle vs exact midpoint sum rel {err:.3g}", {"midpoint_rel_err": err}
    gap = abs(value - H.warnock_l2(pts, exact=False))
    bias = MIDPOINT_BIAS * 2.0 ** -job["grid"]
    return gap <= bias, f"midpoint vs Warnock {gap:.3g}", {"midpoint_rel_err": err,
                                                            "midpoint_bias_gap": gap / bias}


def run_walsh(job, ctx):
    return H.walsh_series_l2(job_points(job), job["trunc"])


def check_walsh(job, value, ctx):
    """Over a digital net the Walsh mean is 1 on dual vectors and 0 elsewhere,
    so the truncated series is a sum of r products over dual pairs only."""
    g = _net(job)
    top = 1 << job["trunc"]
    members = []
    for flat in range(1, top ** job["s"]):
        ks = tuple((flat // top ** j) % top for j in range(job["s"]))
        if in_dual(ks, g.matrices):
            members.append(ks)
    total = Fraction(0)
    for ks in members:
        for ls in members:
            term = Fraction(1)
            for k, l in zip(ks, ls):
                term *= H.r_coeff(k, l)
            total += term
    diff = float(total) - value
    return abs(diff) <= 1e-15, f"series vs dual-pair sum {diff:.3g}", {}


def run_quad_1d(job, ctx):
    return H.quadrature_oracle_l2(job_points(job))


def check_quad_1d(job, value, ctx):
    exact = math.sqrt(H.warnock_l2_sq(job_points(job), exact=True))
    err = rel(value, exact)
    return err <= SAME_RATIONAL_RTOL, f"1-d quadrature vs exact Warnock rel {err:.3g}", {}


def run_exact_warnock(job, ctx):
    return H.warnock_l2_sq(job_points(job), exact=True)


def summarize_fraction(job, value, ctx):
    return {"num": str(value.numerator), "den": str(value.denominator)}


def check_exact_value(job, l2, pts):
    """An exact L2 value against the 1-d oracle (s=1) or the float path."""
    if job["s"] == 1:
        quad = H.quadrature_oracle_l2(pts)
        err = rel(l2, quad)
        if err > SAME_RATIONAL_RTOL:
            return False, f"exact vs 1-d quadrature rel {err:.3g}", {}
    else:
        quad = H.quadrature_oracle_l2(pts, grid=10)
        if abs(l2 - quad) > MIDPOINT_BIAS * 2.0 ** -10:
            return False, f"exact vs 2-d midpoint {abs(l2 - quad):.3g}", {}
    value = H.warnock_l2(pts, exact=False)
    ulps = float_ulps(value, l2, job["s"])
    return ulps <= FLOAT_ULPS, f"float vs exact {ulps:.3g} ulps", {"float_rel_err": rel(value, l2)}


def check_exact_warnock(job, summ, ctx):
    value = Fraction(int(summ["num"]), int(summ["den"]))
    return check_exact_value(job, math.sqrt(value), job_points(job))


def run_exact_scan(job, ctx):
    return H.warnock_scan(job_points(job), job["nmax"], exact=True)


def check_exact_scan(job, summ, ctx):
    nmax = job["nmax"]
    if (summ["rows"], summ["first"], summ["last"]) != (nmax - 1, 2, nmax):
        return False, f"scan rows {summ['rows']} from {summ['first']} to {summ['last']}", {}
    pts = job_points(job)
    one = math.sqrt(H.warnock_l2_sq(pts, exact=True))
    err = rel(summ["l2_last"], one)
    if err > SAME_RATIONAL_RTOL:
        return False, f"exact scan vs exact one-shot rel {err:.3g}", {}
    return check_exact_value(job, one, pts)


def run_disc_exact_cli(job, ctx):
    return call_cli(["disc", "--in", ctx.path(job, job["format"]), "--format", job["format"],
                     "--exact", "--out", ctx.path(job, "out")])[0]


def check_disc_exact_cli(job, summ, ctx):
    if summ["code"] != 0:
        return False, f"exit {summ['code']}", {}
    return check_exact_value(job, summ["value"], job_points(job))


# ---- certify --------------------------------------------------------------


def run_sct(job, ctx):
    return H.smallest_certified_t(_net(job), job["alpha"])


def check_sct(job, t, ctx):
    """t must not exceed the formula bound, nothing may violate t, and t-1
    must have a valid witness."""
    g = _net(job)
    alpha, m = job["alpha"], job["m"]
    bound = min(formula_t_bound(job["s"], alpha), alpha * m)
    if not 0 <= t <= bound:
        return False, f"t={t} outside 0..{bound}", {}
    if H.find_dependency(g, alpha, t) is not None:
        return False, f"a witness violates t={t}", {}
    if t == 0:
        return True, "", {}
    witness = H.find_dependency(g, alpha, t - 1)
    if witness is None:
        return False, f"no witness at t-1={t - 1}", {}
    return check_witness(g, alpha, t - 1, witness) + ({},)


def run_find_dep(job, ctx):
    g = _net(job)
    t = g.t_bound if job["t"] is None else job["t"]
    return t, H.find_dependency(g, job["alpha"], t)


def check_find_dep(job, summ, ctx):
    """At the formula bound nothing may be found; below the certified t a
    witness must come back and hold up."""
    t, witness = summ
    if job["t"] is None:
        bound = formula_t_bound(job["s"], job["alpha"])
        return t == bound and witness is None, f"t={t} (formula {bound}) witness {witness}", {}
    if witness is None:
        return False, f"no witness at t={t}", {}
    return check_witness(_net(job), job["alpha"], t, witness) + ({},)


def run_dual(job, ctx):
    dual = H.dual_enumerate(_net(job))
    return dual, H.dual_min_weight(dual, job["order"])


def summarize_dual(job, raw, ctx):
    dual, w = raw
    rng = random.Random(job["id"])
    sample = [dual_element(dual, rng.getrandbits(len(dual.basis))) for _ in range(16)]
    return {"size": dual.size(), "weight": w, "sample": sample}


def check_dual(job, summ, ctx):
    """Duality: smallest certified t == max(0, a*m + 1 - min order-a dual weight)."""
    g = _net(job)
    order, m = job["order"], job["m"]
    if summ["size"] != 1 << (job["s"] * g.depth - m):
        return False, f"dual size {summ['size']}", {}
    if not all(in_dual(ks, g.matrices) for ks in summ["sample"]):
        return False, "sampled element outside the dual", {}
    t = H.smallest_certified_t(g, order)
    want = max(0, order * m + 1 - summ["weight"])
    return t == want, f"primal t={t} dual-derived t={want}", {}


def run_char_sum(job, ctx):
    g = _net(job)
    pts = H.net_points(g)
    dual = H.dual_enumerate(g)
    top = 1 << dual.digit_range
    vectors = [ks for ks in (dual_element(dual, bits) for bits in job["picks"]) if any(ks)]
    for bits in job["others"]:
        vectors.append(tuple((bits >> (16 * j)) % top for j in range(job["s"])))
    return [(ks, H.character_sum(pts, ks)) for ks in vectors]


def check_char_sum(job, sums, ctx):
    g = _net(job)
    n = 1 << job["m"]
    for ks, value in sums[: len(sums) - len(job["others"])]:
        if not in_dual(ks, g.matrices) or value != n:
            return False, f"dual element {ks} has character sum {value}", {}
    for ks, value in sums[len(sums) - len(job["others"]):]:
        want = n if in_dual(ks, g.matrices) else 0
        if value != want:
            return False, f"vector {ks} has character sum {value}, want {want}", {}
    return True, "", {}


def _verify_argv(job):
    argv = ["verify", "--s", str(job["s"]), "--alpha", str(job["alpha"]), "--m", str(job["m"])]
    if job.get("t") is not None:
        argv += ["--t", str(job["t"])]
    return argv


def run_verify_cli(job, ctx):
    return call_cli(_verify_argv(job))


def summarize_output(job, raw, ctx):
    code, text = raw
    return {"code": code, "text": text}


_WITNESS = re.compile(r"\(j=(\d+),row=(\d+)\)")


def check_verify_cli(job, summ, ctx):
    code, text = summ["code"], summ["text"]
    alpha = job["alpha"]
    if job.get("t") is None:
        bound = formula_t_bound(job["s"], alpha)
        want = f"certified: order-{alpha} quality t={bound} (formula bound {bound})"
        return code == 0 and text.strip() == want, f"exit {code}: {text.strip()[:80]}", {}
    if code != 2 or not text.startswith("violated:"):
        return False, f"exit {code} below the certified t: {text.strip()[:80]}", {}
    witness = [(int(j) - 1, int(i)) for j, i in _WITNESS.findall(text)]
    g = _net(job)
    return check_witness(g, alpha, job["t"], witness) + ({},)


def run_budget_cli(job, ctx):
    argv = [job["command"], "--s", str(job["s"]), "--alpha", str(job["alpha"]),
            "--m", str(job["m"])]
    if job["command"] == "verify":
        argv += ["--budget", str(job["budget"])]
    else:
        argv += ["--budget-exponent", str(job["budget_exponent"])]
    return call_cli(argv)


_BUDGET = re.compile(r"^unverified: enumeration of (\d+) patterns exceeds budget (\d+)$")


def check_budget_cli(job, summ, ctx):
    got = _BUDGET.match(summ["text"].strip())
    if summ["code"] != 3 or not got:
        return False, f"exit {summ['code']}: {summ['text'].strip()[:80]}", {}
    estimate, budget = int(got.group(1)), int(got.group(2))
    if job["command"] == "verify":
        return budget == job["budget"] and estimate > budget, summ["text"].strip(), {}
    alpha, m, s = job["alpha"], job["m"], job["s"]
    want = 1 << (s * alpha * m - m)
    return (budget == 1 << job["budget_exponent"] and estimate == want), summ["text"].strip(), {}


def run_dual_cli(job, ctx):
    return call_cli(["dual", "--s", str(job["s"]), "--alpha", str(job["alpha"]),
                     "--m", str(job["m"]), "--check", "--out", ctx.path(job, "out")])[0]


def summarize_file(job, code, ctx):
    path = ctx.path(job, "out")
    return {"code": code, "digest": file_digest(path) if code == 0 else None}


def check_dual_cli(job, summ, ctx):
    if summ["code"] != 0:
        return False, f"exit {summ['code']}", {}
    path = ctx.path(job, "out")
    if file_digest(path) != summ["digest"]:
        return False, "output file changed between runs", {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    size = int(lines[0].rsplit("dual_size=", 1)[1])
    g = _net(job)
    n = 1 << job["m"]
    if size != 1 << (job["s"] * g.depth - job["m"]) or len(lines) != size:
        return False, f"dual_size={size} with {len(lines) - 1} elements", {}
    seen = set()
    for line in lines[1:]:
        head, mu_part, char_part = line.split("  ")
        ks = tuple(int(tok) for tok in head.split())
        mu = sum(k.bit_length() for k in ks)
        if (not in_dual(ks, g.matrices) or ks in seen or not any(ks)
                or mu_part != f"mu={mu}" or char_part != f"char_sum={n}"):
            return False, f"bad dual line {line!r}", {}
        seen.add(ks)
    return True, "", {}


# ---- construct ------------------------------------------------------------


def _interlaced_reference(job, indices):
    """Points n of the order-alpha net via point interlacing of the order-1 net."""
    base = H.sobol_matrices(job["s"] * job["alpha"], job["m"], job["m"])
    return [H.interlace_point(H.nth_point(base, n), job["alpha"]) for n in indices]


def run_nth_point(job, ctx):
    g = _net(job)
    return [H.nth_point(g, n) for n in job["indices"]]


def summarize_points(job, pts, ctx):
    return {"count": len(pts), "digest": digest(pts)}


def check_nth_point(job, summ, ctx):
    ref = _interlaced_reference(job, job["indices"])
    return summ["digest"] == digest(ref), "nth_point vs interlace_point", {}


def run_net_points(job, ctx):
    return H.net_points(_net(job))


def check_net_points(job, summ, ctx):
    if summ["count"] != 1 << job["m"]:
        return False, f"{summ['count']} points", {}
    pts = H.net_points(_net(job))
    if digest(pts) != summ["digest"]:
        return False, "points differ between runs", {}
    rng = random.Random(job["id"])
    sample = sorted(rng.sample(range(len(pts)), 32))
    ref = _interlaced_reference(job, sample)
    ok = all(pts[n] == r for n, r in zip(sample, ref))
    return ok, "matrix interlacing vs interlace_point", {}


def run_shift(job, ctx):
    return job_points(job)


def check_shift(job, summ, ctx):
    plain = H.net_points(_net(job))
    sigma = shift_point(job["shift"])
    p = max(plain[0].precision, sigma.precision)
    sig = [c << (p - sigma.precision) for c in sigma.coords]
    ref = [H.DyadicPoint(tuple((c << (p - pt.precision)) ^ d for c, d in zip(pt.coords, sig)), p)
           for pt in plain]
    return summ["digest"] == digest(ref), "digital_shift vs XOR of numerators", {}


def run_corollary(job, ctx):
    return H.corollary_pointset(job["s"], job["count"])


def _corollary_reference(job):
    """corollary_pointset's stored numerators: the exact rationals rounded
    toward zero at 128 bits."""
    prec = 128
    return [H.DyadicPoint(tuple((c.numerator << prec) // c.denominator for c in row), prec)
            for row in H.corollary_exact_coords(job["s"], job["count"])]


def check_corollary(job, summ, ctx):
    if summ["count"] != job["count"]:
        return False, f"{summ['count']} points for N={job['count']}", {}
    return summ["digest"] == digest(_corollary_reference(job)), "corollary vs exact coordinates", {}


def _gen_argv(job, ctx):
    if "count" in job:
        argv = ["gen", "--s", str(job["s"]), "--count", str(job["count"])]
    else:
        argv = ["gen", "--s", str(job["s"]), "--alpha", str(job["alpha"]), "--m", str(job["m"])]
        if job.get("shift"):
            argv += ["--shift", job["shift"]]
    return argv + ["--format", job["format"], "--out", ctx.path(job, "out")]


def run_gen(job, ctx):
    return call_cli(_gen_argv(job, ctx))[0]


def check_gen(job, summ, ctx):
    if summ["code"] != 0:
        return False, f"exit {summ['code']}", {}
    path = ctx.path(job, "out")
    if file_digest(path) != summ["digest"]:
        return False, "output file changed between runs", {}
    back = H.cli.read_point_file(path, job["format"])
    if "count" in job:
        ref = H.corollary_pointset(job["s"], job["count"])
    else:
        ref = job_points(job)
    return same_values(back, ref), "gen file read back vs API points", {}


def _identity(job, raw, ctx):
    return raw


KINDS = {
    # kind: (run, summarize, check, prep)
    "warnock": (run_warnock, _identity, check_warnock, None),
    "scan": (run_scan, summarize_scan, check_scan, None),
    "disc_file": (run_disc_file, summarize_cli_value, check_disc_file, prep_disc_file),
    "quad_2d": (run_quad_2d, _identity, check_quad_2d, None),
    "walsh": (run_walsh, _identity, check_walsh, None),
    "quad_1d": (run_quad_1d, _identity, check_quad_1d, None),
    "exact_warnock": (run_exact_warnock, summarize_fraction, check_exact_warnock, None),
    "exact_scan": (run_exact_scan, summarize_scan, check_exact_scan, None),
    "disc_exact_cli": (run_disc_exact_cli, summarize_cli_value, check_disc_exact_cli,
                       prep_disc_file),
    "sct": (run_sct, _identity, check_sct, None),
    "find_dep": (run_find_dep, _identity, check_find_dep, None),
    "dual": (run_dual, summarize_dual, check_dual, None),
    "char_sum": (run_char_sum, _identity, check_char_sum, None),
    "verify_cli": (run_verify_cli, summarize_output, check_verify_cli, None),
    "budget_cli": (run_budget_cli, summarize_output, check_budget_cli, None),
    "dual_cli": (run_dual_cli, summarize_file, check_dual_cli, None),
    "nth_point": (run_nth_point, summarize_points, check_nth_point, None),
    "net_points": (run_net_points, summarize_points, check_net_points, None),
    "shift": (run_shift, summarize_points, check_shift, None),
    "corollary": (run_corollary, summarize_points, check_corollary, None),
    "gen": (run_gen, summarize_file, check_gen, None),
    "gen_count": (run_gen, summarize_file, check_gen, None),
}
