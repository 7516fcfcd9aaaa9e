"""Job lists for the hodisc benchmark: a pure function of (workload, seed).

A job list is a run of rounds.  Every round holds one job per slot of
the workload, in a seed-shuffled order.  A slot fixes the dimension and
the size band of its job, so every seed gives rounds of nearly the same
cost; the seed picks the order alpha, the digital shift, the exact size
inside the band, the sampled indices and vectors, and the job order.
Generation uses only the standard library and never calls hodisc, so the
list does not change when the program does.
"""

from __future__ import annotations

import itertools
import json
import random

ROUNDS = 10
SHIFT_HEX_DIGITS = 16  # 64-bit digital shifts

FORMATS = ("dec", "hexfrac", "bin")


def _shift(rng: random.Random, s: int) -> str:
    """Comma-separated hex digits per coordinate, as `hodisc gen --shift` takes."""
    digits = SHIFT_HEX_DIGITS
    return ",".join(f"{rng.getrandbits(4 * digits):0{digits}x}" for _ in range(s))


def _non_pow2(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi)
        if n & (n - 1):
            return n


# A slot is (kind, fixed params, draw); draw(rng, r) returns the params
# that depend on the seed and on the round r.  The slots of a workload are
# listed by rough cost.  Several slots share one cost level at the middle
# and at the top of each list, so the p50 and the p90 of the job times fall
# inside a block of like jobs rather than in a gap between two sizes.


def _fmt(r: int, offset: int = 0) -> str:
    # formats rotate with the round, so every seed gets the same mix
    return FORMATS[(r + offset) % len(FORMATS)]


def _shifted(s):
    return lambda rng, r: {"alpha": rng.randint(2, 5), "shift": _shift(rng, s)}


def _scan(s, lo, hi):
    return lambda rng, r: {"alpha": rng.randint(2, 5), "shift": _shift(rng, s),
                           "nmax": _non_pow2(rng, lo, hi)}


def _file(s, offset):
    return lambda rng, r: {"alpha": rng.randint(2, 5), "shift": _shift(rng, s),
                           "format": _fmt(r, offset)}


DISC_FLOAT = [
    ("warnock", {"s": 1, "m": 10}, _shifted(1)),
    ("disc_file", {"s": 1, "m": 11}, _file(1, 0)),
    ("scan", {"s": 3}, _scan(3, 1500, 1700)),
    ("disc_file", {"s": 2, "m": 11}, _file(2, 1)),
    ("scan", {"s": 1}, _scan(1, 4400, 4800)),
    ("warnock", {"s": 2, "m": 12}, _shifted(2)),
    ("warnock", {"s": 2, "m": 12}, _shifted(2)),
    ("warnock", {"s": 2, "m": 12}, _shifted(2)),
    ("scan", {"s": 2}, _scan(2, 3700, 4000)),
    ("warnock", {"s": 2, "m": 13}, _shifted(2)),
    ("warnock", {"s": 2, "m": 13}, _shifted(2)),
]

# The exact jobs run on digitally shifted nets, so their inputs differ from
# round to round; only the Walsh series, whose check needs the plain net,
# runs on unshifted points.
DISC_EXACT = [
    ("walsh", {"s": 2, "m": 6, "trunc": 3}, lambda rng, r: {"alpha": rng.randint(1, 3)}),
    ("quad_2d", {"s": 2, "m": 9, "grid": 10}, _shifted(2)),
    ("quad_1d", {"s": 1, "m": 9}, _shifted(1)),
    ("walsh", {"s": 1, "m": 8, "trunc": 6}, lambda rng, r: {"alpha": rng.randint(1, 5)}),
    ("exact_scan", {"s": 2}, _scan(2, 390, 410)),
    ("disc_exact_cli", {"s": 1, "m": 9}, _file(1, 0)),
    ("exact_warnock", {"s": 2, "m": 9}, _shifted(2)),
    ("exact_warnock", {"s": 2, "m": 9}, _shifted(2)),
    ("exact_warnock", {"s": 2, "m": 9}, _shifted(2)),
    ("exact_warnock", {"s": 1, "m": 10}, _shifted(1)),
    ("disc_exact_cli", {"s": 1, "m": 10}, _file(1, 1)),
]


def _pick(*instances):
    """Draw one (s, alpha, m) from instances of similar cost."""
    def draw(rng, r):
        s, alpha, m = rng.choice(instances)
        return {"s": s, "alpha": alpha, "m": m}
    return draw


def _budget(rng, r):
    if rng.random() < 0.5:
        s, alpha, m = rng.choice([(2, 2, 24), (3, 2, 20), (2, 3, 16)])
        return {"command": "verify", "s": s, "alpha": alpha, "m": m,
                "budget": rng.choice([100, 1000])}
    s, alpha, m = rng.choice([(2, 2, 8), (3, 2, 6), (1, 5, 8)])
    return {"command": "dual", "s": s, "alpha": alpha, "m": m,
            "budget_exponent": rng.choice([8, 12])}


def _below_certified(rng, r):
    s, alpha, m = rng.choice([(2, 2, 12), (2, 2, 16), (3, 2, 12), (3, 2, 16)])
    # t=None asks for the formula bound (certified); t in 0..2 sits below the
    # certified t of these instances, so a witness must come back
    return {"s": s, "alpha": alpha, "m": m, "t": rng.choice([None, 0, 1, 2])}


def _char_sum(rng, r):
    s, alpha, m = rng.choice([(2, 2, 6), (1, 3, 6), (3, 1, 6)])
    return {"s": s, "alpha": alpha, "m": m,
            "picks": [rng.getrandbits(64) for _ in range(24)],
            "others": [rng.getrandbits(64) for _ in range(8)]}


def _dual(*instances):
    def draw(rng, r):
        s, alpha, m = rng.choice(instances)
        return {"s": s, "alpha": alpha, "m": m, "order": rng.randint(1, alpha)}
    return draw


CERTIFY = [
    ("budget_cli", {}, _budget),
    ("budget_cli", {}, _budget),
    ("budget_cli", {}, _budget),
    ("budget_cli", {}, _budget),
    ("verify_cli", {}, _below_certified),
    ("verify_cli", {}, _below_certified),
    ("find_dep", {}, _below_certified),
    ("sct", {}, _pick((3, 3, 10), (4, 2, 8), (3, 3, 8))),
    ("sct", {}, _pick((3, 3, 10), (4, 2, 8), (3, 3, 8))),
    ("char_sum", {}, _char_sum),
    ("char_sum", {}, _char_sum),
    ("char_sum", {}, _char_sum),
    ("char_sum", {}, _char_sum),
    ("char_sum", {}, _char_sum),
    ("dual_cli", {}, _pick((2, 2, 3), (1, 3, 4), (1, 4, 3))),
    ("dual", {}, _dual((1, 3, 6), (2, 2, 4), (3, 1, 6))),
    ("sct", {}, _pick((3, 2, 12), (2, 2, 12))),
    ("sct", {"s": 2, "alpha": 2, "m": 16}, lambda rng, r: {}),
    ("sct", {"s": 3, "alpha": 2, "m": 16}, lambda rng, r: {}),
    ("sct", {"s": 2, "alpha": 3, "m": 14}, lambda rng, r: {}),
    ("dual", {"s": 1, "alpha": 3, "m": 8, "order": 3}, lambda rng, r: {}),
    ("dual", {"s": 2, "alpha": 2, "m": 6, "order": 2}, lambda rng, r: {}),
]


def _corollary(s, lo, hi):
    return lambda rng, r: {"s": s, "count": _non_pow2(rng, lo, hi)}


def _gen(s, m, offset):
    return lambda rng, r: {"s": s, "alpha": rng.randint(2, 5), "m": m, "format": _fmt(r, offset),
                           "shift": _shift(rng, s) if rng.random() < 0.5 else None}


CONSTRUCT = [
    ("net_points", {"s": 1, "alpha": 5, "m": 12}, lambda rng, r: {}),
    ("nth_point", {"s": 2, "alpha": 5, "m": 20},
     lambda rng, r: {"indices": [rng.randrange(1 << 20) for _ in range(48)]}),
    ("corollary", {}, _corollary(2, 2900, 3100)),
    ("shift", {"s": 2, "m": 12}, _shifted(2)),
    ("gen", {}, _gen(2, 12, 0)),
    ("gen", {}, _gen(2, 12, 1)),
    ("corollary", {}, _corollary(3, 3500, 4000)),
    ("gen_count", {}, lambda rng, r: {"s": 3, "count": _non_pow2(rng, 1700, 1900),
                                      "format": _fmt(r, 2)}),
    ("net_points", {"s": 3, "alpha": 5, "m": 14}, lambda rng, r: {}),
    ("corollary", {}, _corollary(4, 20000, 24000)),
    ("corollary", {}, _corollary(4, 20000, 24000)),
]

WORKLOADS = {
    "disc_float": DISC_FLOAT,
    "disc_exact": DISC_EXACT,
    "certify": CERTIFY,
    "construct": CONSTRUCT,
}


def rounds_of(workload: str, seed: int):
    """Rounds of jobs in execution order, without end; each job has an
    ``id``, a ``round``, a ``slot`` and a ``kind``.  Every round draws fresh
    inputs from the same seeded generator, so a run that needs more rounds
    never repeats an earlier round."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"hodisc-bench:{workload}:{seed}")
    next_id = 0
    r = 0
    while True:
        batch = []
        for slot, (kind, fixed, draw) in enumerate(slots):
            batch.append({"kind": kind, "slot": slot, **fixed, **draw(rng, r)})
        rng.shuffle(batch)
        yield [{"id": next_id + i, "round": r, **job} for i, job in enumerate(batch)]
        next_id += len(batch)
        r += 1


def job_list(workload: str, seed: int, rounds: int = ROUNDS) -> list[dict]:
    """The first ``rounds`` rounds of ``rounds_of``, flattened."""
    return [job for batch in itertools.islice(rounds_of(workload, seed), rounds)
            for job in batch]


def dump(jobs: list[dict]) -> bytes:
    """Canonical bytes of a job list, for determinism checks and records."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()


def config_key(job: dict) -> tuple | None:
    """The (s, alpha, m) matrix configuration a job builds, if any."""
    s = job.get("s")
    if s is None:
        return None
    if "count" in job:
        return (s, 3, (job["count"] - 1).bit_length())
    alpha = job.get("alpha", 1)
    if "nmax" in job:
        return (s, alpha, (job["nmax"] - 1).bit_length())
    return (s, alpha, job["m"])
