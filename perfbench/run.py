"""hodisc benchmark: one closed-loop client running user-level jobs.

    python3 perfbench/run.py --workload disc_float --seed 1 --seconds 10 --trace 0

Runs from the root of a hodisc source tree and imports hodisc from
``src/``.  The job list is a pure function of (workload, seed); hodisc sees
only the generated inputs.  Jobs run one at a time in whole rounds until
the measured job time reaches ``--seconds`` and at least ``MIN_JOBS`` jobs
ran; every round draws fresh inputs, so no timed job repeats an earlier
round.  Every result is checked against an independent route after the
timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, next
to an untraced run of the same rounds for ``trace.overhead_frac``.
``--workload all`` runs each workload in its own process and prints one
table.  See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin every numeric thread pool before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("HODISC_EXACT", None)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_JOBS = 100  # so the p90 has at least ten jobs beyond it
TAIL_PCT = 90
MAX_BUSY_S = 60.0  # stop measuring here even if MIN_JOBS is not reached
SETUP_REPS = 5
SETUP_POLYS = 16  # generator polynomials warmed at set-up (s*alpha <= 15 in every workload)
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hodisc, hodisc.cli; "
    "print(len(hodisc.primitive_polys(int(sys.argv[2]))))"
)

# This benchmark runs on shared machines whose speed swings by a quarter
# between runs while nothing in the run changes.  A fixed probe of
# interpreter and numpy work, run outside the timed region between jobs and
# before every set-up interpreter, measures the machine's speed at that
# moment.  Each job's time is scaled by the mean of the probes just before
# and just after it, to a machine on which the probe takes PROBE_REF_S.
# hodisc never runs inside the probe, so no program change
# moves it.  Unscaled figures are kept in the result file.
PROBE_REF_S = 0.005


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def _import_hodisc():
    if not (SRC / "hodisc" / "__init__.py").is_file():
        _fail(f"no hodisc sources under {SRC}; run from a hodisc source tree")
    sys.path.insert(0, str(SRC))
    import hodisc

    if Path(hodisc.__file__).resolve().parent != SRC / "hodisc":
        _fail(f"imported hodisc from {hodisc.__file__}, not from {SRC}")
    return hodisc


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loop": "closed, 1 client, 1 process",
    }


def probe() -> float:
    """Seconds for a fixed piece of interpreter and numpy work."""
    import numpy

    t0 = perf_counter()
    acc = 0
    for i in range(30000):
        acc ^= (i * 2654435761) >> (i & 7)
    a = numpy.arange(65536, dtype=numpy.float64) / 65536.0
    b = a[::-1].copy()
    for _ in range(20):
        acc += float(numpy.minimum(a, b).sum())
    return perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Median wall time, scaled and unscaled, of a fresh interpreter importing
    hodisc and warming the polynomial table."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        speed = statistics.median(probe() for _ in range(3))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(SETUP_POLYS)],
                              capture_output=True, text=True, timeout=120)
        dt = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != str(SETUP_POLYS):
            _fail(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        raw.append(dt)
        scaled.append(dt * PROBE_REF_S / speed)
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(rounds, ctx, seconds, tracer=None):
    """Run whole rounds from the iterable ``rounds``; returns records, busy
    time and the number of rounds.

    A record is (job, wall seconds, summary, error, probe seconds), the last
    being the mean of the probes run just before and just after the job.
    It stops once the busy
    time reaches ``seconds`` and at least MIN_JOBS jobs ran, or when
    ``rounds`` runs out.
    """
    from kinds import KINDS

    records = []
    busy = 0.0
    r = 0
    for batch in rounds:
        start = len(records)
        probes = []
        for job in batch:
            run, summarize, _, _ = KINDS[job["kind"]]
            probes.append(probe())
            if tracer is not None:
                tracer.job_id = job["id"]
                root = tracer.open(f"bench.{job['kind']}")
            t0 = perf_counter()
            try:
                raw, err = run(job, ctx), None
            except Exception as exc:  # a failing job is counted, not fatal
                raw, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            busy += dt
            summary = None
            if err is None:
                try:
                    summary = summarize(job, raw, ctx)
                except Exception as exc:
                    err = f"summary {type(exc).__name__}: {exc}"
            del raw
            records.append((job, dt, summary, err))
        probes.append(probe())
        records[start:] = [rec + ((probes[i] + probes[i + 1]) / 2,)
                           for i, rec in enumerate(records[start:])]
        r += 1
        if (busy >= seconds and len(records) >= MIN_JOBS) or busy >= MAX_BUSY_S:
            break
    return records, busy, r


def check_records(records, ctx):
    """Failed executions, failure details and the checks' measurements."""
    from kinds import KINDS

    first: dict[int, object] = {}
    verdict: dict[int, tuple[bool, str]] = {}
    measures = []
    failed = 0
    details = []
    for job, _, summary, err, _ in records:
        jid = job["id"]
        if err is None and jid not in first:
            first[jid] = summary
            try:
                ok, detail, meas = KINDS[job["kind"]][2](job, summary, ctx)
            except Exception as exc:
                ok, detail, meas = False, f"check {type(exc).__name__}: {exc}", {}
            verdict[jid] = (bool(ok), detail)
            measures.append(meas)
        if err is not None:
            ok, detail = False, err
        elif summary != first[jid]:
            ok, detail = False, "result differs from an earlier run of the same job"
        else:
            ok, detail = verdict[jid]
        if not ok:
            failed += 1
            details.append({"job": job, "detail": detail})
    return failed, details, measures


def prepared(rounds, ctx):
    """The rounds, each one's input files written just before it runs."""
    from kinds import KINDS

    for batch in rounds:
        for job in batch:
            prep = KINDS[job["kind"]][3]
            if prep is not None:
                prep(job, ctx)
        yield batch


def exact_repeat_share(jobs) -> float:
    """Share of jobs whose inputs equal those of an earlier job (of any slot)."""
    seen = set()
    repeats = 0
    for job in jobs:
        key = json.dumps({k: v for k, v in job.items() if k not in ("id", "round", "slot")},
                         sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs)


def check_max(measures) -> dict:
    """The largest value of each measurement the checks took."""
    out: dict[str, float] = {}
    for meas in measures:
        for k, v in meas.items():
            out[k] = max(out.get(k, v), v)
    return out


def job_timings(times: list[float]) -> dict:
    times = sorted(times)
    n = len(times)
    return {
        "jobs_per_s": n / sum(times),
        "job_p50_s": statistics.median(times),
        f"job_p{TAIL_PCT}_s": times[math.ceil(TAIL_PCT / 100 * n) - 1],
    }


def scaled_times(records) -> list[float]:
    """Job wall times scaled to a machine on which the probe takes PROBE_REF_S."""
    return [dt * PROBE_REF_S / speed for _, dt, _, _, speed in records]


def end_to_end(records, setup_s, peak_rss_mb, failed) -> dict:
    return {
        "setup_s": setup_s,
        **job_timings(scaled_times(records)),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(records),
    }


def per_layer(tracer, recs, measures) -> dict:
    """Per-layer metrics; recs holds the records keyed by whether tracing was on."""
    from jobs import config_key

    self_by_name = tracer.self_times()
    c = tracer.counters

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.startswith(prefix))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    search = sum(self_of(f"netverify.{f}") for f in
                 ("find_dependency", "verify_order_alpha", "smallest_certified_t"))
    dual = self_of("netverify.dual_enumerate") + self_of("netverify.dual_min_weight")
    disc = {p: sum(v for k, v in self_by_name.items()
                   if k.startswith("discrepancy.") and k.endswith(f"[{p}]"))
            for p in ("float", "scan", "exact", "oracle")}
    seen = set()
    repeats = 0
    configs = [config_key(job) for job, *_ in recs[True]]
    for key in configs:
        if key is not None and key in seen:
            repeats += 1
        seen.add(key)
    jps_untraced = job_timings(scaled_times(recs[False]))["jobs_per_s"]
    jps_traced = job_timings(scaled_times(recs[True]))["jobs_per_s"]
    errs = [m["float_rel_err"] for m in measures if "float_rel_err" in m]
    kernel_s = disc["float"] + disc["scan"] + disc["exact"]
    return {
        "gf2poly.self_s": self_of("gf2poly."),
        "gf2poly.laurent_calls": c["laurent_calls"],
        "genmat.self_s": self_of("genmat."),
        "genmat.matrix_sets": c["matrix_sets"],
        "gf2.self_s": self_of("gf2."),
        "gf2.kernel_calls": c["kernel_calls"],
        "points.self_s": self_of("points."),
        "points.points_out": c["points_out"],
        "points.points_per_s": ratio(c["points_out"], self_of("points.")),
        "points.kept_ratio": ratio(c["kept"], c["generated"]),
        "discrepancy.float_s": disc["float"],
        "discrepancy.scan_s": disc["scan"],
        "discrepancy.exact_s": disc["exact"],
        "discrepancy.oracle_s": disc["oracle"],
        "discrepancy.kernel_pairs": c["kernel_pairs"],
        "discrepancy.pairs_per_s": ratio(c["kernel_pairs"], kernel_s),
        "discrepancy.float_rel_err_max": max(errs, default=0.0),
        "netverify.search_s": search,
        "netverify.verify_calls": c["verify_calls"],
        "netverify.dual_s": dual,
        "netverify.dual_elements": c["dual_elements"],
        "netverify.dual_elements_per_s": ratio(c["dual_elements"],
                                               self_of("netverify.dual_min_weight")),
        "netverify.char_sum_s": self_of("netverify.character_sum"),
        "netverify.budget_exits": c["budget_exits"],
        "cli.self_s": self_of("cli."),
        "cli.calls": c["cli_calls"],
        "cli.bytes_in": c["bytes_in"],
        "cli.bytes_out": c["bytes_out"],
        "trace.overhead_frac": 1.0 - jps_traced / jps_untraced,
        "inputs.repeat_share": ratio(repeats, len(configs)),
    }


def layer_ranking(tracer) -> list[tuple[str, float]]:
    by_layer: dict[str, float] = {}
    for name, v in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + v
    return sorted(by_layer.items(), key=lambda kv: -kv[1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    hodisc = _import_hodisc()
    import numpy

    import kinds
    import spans as tracing
    from jobs import ROUNDS, rounds_of

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = environment()
    setup_s, setup_raw = measure_setup() if not trace else (None, None)
    hodisc.primitive_polys(SETUP_POLYS)

    # glibc raises its mmap threshold to the largest block freed so far, so
    # whether a later array comes from the heap (and stays resident) would
    # depend on job order; an untouched 24 MB block settles the threshold
    # above every array the jobs make before anything is measured
    numpy.empty(3 << 20)

    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = kinds.Ctx(str(workdir))
    try:
        if not trace:
            records, _, n_rounds = run_rounds(prepared(rounds_of(workload, seed), ctx),
                                              ctx, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed, details, measures = check_records(records, ctx)
            metrics = end_to_end(records, setup_s, peak_rss_mb, failed)
            declared = spec["end_to_end"]
            extra = {"unscaled": {"setup_s": setup_raw,
                                  **job_timings([dt for _, dt, *_ in records]),
                                  "probe_median_s": statistics.median(rec[4] for rec in records)},
                     "exact_repeat_share": exact_repeat_share([job for job, *_ in records])}
        else:
            # one pass over the seed's first ROUNDS rounds each way, so every
            # count repeats exactly for a seed; the passes alternate round by round, which
            # leaves no side always running on colder caches
            tracer = tracing.Tracer()
            recs = {False: [], True: []}
            batches = itertools.islice(prepared(rounds_of(workload, seed), ctx), ROUNDS)
            for r, batch in enumerate(batches):
                for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
                    undo = tracing.install(tracer) if with_trace else []
                    try:
                        got, _, _ = run_rounds([batch], ctx, 0,
                                               tracer=tracer if with_trace else None)
                    finally:
                        tracing.uninstall(undo)
                    recs[with_trace] += got
            records = recs[False] + recs[True]
            failed, details, measures = check_records(records, ctx)
            metrics = per_layer(tracer, recs, measures)
            declared = spec["per_layer"]
            n_rounds = ROUNDS
            extra = {"layers_by_self_s": layer_ranking(tracer), "spans": len(tracer.start)}
            tracer.write(str(OUT / f"trace-{workload}-seed{seed}.csv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind: dict[str, list[float]] = {}
    for job, dt, *_ in records:
        by_kind.setdefault(job["kind"], []).append(dt)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "rounds": n_rounds,
        "attempted": len(records),
        "failed": failed,
        "failures": details[:20],
        "check_max": check_max(measures),
        "kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "job_seconds": [[job["id"], dt, speed] for job, dt, _, _, speed in records],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        **extra,
    }
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} jobs in {result['rounds']} rounds, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.get("unscaled", {}).items():
        print(f"  unscaled {name:23s} {value:>14.6g}")
    for name, secs in result.get("layers_by_self_s", []):
        print(f"  self time {name:22s} {secs:>14.6g} s")
    for f in result["failures"]:
        print(f"  FAILED job {f['job']['id']} ({f['job']['kind']}): {f['detail']}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process; one table and one summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
