"""Spans and work counters for the traced run, recorded from outside hodisc.

``install`` rebinds the public functions of each layer module to timing
wrappers, in every hodisc module that imported them (``hodisc.cli.warnock_l2``,
``hodisc.points.sobol_matrices`` and the package namespace alike), so nested
calls are recorded too.  ``uninstall`` puts the originals back.  The hot
per-element helpers ``wal_vec``, ``mu_alpha`` and ``_point_from_columns`` stay
unwrapped; their time counts in the caller's self time.

Spans live in flat arrays until the run ends: name, start, end, parent span
and job id.  Self time is a span's duration minus its children's durations;
calls are strictly nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import io
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import hodisc

LAYERS = {
    "gf2poly": ("is_primitive", "primitive_polys", "laurent_expand", "poly_mul"),
    "genmat": ("sobol_matrices", "interlace_matrices", "sequence_net", "truncate",
               "write_matrix_files"),
    "gf2": ("kernel_basis", "rank", "stack_transposed", "matvec"),
    "points": ("net_points", "nth_point", "corollary_pointset", "corollary_exact_coords",
               "digital_shift", "interlace_point"),
    "discrepancy": ("warnock_l2", "warnock_l2_sq", "warnock_scan", "quadrature_oracle_l2",
                    "walsh_series_l2"),
    "netverify": ("find_dependency", "verify_order_alpha", "smallest_certified_t",
                  "dual_enumerate", "dual_min_weight", "character_sum", "box_counts",
                  "j_alpha_count"),
    "cli": ("main", "read_point_file"),
}

# position of the ``exact`` argument, for the discrepancy path label
_EXACT_ARG = {"warnock_l2": 1, "warnock_l2_sq": 1, "warnock_scan": 2}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack: list[int] = []
        self.job_id = -1
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i, nid in enumerate(self.name):
            out[self.names[nid]] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start,end,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.job[i]}\n")


def _exact_flag(fname: str, args, kwargs) -> bool:
    pos = _EXACT_ARG[fname]
    exact = kwargs.get("exact", args[pos] if len(args) > pos else None)
    if exact is None:
        return os.environ.get("HODISC_EXACT", "") == "1"
    return bool(exact)


def _span_name(layer: str, fname: str, args, kwargs) -> str:
    if layer != "discrepancy":
        return f"{layer}.{fname}"
    if fname in _EXACT_ARG:
        exact = _exact_flag(fname, args, kwargs)
        path = "exact" if exact else ("scan" if fname == "warnock_scan" else "float")
    else:
        path = "oracle"
    return f"discrepancy.{fname}[{path}]"


def _count(tr: Tracer, fname: str, args, kwargs, result, error) -> None:
    """Work counters, recorded at the same boundaries as the spans."""
    c = tr.counters
    if fname == "laurent_expand":
        c["laurent_calls"] += 1
    elif fname in ("sobol_matrices", "interlace_matrices", "truncate"):
        c["matrix_sets"] += 1
    elif fname in ("kernel_basis", "rank"):
        c["kernel_calls"] += 1
    elif fname == "find_dependency":
        c["verify_calls"] += 1
    if isinstance(error, hodisc.VerificationBudgetError) and fname in ("find_dependency",
                                                                        "dual_enumerate"):
        c["budget_exits"] += 1
    if error is not None:
        return
    if fname in ("net_points", "corollary_pointset"):
        c["points_out"] += len(result)
    elif fname == "nth_point":
        c["points_out"] += 1
    if fname == "corollary_pointset":
        n = args[1] if len(args) > 1 else kwargs["n_points"]
        c["kept"] += n
        c["generated"] += 1 << (n - 1).bit_length()
    elif fname == "warnock_l2_sq":
        n = len(args[0])
        c["kernel_pairs"] += n * (n + 1) // 2
    elif fname == "warnock_scan":
        n = args[1] if len(args) > 1 else kwargs["n_max"]
        c["kernel_pairs"] += n * (n + 1) // 2
    elif fname == "dual_min_weight" and isinstance(args[0], hodisc.DualNetBasis):
        c["dual_elements"] += args[0].size() - 1
    elif fname == "read_point_file":
        c["bytes_in"] += os.path.getsize(args[0])
    elif fname == "main":
        c["cli_calls"] += 1


def _wrap(tr: Tracer, layer: str, fname: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(_span_name(layer, fname, args, kwargs))
        stdout = sys.stdout if fname == "main" and isinstance(sys.stdout, io.StringIO) else None
        mark = stdout.tell() if stdout else 0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(idx)
            _count(tr, fname, args, kwargs, None, exc)
            raise
        tr.close(idx)
        _count(tr, fname, args, kwargs, result, None)
        if fname == "main":
            tr.counters["bytes_out"] += _bytes_out(args, stdout, mark)
        return result

    return wrapper


def _bytes_out(args, stdout, mark) -> int:
    """Bytes a CLI call wrote: its --out file plus what it printed."""
    argv = list(args[0]) if args and args[0] is not None else []
    total = stdout.tell() - mark if stdout else 0
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def install(tr: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every wrapped name in every hodisc module; returns what to restore."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hodisc" or name.startswith("hodisc."))]
    undo = []
    for layer, fnames in LAYERS.items():
        home = sys.modules[f"hodisc.{layer}"]
        for fname in fnames:
            orig = getattr(home, fname)
            wrapped = _wrap(tr, layer, fname, orig)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapped)
                    undo.append((mod, fname, orig))
    return undo


def uninstall(undo) -> None:
    for mod, fname, orig in undo:
        setattr(mod, fname, orig)
