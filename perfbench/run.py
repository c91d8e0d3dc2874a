"""The lofs benchmark: four workloads, end-to-end metrics, per-layer tracing.

Run from the repository root::

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --battery        # acceptance battery report, not gated
    python3 -m pytest perfbench/tests -q      # the benchmark's own tests

Workloads (a unit is what one timer covers):

- ``factor-sweep``: ``factorise`` on a fixed stride of the maps between
  preorders of size <= 4 (unit: one map).  The paper's central
  construction; stresses preorder validation and ``down_set_masks``.
- ``lift-sweep``: ``squares``, ``canonical_diag`` per square and
  ``kz_orthogonal`` on a fixed slice of (full map, algebra) pairs of size
  <= 3 (unit: one pair).  Stresses map construction, ``sq_hom_poset`` and
  the RALI search.
- ``kan-classify``: ``kan_injective`` against all 1,589 embedding classes
  of size <= 4 (unit: one preorder).  Set-up pays the size-5 enumeration.
- ``sweeps``: the three sweeps above in one pass, each part with its own
  units, checks and counts; per-part throughput, median and tail are
  printed beside the totals.
- ``cli-mixed``: a closed loop with one caller over ``lofs.cli.main`` on
  distinct seeded documents, about one in ten malformed (unit: one
  request).  The only workload that reaches ``cli``, ``formats`` and
  ``topology``.

``BENCHMARK.json`` names ``sweeps`` and ``cli-mixed``: on a shared
two-vCPU host, two long runs per seed measure more steadily than four
short ones in the same time.  The three sweeps stay runnable alone to
tell their layers apart.

Only ``cli-mixed`` draws from ``--seed``.  Each run is one process, one
thread.  Set-up imports a fresh copy of lofs and builds the inputs at
least three times (more while that takes under two seconds); ``setup_s`` is
the median.  The units then run in passes until ``--seconds`` have gone
by, each pass over the same fixed unit list with every lofs cache emptied
first.  The first pass always completes and checks every output; the
last pass may be cut at the deadline.  Every complete pass must
reproduce the pinned digest.  End-to-end metrics, the result of
``--trace 0``:

- ``setup_s``: import plus the lofs calls that build the inputs, median.
- ``units_per_s``: units per pass divided by the time a pass takes, the
  sum over units of each unit's mean timer.
- ``peak_rss_mb``: peak resident set of the process.

Two more are printed in the report but kept out of the result, because
their run-to-run spread on a shared two-vCPU host can exceed the largest
bound (a quarter of the median) that a regression gate may use:

- ``unit_p50_ms``: median over units of each unit's median latency.
- ``unit_tail_ms``: the same at the highest percentile with at least ten
  units beyond it; the percentile and unit count are printed beside it.

Failures are reported as ``failed`` of ``attempted`` in the result line.
With ``--trace 1`` the first two passes run untraced and later passes
traced; the result holds the per-layer metrics (set-up once plus one pass) and
the tracing overhead.  The lines before the result describe the run: the
environment record, work counts, digests and, when traced, the
(function, caller) table and the span trees of the slowest units.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("order", "adjunction", "downsets", "factorisation", "lifting", "kan", "topology", "formats", "cli")
# set-up runs at least SETUP_REPEATS times, and more while cheap
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 50)
CACHES = ("order._canonical", "order._refinement", "order._sup_table", "order.enumerate_preorders", "kan._hom_assignments")
# (function, counters beyond calls and self_s) reported as per-layer metrics
LAYER_FUNCTIONS = {
    "order.FinPreorder": (),
    "order.MonotoneMap": (),
    "order.Square": (),
    "order.down_set_masks": ("distinct",),
    "order.monotone_assignments": (),
    "order.squares": ("distinct", "results"),
    "order.sq_hom_poset": (),
    "order.hom_poset": (),
    "order.is_complete_lattice": (),
    "order.enumerate_preorders": (),
    "order.arrow_canonical_key": (),
    "adjunction.find_rali": ("found",),
    "factorisation.factorise": ("carrier_sum", "distinct"),
    "factorisation.canonical_diag": (),
    "factorisation.k_on_square": (),
    "lifting.canonical_map": (),
    "lifting.kz_orthogonal": (),
    "kan.kan_injective": ("complete_s", "noncomplete_s"),
    "kan.lan_extension": (),
    "kan.all_embeddings": (),
    "topology.filter_space": (),
    "topology.f_lower_star": (),
    "topology.open_masks": (),
    "topology.is_continuous_lattice": (),
    "formats.load_document": (),
    "formats.dumps": (),
    "formats.hasse_dot": (),
    "cli.main": (),
    "cli.build_parser": (),
}
GATES = {"1": 60.0, "3": 120.0, "11": 30.0}
# end-to-end metrics of the result line; the others are report lines only
RESULT_METRICS = ("setup_s", "units_per_s", "peak_rss_mb")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no lofs sources)."""


def import_lofs():
    """A fresh import of lofs from this checkout: a namespace of its layer modules."""
    if not (SRC / "lofs" / "__init__.py").is_file():
        raise SetupError(f"no lofs package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "lofs" or m.startswith("lofs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lofs")
    if Path(pkg.__file__).resolve().parent != SRC / "lofs":
        raise SetupError(f"lofs imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"lofs.{layer}") for layer in LAYERS})


class CacheStats:
    """Hit and size totals of every functools cache in lofs, across clears."""

    def __init__(self, lofs):
        self.caches = {}
        for layer in LAYERS:
            module = getattr(lofs, layer)
            for attr, obj in vars(module).items():
                inner = getattr(obj, "__wrapped__", None)
                if hasattr(obj, "cache_clear") and getattr(inner, "__module__", None) == module.__name__:
                    self.caches[f"{layer}.{attr}"] = obj
        self.totals = {name: [0, 0, 0] for name in self.caches}

    def collect(self, clear):
        for name, cache in self.caches.items():
            info = cache.cache_info()
            total = self.totals[name]
            total[0] += info.hits
            total[1] += info.misses
            total[2] = max(total[2], info.currsize)
            if clear:
                cache.cache_clear()


def calibrate():
    """Seconds for a fixed pure-Python bitmask loop; tells host drift from regressions."""
    start = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(300_000):
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        acc += (x & 0xFFFF).bit_count()
    return time.perf_counter() - start


def tail_rank(n):
    """(percentile, index into sorted values) with at least ten units beyond the index."""
    for p in TAIL_LADDER:
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - idx - 1 >= 10:
            return p, idx
    return 50, max(math.ceil(n / 2) - 1, 0)


def run_passes(wl, lofs, units, seconds, tracer, caches):
    """Run passes over ``units`` until ``seconds`` have gone by.

    The first pass always completes and checks every output.  Untraced
    runs stop at the deadline even inside a pass.  Traced runs keep whole
    passes: the second is an untraced baseline for the tracing overhead,
    and at least one traced pass follows it.
    """
    clock = time.perf_counter
    labels = [wl.label(u) for u in units]
    latencies = [[] for _ in units]
    state = SimpleNamespace(
        passes=0, traced_passes=0, partial=0, traced_s=0.0, attempted=0, failed=0,
        problems=[], digests=[], counts={}, latencies=latencies,
    )
    deadline = clock() + seconds
    while True:
        traced = tracer is not None and state.passes >= 2
        first = state.passes == 0
        caches.collect(clear=True)
        h = hashlib.sha256()
        cut = False
        with wl.pass_context():
            for i, unit in enumerate(units):
                if not first and tracer is None and clock() >= deadline:
                    state.partial, cut = i, True
                    break
                raised = None
                if traced:
                    tracer.begin(record=True)
                    try:
                        out = wl.run(lofs, unit)
                    except Exception as exc:  # a unit that raises is counted, not fatal
                        raised = exc
                    state.traced_s += tracer.end(labels[i])
                else:
                    t0 = clock()
                    try:
                        out = wl.run(lofs, unit)
                    except Exception as exc:
                        raised = exc
                    latencies[i].append(clock() - t0)
                state.attempted += 1
                if raised is not None:
                    state.failed += 1
                    state.problems.append(f"{labels[i]}: raised {raised!r}")
                    h.update(f"{i}:raised".encode())
                    continue
                if first:
                    message = wl.check(lofs, unit, out)
                    if message is not None:
                        state.failed += 1
                        state.problems.append(f"{labels[i]}: {message}")
                    wl.count(state.counts, unit, out)
                h.update(wl.digest(unit, out))
        if cut:
            break
        state.digests.append(h.hexdigest())
        state.passes += 1
        state.traced_passes += traced
        if clock() >= deadline and (tracer is None or state.traced_passes >= 1):
            break
    caches.collect(clear=True)
    return state


def timing(latencies):
    """(units per second, median ms, tail ms, tail note) from per-unit timer lists."""
    per_unit = [statistics.median(ls) for ls in latencies]
    n = len(per_unit)
    p, idx = tail_rank(n)
    # a pass's worth of units over the time a pass takes, so a cut last pass keeps the mix
    pass_s = sum(statistics.fmean(ls) for ls in latencies)
    tail_note = f"p{p:g} of {n} units, {n - idx - 1} beyond"
    return n / pass_s, statistics.median(per_unit) * 1e3, sorted(per_unit)[idx] * 1e3, tail_note


def end_to_end(state, setup_times):
    """The end-to-end metrics from the untraced unit timers."""
    units_per_s, p50_ms, tail_ms, tail_note = timing(state.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "units_per_s": (units_per_s, "1/s"),
        "unit_p50_ms": (p50_ms, "ms"),
        "unit_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tail_note


def part_report(wl, units, state, emit):
    """Throughput, median and tail of each part of a workload with several."""
    parts = {}
    for unit, ls in zip(units, state.latencies):
        parts.setdefault(wl.part_of(unit), []).append(ls)
    if len(parts) < 2:
        return
    for (part, unit_name), latencies in parts.items():
        rate, p50_ms, tail_ms, tail_note = timing(latencies)
        emit(f"part {part:13s} {rate:12.4f} {unit_name}s/s  p50 {p50_ms:.4f} ms  tail {tail_ms:.4f} ms ({tail_note})")


def per_layer(tracer, setup_snapshot, state, caches):
    """Per-layer metrics: set-up once plus the average traced pass."""
    k = state.traced_passes
    s_stats, s_counts, s_distinct = setup_snapshot
    u_stats, u_counts, u_distinct = tracer.snapshot()
    s_fn, u_fn = tracing.by_function(s_stats), tracing.by_function(u_stats)
    metrics = {}
    for key, extras in LAYER_FUNCTIONS.items():
        s = s_fn.get(key, [0, 0.0, 0.0])
        u = u_fn.get(key, [0, 0.0, 0.0])
        metrics[f"{key}.calls"] = (s[0] + u[0] // k, "count")
        metrics[f"{key}.self_s"] = (s[1] + u[1] / k, "s")
        for extra in extras:
            name = f"{key}.{extra}"
            if extra == "distinct":
                metrics[name] = (s_distinct.get(name, 0) + u_distinct.get(name, 0), "count")
            elif extra.endswith("_s"):
                metrics[name] = (s_counts.get(name, 0.0) + u_counts.get(name, 0.0) / k, "s")
            else:
                metrics[name] = (s_counts.get(name, 0) + u_counts.get(name, 0) // k, "count")
    for name in CACHES:
        hits, misses, size = caches.totals.get(name, (0, 0, 0))
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        metrics[f"{name}.size"] = (size, "count")
    baseline_pass_s = sum(ls[1] for ls in state.latencies)
    metrics["trace.overhead"] = (state.traced_s / k / baseline_pass_s, "ratio")
    return metrics


def trace_report(tracer, setup_snapshot, state, emit):
    emit("per-(function, caller) aggregates, set-up then one traced pass average:")
    k = state.traced_passes
    for phase, stats, div in (("setup", setup_snapshot[0], 1), ("units", tracer.snapshot()[0], k)):
        rows = sorted(stats.items(), key=lambda kv: -kv[1][1])
        total_self = sum(v[1] for v in stats.values()) / div
        total_roots = sum(v[2] for (key, caller), v in stats.items() if caller is None) / div
        emit(f"  [{phase}] self times sum to {total_self:.4f} s of {total_roots:.4f} s traced")
        for (key, caller), (calls, self_s, total) in rows:
            if self_s / div < 1e-4:
                continue
            emit(f"    {key:36s} <- {str(caller):34s} calls={calls // div:<9d} self={self_s / div:.4f}s total={total / div:.4f}s")
    emit(f"span trees of the {len(tracer.trees)} slowest traced units:")
    for dt, label, tree in tracer.tail_trees():
        emit(f"  {dt * 1e3:.2f} ms  {label}")
        for line in tracing.format_tree(tree):
            emit(line)


def run_workload(name, seed, seconds, trace, tiny=False, emit=print):
    """Run one workload; returns the result object (the last output line)."""
    wl = WORKLOADS[name](seed, tiny)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "calibration_before_s": round(calibrate(), 4),
    }
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        lofs = import_lofs()
        units = wl.setup(lofs)
        setup_times.append(time.perf_counter() - start)
    tracer = setup_snapshot = None
    if trace:
        # one more set-up, traced, whose modules the units then run on
        lofs = import_lofs()
        caches = CacheStats(lofs)  # before wrapping, to hold the caches themselves
        tracer = tracing.Tracer({layer: getattr(lofs, layer) for layer in LAYERS})
        tracer.begin(root=tracing.SETUP)
        units = wl.setup(lofs)
        tracer.end()
        setup_snapshot = tracer.snapshot()
        tracer.reset()
    else:
        caches = CacheStats(lofs)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl.prepare(workdir)
        if tracer is not None:
            tracer.keep_trees = len(units) - tail_rank(len(units))[1]
        state = run_passes(wl, lofs, units, seconds, tracer, caches)
        probe_report, probe_problems = wl.probe(lofs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["calibration_after_s"] = round(calibrate(), 4)

    problems = list(state.problems) + probe_problems
    if len(set(state.digests)) != 1:
        problems.append(f"digests differ between passes: {state.digests}")
    expected = wl.expected()
    pinned_note = "not pinned"
    if expected is not None:
        got = dict(state.counts, digest=state.digests[0])
        diff = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
        pinned_note = "match" if not diff else f"MISMATCH (got, pinned): {diff}"
        if diff:
            problems.append(f"pinned counts or digest differ: {diff}")

    emit(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}{' tiny' if tiny else ''}")
    emit("env: " + json.dumps(env))
    emit("work per pass: " + json.dumps(state.counts) + f" digest={state.digests[0]} pinned: {pinned_note}")
    emit(
        f"passes: {state.passes} full ({state.traced_passes} traced) + {state.partial} units of a cut pass,"
        f" {len(units)} {wl.unit}s per pass"
    )
    if probe_report:
        emit("known defects (probe, untimed): " + json.dumps(probe_report))
    for line in problems[:20]:
        emit("problem: " + line)

    e2e, tail_note = end_to_end(state, setup_times)
    emit(f"setup runs: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    for key, (value, unit) in e2e.items():
        note = f"  ({tail_note})" if key == "unit_tail_ms" else ""
        emit(f"{key:14s} {value:12.4f} {unit}{note}")
    emit(f"failed_frac    {state.failed / state.attempted:12.4f}  ({state.failed} of {state.attempted})")
    part_report(wl, units, state, emit)

    if tracer is not None:
        metrics = per_layer(tracer, setup_snapshot, state, caches)
        trace_report(tracer, setup_snapshot, state, emit)
        emit(f"tracing overhead: {metrics['trace.overhead'][0]:.2f}x (traced pass over the second, untraced pass)")
    else:
        metrics = {key: e2e[key] for key in RESULT_METRICS}
    return {
        "correct": not problems and state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


_SUITE_LINE = re.compile(r"^(PASS|FAIL)  (\d+) (\S+)  \(([\d.]+)s\)  (.*)$")


def battery(emit=print):
    """Run the acceptance battery once; report each criterion with its gate headroom."""
    import_lofs()
    suite = importlib.import_module("lofs.suite")
    lines = []
    start = time.perf_counter()
    suite.run_suite(emit=lines.append, fail_fast=False)
    records = []
    for line in lines:
        m = _SUITE_LINE.match(line)
        if m is None:
            emit(f"unparsed suite line: {line}")
            continue
        status, number, label, seconds, detail = m.groups()
        gate = GATES.get(number)
        records.append({
            "criterion": int(number), "name": label, "pass": status == "PASS",
            "seconds": float(seconds), "gate_s": gate,
            "headroom_s": None if gate is None else round(gate - float(seconds), 1),
            "detail": detail,
        })
        head = "" if gate is None else f"  gate {gate:g}s, headroom {gate - float(seconds):.1f}s"
        emit(f"{status}  {number:>2} {label:34s} {float(seconds):7.1f}s{head}")
    emit(f"battery total {time.perf_counter() - start:.1f}s, python {platform.python_version()}, nproc {os.cpu_count()}")
    return {"battery": records}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--battery", action="store_true", help="run the acceptance battery once and report it")
    args = parser.parse_args(argv)
    if not args.battery and args.workload is None:
        parser.error("--workload is required unless --battery is given")
    try:
        if args.battery:
            result = battery()
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
