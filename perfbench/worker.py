"""The workload process: set up, run the closed loop, check, report.

Started by ``run.py``; not meant to be run by hand.  Usage::

    python worker.py <workload> <seed> <seconds> <mode>

``mode`` is ``setup`` (set up, report when ready, exit), ``measure``
(the untraced timed loop) or ``trace`` (an untraced pass and a traced
pass over the same ops).  The process prints one JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, Tracer, dump_spans, load_spans, top_level_time  # noqa: E402

OUT_DIR = ".perfbench_out"


def rounds_for(workload_cls, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` on the reference box.

    A fixed count rather than a time box: every run of a workload
    carries the same ops, so the percentile behind ``op_tail_ms`` and
    the traced pass's counts repeat for a seed, however busy the box."""
    return max(1, round(seconds / workload_cls.round_seconds))


def trace_ops(workload_cls, seconds: float) -> int:
    """Ops in each pass of a traced run: whole rounds, half a run's."""
    return rounds_for(workload_cls, seconds / 2) * len(workload_cls.classes)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy: no machine-readable config
        blas = "unknown"
    threads = {
        key: os.environ.get(key, "unset")
        for key in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **threads,
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class Loop:
    """Closed loop with one client over a workload's ops.

    With a ``tracer``, spans are recorded during each op's timed call,
    and ``counters()`` (a dict of running totals) is sampled around it
    into ``self.counts``."""

    def __init__(self, workload, tracer: Tracer | None = None, counters=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.counters = counters
        self.counts: dict[str, int] = {}
        self.latencies: list[float] = []
        self.commands: list[str] = []
        self.quality: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def step(self, i: int):
        wl = self.workload
        op = wl.inputs(i)
        tracer = self.tracer
        if tracer is not None:
            before = self.counters() if self.counters else {}
            tracer.op = i
            tracer.active = True
        start = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed op counts into error_rate
            result, problems = None, [f"op {i} raised {exc!r}"]
        finally:
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
                for key, value in (self.counters() if self.counters else {}).items():
                    self.counts[key] = self.counts.get(key, 0) + value - before[key]
        self.attempted += 1
        self.latencies.append(latency)
        self.commands.append(op.get("command", ""))
        if result is not None:
            try:
                problems = [f"op {i}: {p}" for p in wl.check(op, result)]
            except Exception as exc:
                problems = [f"op {i} check raised {exc!r}"]
            quality = getattr(wl, "quality", None)
            if quality is not None and not problems:
                if (q := quality(op, result)) is not None:
                    self.quality.append(q)
        self.failures.extend(problems)
        self.failed += bool(problems)
        return op

    def run_for(self, seconds: float) -> None:
        """Run the whole rounds that fill ``seconds`` on the reference box."""
        self.run_n(rounds_for(type(self.workload), seconds) * len(self.workload.classes))

    def run_n(self, n: int) -> list[dict]:
        return [self.step(i) for i in range(n)]


def workload_class(name: str):
    """A benchmark workload, or one library part of ``analysis``."""
    from workloads import PARTS, WORKLOADS

    return (WORKLOADS | PARTS)[name]


def make(name: str, seed: int, trace_dir: str | None = None):
    cls = workload_class(name)
    return cls(seed, trace_dir) if name == "cli" else cls(seed)


def measure(name: str, seed: int, seconds: float) -> dict:
    wl = make(name, seed)
    wl.setup()
    ready = time.time()
    loop = Loop(wl)
    loop.run_for(seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "ready": ready,
        "latencies": loop.latencies,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "quality": loop.quality,
        "bit_mismatches": getattr(wl, "bit_mismatches", None),
        "rechecked": getattr(wl, "rechecked", None),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def trace_pass(name: str, seed: int, n_ops: int, import_span: Span | None):
    """Untraced then traced pass over ops ``0..n_ops-1``.

    Returns ``(untraced loop, traced loop, spans)``; the spans carry
    the op ids of the traced pass, and the traced loop's ``counts`` the
    factorization-cache lookups its ops made.
    """
    from layers import install

    trace_dir = None
    if name == "cli":
        trace_dir = os.path.join(OUT_DIR, f"cli-spans-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
    wl = make(name, seed)
    wl.setup()
    plain = Loop(wl)
    plain.run_n(n_ops)
    wl.reset()
    tracer = Tracer()
    if import_span is not None:
        tracer.spans.append(import_span)
    if name == "cli":
        traced = Loop(make(name, seed, trace_dir))
        for i, op in enumerate(traced.run_n(n_ops)):
            path = op["spans_path"]
            tracer.spans.extend(load_spans(path, i, len(tracer.spans)))
            os.remove(path)
        os.rmdir(trace_dir)
    else:
        install(tracer)
        traced = Loop(wl, tracer, _cache_counts)
        traced.run_n(n_ops)
    return plain, traced, tracer.spans


def trace(name: str, seed: int, seconds: float, import_span: Span) -> dict:
    from layers import layer_metrics

    n_ops = trace_ops(workload_class(name), seconds)
    plain, traced, spans = trace_pass(
        name, seed, n_ops, None if name == "cli" else import_span
    )
    metrics = layer_metrics(spans)
    if name == "cli":
        imports = [s.duration for s in spans if s.name == "import.repro"]
        metrics["import.repro_s"] = statistics.median(imports)
        for cmd in set(plain.commands):
            metrics[f"cli.{cmd}.wall_s"] = statistics.median(
                t for t, c in zip(plain.latencies, plain.commands) if c == cmd
            )
        probe = _pool_probe(make(name, seed))
        plain.failures.extend(probe["failures"])
        plain.failed += bool(probe["failures"])
        plain.attempted += 1
        metrics["parallel.executor.pool_speedup"] = (
            metrics["cli.decap.wall_s"] / probe["wall_s"]
        )
    else:
        for key, count in traced.counts.items():
            metrics[f"parallel.cache.{key}"] = count
        lookups = metrics["parallel.cache.hits"] + metrics["parallel.cache.misses"]
        if lookups:
            metrics["parallel.cache.hit_ratio"] = metrics["parallel.cache.hits"] / lookups
    if traced.quality:
        metrics["placement.violating_fraction"] = statistics.fmean(
            q[0] for q in traced.quality
        )
        metrics["placement.peak_over_target"] = statistics.fmean(
            q[1] for q in traced.quality
        )
    if hasattr(traced.workload, "bit_mismatches"):
        # Both passes share the workload object: rechecks of both.
        metrics["pdn.grid_transient.batch_bit_mismatches"] = (
            traced.workload.bit_mismatches
        )
    covered = top_level_time(spans)
    metrics["bench.unattributed_s"] = sum(
        wall - covered.get(i, 0.0) for i, wall in enumerate(traced.latencies)
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(traced.latencies) / sum(plain.latencies) - 1.0
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    dump_spans(spans, spans_path)
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "spans_path": spans_path,
        "ops": n_ops,
    }


def _cache_counts() -> dict:
    from repro.parallel.cache import process_cache

    # FactorizationCache.clear() swaps in a fresh CacheStats, so read
    # the live object each time.
    stats = process_cache().stats
    return {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions}


def _pool_probe(cli) -> dict:
    """One ``repro decap --jobs 2`` run: the process-pool path."""
    op = {"command": "decap", "argv": ["decap", "--jobs", "2"], "i": -1}
    start = time.perf_counter()
    result = cli.run(op)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "failures": cli.check(op, result)}


def main() -> None:
    name, seed, seconds, mode = sys.argv[1:5]
    seed, seconds = int(seed), float(seconds)
    start = time.perf_counter()
    if name == "cli" and mode == "setup":
        import repro.cli  # noqa: F401  the CLI's own cold start
    else:
        import workloads  # noqa: F401  numpy, scipy and repro
    import_span = Span("import.repro", start, time.perf_counter())
    if mode == "setup":
        if name != "cli":
            make(name, seed).setup()
        out = {"ready": time.time()}
    elif mode == "measure":
        out = measure(name, seed, seconds)
        out["env"] = environment()
    else:
        out = trace(name, seed, seconds, import_span)
        out["env"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
