"""Which calls into ``repro`` are traced, and the per-layer metrics.

``install`` swaps each traced function or method for a
:meth:`spans.Tracer.wrap` stand-in.  A function is replaced in its own
module and at every call site that bound it by name at import (``from
.pcg import pcg_solve`` in ``fast_poisson``, package re-exports...),
so every caller reaches the wrapper.  ``layer_metrics`` turns the
recorded spans into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

from spans import Span, Tracer, self_times

#: Packages whose every function and method counts toward one layer.
WHOLE_PACKAGES = ("core", "converters", "reporting")

CLI_COMMANDS = ("report", "experiments", "redundancy", "montecarlo", "transient", "decap")

COUNT, SECONDS, RATIO = "count", "s", "ratio"

#: Per-layer metric name -> unit, in BENCHMARK.json order.
METRICS = {
    "import.repro_s": SECONDS,
    "pdn.grid.ac_map.calls": COUNT,
    "pdn.grid.ac_map.self_s": SECONDS,
    "pdn.grid.ac_map.spectral_calls": COUNT,
    "pdn.grid.ac_map.structured_calls": COUNT,
    "pdn.grid.ac_map.direct_calls": COUNT,
    "pdn.grid.ac_map.spectral_self_s": SECONDS,
    "pdn.grid.ac_columns.calls": COUNT,
    "pdn.grid.ac_columns.self_s": SECONDS,
    "pdn.decap_placement.self_s": SECONDS,
    "pdn.decap_placement.evaluations": COUNT,
    "pdn.decap_placement.accept_ratio": RATIO,
    "placement.violating_fraction": RATIO,
    "placement.peak_over_target": RATIO,
    "pdn.grid.dc_solve.calls": COUNT,
    "pdn.grid.dc_solve.self_s": SECONDS,
    "pdn.fast_poisson.solve.calls": COUNT,
    "pdn.fast_poisson.solve.self_s": SECONDS,
    "pdn.grid.nk_sweep.scenarios": COUNT,
    "pdn.grid.nk_sweep.self_s": SECONDS,
    "pdn.mna.solve_modified.self_s": SECONDS,
    "pdn.grid.edit.calls": COUNT,
    "pdn.pcg.calls": COUNT,
    "pdn.pcg.iterations": COUNT,
    "pdn.pcg.self_s": SECONDS,
    "pdn.mna.factorize.calls": COUNT,
    "pdn.mna.factorize.self_s": SECONDS,
    "parallel.cache.hits": COUNT,
    "parallel.cache.misses": COUNT,
    "parallel.cache.evictions": COUNT,
    "parallel.cache.hit_ratio": RATIO,
    "parallel.cache.fingerprint_s": SECONDS,
    "pdn.grid_transient.trace_steps": COUNT,
    "pdn.grid_transient.self_s": SECONDS,
    "pdn.grid_transient.us_per_trace_step": "us",
    "pdn.grid_transient.structured_calls": COUNT,
    "pdn.grid_transient.factorized_calls": COUNT,
    "pdn.grid_transient.input_mb": "MB",
    "pdn.grid_transient.batch_bit_mismatches": COUNT,
    "parallel.executor.chunks": COUNT,
    "parallel.executor.self_s": SECONDS,
    "parallel.executor.pool_speedup": RATIO,
    "core.self_s": SECONDS,
    "converters.self_s": SECONDS,
    "reporting.self_s": SECONDS,
    **{f"cli.{cmd}.wall_s": SECONDS for cmd in CLI_COMMANDS},
    "bench.unattributed_s": SECONDS,
    "trace.overhead_pct": "%",
}


def _import_all() -> None:
    """Load every ``repro`` module, so call sites exist before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _bindings() -> dict[int, list]:
    """Every ``(module, name)`` a function is bound to in ``repro``,
    keyed by the function's id."""
    index: dict[int, list] = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    index.setdefault(id(value), []).append((module, attr))
    return index


def _rebind(index: dict, original, wrapper) -> None:
    for module, attr in index.get(id(original), ()):
        setattr(module, attr, wrapper)


def _function(tracer: Tracer, index: dict, module, attr: str, label: str, attrs=None) -> None:
    original = getattr(module, attr)
    _rebind(index, original, tracer.wrap(label, original, attrs))


def _method(tracer: Tracer, cls, attr: str, label: str, attrs=None) -> None:
    setattr(cls, attr, tracer.wrap(label, cls.__dict__[attr], attrs))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of ``repro``; call once per process."""
    _import_all()
    index = _bindings()
    from repro.parallel import cache, executor
    from repro.pdn import decap_placement, pcg
    from repro.pdn.fast_poisson import StructuredGridPDN
    from repro.pdn.grid import GridACPDN, GridPDN
    from repro.pdn.grid_transient import GridTransientPDN
    from repro.pdn.mna import FactorizedPDN

    def engine(args, kwargs, result):
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        return {"engine": args[0].impedance_engine(method)}

    _method(tracer, GridACPDN, "impedance_map", "pdn.grid.ac_map", engine)
    _method(tracer, GridACPDN, "impedance_columns", "pdn.grid.ac_columns")
    _function(
        tracer,
        index,
        decap_placement,
        "optimize_decap_placement",
        "pdn.decap_placement",
        lambda a, k, r: {"accepted": r.iterations + r.gradient_steps_taken},
    )
    _method(tracer, GridPDN, "solve", "pdn.grid.dc_solve")
    _method(tracer, GridPDN, "solve_many", "pdn.grid.dc_solve")
    _method(
        tracer, GridPDN, "solve_disabled", "pdn.grid.nk_sweep",
        lambda a, k, r: {"scenarios": 1},
    )
    _method(
        tracer, GridPDN, "solve_disabled_many", "pdn.grid.nk_sweep",
        lambda a, k, r: {"scenarios": len(r)},
    )
    _method(tracer, GridPDN, "set_edge_resistance_scale", "pdn.grid.edit")
    _method(tracer, StructuredGridPDN, "solve_reduced", "pdn.fast_poisson.solve")
    _function(
        tracer, index, pcg, "pcg_solve", "pdn.pcg",
        lambda a, k, r: {"iterations": r.iterations},
    )
    _method(tracer, FactorizedPDN, "__init__", "pdn.mna.factorize")
    _method(tracer, FactorizedPDN, "solve_modified", "pdn.mna.solve_modified")
    _method(tracer, FactorizedPDN, "solve_modified_many", "pdn.mna.solve_modified")
    _function(tracer, index, cache, "compiled_fingerprint", "parallel.cache.fingerprint")

    def ensemble(args, kwargs, results):
        waves = kwargs["waveforms_a"] if "waveforms_a" in kwargs else args[1]
        nbytes = getattr(waves, "nbytes", 0)
        steps = sum(len(r.time_s) - 1 for r in results)
        return {"steps": steps, "engine": results[0].engine, "bytes": nbytes}

    _method(tracer, GridTransientPDN, "simulate_many", "pdn.grid_transient", ensemble)
    _method(
        tracer, GridTransientPDN, "simulate_step", "pdn.grid_transient",
        lambda a, k, r: {"steps": len(r.time_s) - 1, "engine": r.engine},
    )
    _function(tracer, index, executor, "run_sweep", "parallel.executor")
    _function(tracer, index, executor, "run_sweep_collect", "parallel.executor")

    for package in WHOLE_PACKAGES:
        _wrap_package(tracer, index, package)


def _wrap_package(tracer: Tracer, index: dict, package: str) -> None:
    """Wrap every function and method defined in ``repro.<package>``."""
    prefix = f"repro.{package}"
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(value) and value.__module__ == name:
                _rebind(index, value, tracer.wrap(f"{package}.{attr}", value))
            elif inspect.isclass(value) and value.__module__ == name:
                for method, fn in list(vars(value).items()):
                    if inspect.isfunction(fn) and not method.startswith("__"):
                        setattr(
                            value,
                            method,
                            tracer.wrap(f"{package}.{value.__name__}.{method}", fn),
                        )


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the traced ops (counts and self seconds)."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in METRICS}

    def add(key: str, value: float) -> None:
        out[key] += value

    accepted = 0
    for index, (span, own) in enumerate(zip(spans, selfs)):
        name, attrs = span.name, span.attrs
        if name == "import.repro":
            add("import.repro_s", own)
        elif name == "pdn.grid.ac_map":
            add("pdn.grid.ac_map.calls", 1)
            add("pdn.grid.ac_map.self_s", own)
            kind = attrs["engine"].split("-")[0]
            add(f"pdn.grid.ac_map.{kind}_calls", 1)
            if kind == "spectral":
                add("pdn.grid.ac_map.spectral_self_s", own)
            if any(a.name == "pdn.decap_placement" for a in _ancestors(spans, index)):
                add("pdn.decap_placement.evaluations", 1)
        elif name == "pdn.grid.ac_columns":
            add("pdn.grid.ac_columns.calls", 1)
            add("pdn.grid.ac_columns.self_s", own)
        elif name == "pdn.decap_placement":
            add("pdn.decap_placement.self_s", own)
            accepted += attrs.get("accepted", 0)
        elif name == "pdn.grid.dc_solve":
            add("pdn.grid.dc_solve.calls", 1)
            add("pdn.grid.dc_solve.self_s", own)
        elif name == "pdn.fast_poisson.solve":
            add("pdn.fast_poisson.solve.calls", 1)
            add("pdn.fast_poisson.solve.self_s", own)
        elif name == "pdn.grid.nk_sweep":
            add("pdn.grid.nk_sweep.scenarios", attrs.get("scenarios", 0))
            add("pdn.grid.nk_sweep.self_s", own)
        elif name == "pdn.mna.solve_modified":
            add("pdn.mna.solve_modified.self_s", own)
        elif name == "pdn.grid.edit":
            add("pdn.grid.edit.calls", 1)
        elif name == "pdn.pcg":
            add("pdn.pcg.calls", 1)
            add("pdn.pcg.iterations", attrs.get("iterations", 0))
            add("pdn.pcg.self_s", own)
        elif name == "pdn.mna.factorize":
            add("pdn.mna.factorize.calls", 1)
            add("pdn.mna.factorize.self_s", own)
        elif name == "parallel.cache.fingerprint":
            add("parallel.cache.fingerprint_s", own)
        elif name == "pdn.grid_transient":
            add("pdn.grid_transient.trace_steps", attrs.get("steps", 0))
            add("pdn.grid_transient.self_s", own)
            engine = attrs.get("engine")
            if engine in ("structured", "factorized"):
                add(f"pdn.grid_transient.{engine}_calls", 1)
            out["pdn.grid_transient.input_mb"] = max(
                out["pdn.grid_transient.input_mb"], attrs.get("bytes", 0) / 1e6
            )
        elif name == "parallel.executor":
            add("parallel.executor.chunks", attrs.get("items", 0))
            add("parallel.executor.self_s", own)
        else:
            package = name.split(".")[0]
            if package in WHOLE_PACKAGES:
                add(f"{package}.self_s", own)
    if out["pdn.decap_placement.evaluations"]:
        out["pdn.decap_placement.accept_ratio"] = (
            accepted / out["pdn.decap_placement.evaluations"]
        )
    if out["pdn.grid_transient.trace_steps"]:
        out["pdn.grid_transient.us_per_trace_step"] = (
            1e6 * out["pdn.grid_transient.self_s"]
            / out["pdn.grid_transient.trace_steps"]
        )
    return out
