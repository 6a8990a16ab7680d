"""End-to-end PDN analysis benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics: it times several cold
set-ups, then one closed-loop run of the whole op rounds that fill
``--seconds`` on the reference box, checking every op's output outside
the timed interval.  ``--trace 1`` reports the per-layer
metrics instead, from an untraced and a traced pass over the same ops.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is non-zero when any output check fails
or the workload process cannot run.

This file uses the standard library only: the workload runs in child
processes (``worker.py``), so a cold set-up can be timed from process
start and the parent survives a child that cannot import the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("analysis", "cli")

#: Cold set-ups timed per run (the measuring process's own set-up is
#: one of them, except on ``cli``); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: ``op_tail_ms`` is the highest percentile with this many samples
#: beyond it.
TAIL_BEYOND = 10
#: Every process must be gone this many seconds after start.
DEADLINE_S = 170.0

#: End-to-end metric name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond it)``: the highest percentile
    with ``TAIL_BEYOND`` samples beyond it, i.e. the
    ``TAIL_BEYOND + 1``-th largest latency; the maximum when there are
    too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[-1 - TAIL_BEYOND], TAIL_BEYOND


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_worker(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; ``(its JSON, spawn wall time)``."""
    command = [
        sys.executable,
        WORKER,
        args.workload,
        str(args.seed),
        str(args.seconds),
        mode,
    ]
    spawned = time.time()
    # Own process group: on timeout the worker and any command it
    # started go together.
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {mode} worker ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {mode} worker printed nothing")
    return json.loads(lines[-1]), spawned


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    in_process = args.workload != "cli"
    setups = []
    for _ in range(SETUP_SAMPLES - in_process):
        out, spawned = run_worker(args, "setup", deadline)
        setups.append(out["ready"] - spawned)
    out, spawned = run_worker(args, "measure", deadline)
    if in_process:
        setups.append(out["ready"] - spawned)
    latencies = out["latencies"]
    p, tail_s, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = {
        "setup samples": len(setups),
        "measured op time s": round(sum(latencies), 3),
        "op_tail_ms": f"p{p:.4g} of {len(latencies)} ops, {beyond} beyond",
    }
    if out["quality"]:
        notes["placement violating_fraction"] = statistics.fmean(
            q[0] for q in out["quality"]
        )
        notes["placement peak_over_target"] = statistics.fmean(
            q[1] for q in out["quality"]
        )
    if out["rechecked"]:
        notes["traces re-run alone, not bit-identical"] = (
            f"{out['bit_mismatches']} of {out['rechecked']}"
        )
    return out | {"metrics": metrics, "notes": notes}, out["env"]


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, HERE)
    from layers import METRICS

    out, _ = run_worker(args, "trace", deadline)
    metrics = {
        name: (out["metrics"][name], unit) for name, unit in METRICS.items()
    }
    notes = {"ops per pass": out["ops"], "spans": out["spans_path"]}
    return out | {"metrics": metrics, "notes": notes}, out["env"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (no src/repro)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    out, env = measure(args, deadline)

    failures = out["failures"]
    attempted, failed = out["attempted"], out["failed"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} ops attempted, {failed} failed, "
        f"error_rate {failed / attempted:.4f}"
    )
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for key, value in out["notes"].items():
        print(f"  ({key}: {value})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
