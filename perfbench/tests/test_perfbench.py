"""Tests of the benchmark itself: seeded inputs, metric names, span
arithmetic, and that traced self times account for every op's wall
time.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from layers import CLI_COMMANDS, METRICS  # noqa: E402
from spans import Span, Tracer, self_times, top_level_time  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run_module()
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


# -- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, ops",
    [("analysis", 12), ("placement", 3), ("signoff", 40), ("transient", 4), ("cli", 6)],
)
def test_seed_fixes_inputs(name, ops):
    from workloads import PARTS, WORKLOADS

    cls = (WORKLOADS | PARTS)[name]

    def fingerprints(seed):
        workload = cls(seed)
        return [cls.fingerprint(workload.inputs(i)) for i in range(ops)]

    first = fingerprints(7)
    assert fingerprints(7) == first
    assert fingerprints(8) != first


def test_analysis_carries_each_part_op_for_op():
    from workloads import PARTS, Analysis

    session = Analysis(5)
    ops = [session.inputs(i) for i in range(len(Analysis.classes))]
    for name, cls in PARTS.items():
        mine = [Analysis.fingerprint(op) for op in ops if op["part"] == name]
        part = cls(5)
        expect = [cls.fingerprint(part.inputs(k) | {"part": name}) for k in range(len(mine))]
        assert mine == expect
        assert len(mine) == Analysis.classes.count(name)


# -- metric names ---------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_code_emits():
    from workloads import WORKLOADS

    assert [w["name"] for w in CONFIG["workloads"]] == list(RUN.WORKLOADS) == list(WORKLOADS)
    assert CLI_COMMANDS == WORKLOADS["cli"].classes
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == RUN.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == METRICS


def test_printed_metrics_match_benchmark_json():
    result = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", "analysis",
            "--seed", "3",
            "--seconds", "0.2",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=170,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    printed = json.loads(lines[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == RUN.END_TO_END
    for name, unit in RUN.END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


# -- span arithmetic --------------------------------------------------------------


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 9.0, parent=0),
        Span("e", 20.0, 30.0, op=1),
        # Overlapping children are not subtracted twice.
        Span("f", 21.0, 25.0, parent=4, op=1),
        Span("g", 23.0, 27.0, parent=4, op=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 4.0, 4.0, 4.0])
    assert top_level_time(spans) == {-1: 10.0, 1: 10.0}


def test_tracer_records_nesting_and_generator_resumptions():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def numbers():
        yield traced_inner(1)
        yield traced_inner(2)

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r: {"result": r})
    traced_numbers = tracer.wrap("gen", numbers)
    traced_inner(0)  # inactive: not recorded
    tracer.active = True
    tracer.op = 5
    assert list(traced_numbers()) == [2, 3]
    tracer.active = False
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("gen", -1, 5), ("inner", 0, 5), ("gen", -1, 5), ("inner", 2, 5), ("gen", -1, 5)]
    assert [s.attrs for s in tracer.spans] == [
        {"items": 1}, {"result": 2}, {"items": 1}, {"result": 3}, {}
    ]


# -- layer accounting ---------------------------------------------------------------

_PARTITION = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, {bench!r})
    import worker
    from spans import self_times
    plain, traced, spans = worker.trace_pass({name!r}, {seed}, {ops}, None)
    own = self_times(spans)
    rows = []
    for i, wall in enumerate(traced.latencies):
        top = sum(s.duration for s in spans if s.op == i and s.parent < 0)
        mine = sum(t for s, t in zip(spans, own) if s.op == i)
        rows.append([wall, mine, wall - top])
    print(json.dumps({{"rows": rows, "failed": plain.failed + traced.failed}}))
    """
)


@pytest.mark.parametrize(
    "name, seed, ops", [("placement", 2, 1), ("signoff", 1, 12), ("transient", 1, 1), ("cli", 4, 1)]
)
def test_layer_self_times_and_remainder_sum_to_op_wall_time(name, seed, ops):
    # In a child process: tracing patches the program's modules.
    code = _PARTITION.format(bench=str(BENCH), name=name, seed=seed, ops=ops)
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=170,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0
    assert len(out["rows"]) == ops
    for wall, traced_self, remainder in out["rows"]:
        assert remainder >= 0.0
        assert traced_self > 0.0
        assert traced_self + remainder == pytest.approx(wall, rel=1e-9, abs=1e-12)
