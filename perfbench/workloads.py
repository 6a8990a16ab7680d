"""The benchmark workloads: seeded inputs, one op, output checks.

``analysis`` runs the library parts ``placement``, ``signoff`` and
``transient`` in one loop; ``cli`` runs the command line.

Every workload is closed-loop with one client: the runner starts op
``i + 1`` only after op ``i`` has returned.  Ops come in *rounds*: each
round holds the workload's op mix (``classes``) once, in a seeded
order, so a run that stops on a round boundary always carries the same
mix and the spread between seeds stays small.  Op ``i``'s inputs
depend only on ``(seed, i)``; the program receives nothing but the
generated designs and loads.  ``round_seconds`` is a round's duration
on the reference box (2 CPUs); it sets how many rounds a run makes and
the size of the traced pass of ``--trace 1`` runs.

Each workload exposes:

* ``inputs(i)`` — op ``i``'s generated inputs (outside the timed
  interval);
* ``run(op)`` — the timed call into the program;
* ``check(op, result)`` — output checks, outside the timed interval,
  returning a list of failure messages;
* ``reset()`` — put any state ops mutate back to its set-up value, so
  a traced pass repeats the untraced pass op for op.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import SystemSpec
from repro.datasets.hpc_demand import CHIPS, load_step_trace, node_current_waveform
from repro.parallel.cache import process_cache
from repro.pdn.decap_placement import optimize_decap_placement
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.powermap import PowerMap, hotspot_trajectory
from repro.pdn.stackup import default_stack

#: The paper's design point: 1 kW at 1 V and 2 A/mm², i.e. a 500 mm²
#: die fed through the interposer RDL.
SPEC = SystemSpec()
DIE_SIDE_M = SPEC.die_side_m
SHEET_OHM_SQ = default_stack(SPEC).level("Interposer").lateral.sheet_ohm_sq
LOAD_A = SPEC.pol_current_a
VR_ROUT_OHM = 0.15e-3
VR_L_H = 5e-12
DECAP_UNIT = (0.2e-6, 2e-3, 1e-12)  # C, ESR, ESL of one decap cell


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, *stream])


def round_order(seed: int, round_index: int, classes: tuple) -> list:
    """Round ``round_index``'s op classes, in a seeded order."""
    order = rng_for(seed, round_index, 0).permutation(len(classes))
    return [classes[k] for k in order]


def hotspot_map(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    center = tuple(rng.uniform(0.15, 0.85, 2))
    return PowerMap.gaussian(
        center, sigma=rng.uniform(0.08, 0.25), floor=rng.uniform(0.3, 1.5)
    ).cell_currents(n, n, total)


def vr_array(side: int) -> list[tuple[float, float]]:
    """A regular under-die VR array, ``side`` × ``side`` sites."""
    return [
        ((i + 0.5) / side, (j + 0.5) / side)
        for j in range(side)
        for i in range(side)
    ]


def digest(value: Any, h=None) -> str:
    """Stable hash of an op's inputs (arrays, numbers, strings, nests)."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if isinstance(value, np.ndarray):
        h.update(str((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            digest(value[key], h)
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            digest(item, h)
    else:
        h.update(repr(value).encode())
    return h.hexdigest() if top else ""


# -- placement ------------------------------------------------------------------


class Placement:
    """One op = one ``optimize_decap_placement`` run at default budgets.

    A round holds two 12², six 16² and one 24² design; 24² takes
    about 40% of the op time.  The design
    knobs that set an op's difficulty — the target ratio and the VR
    count — are stratified along each mesh size's op sequence (a
    golden-ratio sequence with a seeded start), so every run spans the
    whole 0.5–0.8 target range; VR sites and the hotspot are drawn
    freely per op.
    """

    name = "placement"
    classes = (12, 12, 16, 16, 16, 16, 16, 16, 24)
    round_seconds = 5.7
    freqs = np.logspace(4, 9, 41)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        # First compile and solve: the spectral engine on a small mesh.
        op = self.inputs(0)
        op["pdn"].impedance_map(self.freqs)

    def reset(self) -> None:
        pass

    def _strata(self, i: int) -> tuple[int, float, int]:
        """Op ``i``'s mesh size, target ratio and VR count."""
        per_round = len(self.classes)
        order = round_order(self.seed, i // per_round, self.classes)
        size = order[i % per_round]
        # m: this op's position in its mesh size's op sequence.
        m = (i // per_round) * self.classes.count(size) + order[
            : i % per_round
        ].count(size)
        start, shift = rng_for(self.seed, 0, 2, size).uniform(0, 1, 2)
        ratio = 0.5 + 0.3 * ((start + m * 0.6180339887498949) % 1.0)
        return size, ratio, 4 + (m + int(5 * shift)) % 5

    def inputs(self, i: int) -> dict:
        size, ratio, vr_count = self._strata(i)
        rng = rng_for(self.seed, i, 1)
        pdn = GridACPDN(DIE_SIDE_M, DIE_SIDE_M, SHEET_OHM_SQ, nx=size, ny=size)
        vrs = rng.uniform(0.05, 0.95, (vr_count, 2))
        routs = VR_ROUT_OHM * rng.uniform(0.5, 2.0, len(vrs))
        for k, ((x, y), rout) in enumerate(zip(vrs, routs)):
            pdn.add_source(f"vr{k}", x, y, 1.0, rout, VR_L_H)
        # Initial allocation follows a hotspot map; mean one cell/node.
        density = hotspot_map(rng, size, 1.0)
        density = density / density.mean()
        pdn.set_decap_density(1.0, *DECAP_UNIT)
        uniform = pdn.impedance_map(self.freqs).peak_map()
        pdn.set_decap_density(density, *DECAP_UNIT)
        return {
            "pdn": pdn,
            "size": size,
            "vrs": vrs,
            "routs": routs,
            "density": density,
            "target": ratio * float(uniform.max()),
            "uniform_peaks": uniform.ravel(),
            "budget_f": DECAP_UNIT[0] * size * size,
            "snapshot": pdn.decap_snapshot(),
        }

    def run(self, op: dict):
        return optimize_decap_placement(
            op["pdn"], op["target"], frequencies_hz=self.freqs
        )

    def check(self, op: dict, result) -> list[str]:
        failures = []
        history = np.asarray(result.violating_fraction_history)
        if np.any(np.diff(history) > 0):
            failures.append("violating-fraction history is not monotone")
        if not np.isclose(
            result.total_capacitance_after_f, op["budget_f"], rtol=1e-9
        ):
            failures.append("placed capacitance does not match the budget")
        tol = op["target"] * (1 + 1e-12)
        uniform = op["uniform_peaks"]
        uniform_key = (np.count_nonzero(uniform > tol) / uniform.size, uniform.max())
        after = result.peak_map_after
        after_key = (np.count_nonzero(after > tol) / after.size, after.max())
        if after_key[0] > uniform_key[0] or (
            after_key[0] == uniform_key[0]
            and after_key[1] > uniform_key[1] * (1 + 1e-9)
        ):
            failures.append("optimized placement is worse than uniform")
        (state, rev), (state0, rev0) = op["pdn"].decap_snapshot(), op["snapshot"]
        if rev != rev0 or not all(
            np.array_equal(a, b) for a, b in zip(state, state0, strict=True)
        ):
            failures.append("grid decap state was not restored")
        return failures

    @staticmethod
    def quality(op: dict, result) -> tuple[float, float]:
        """(violating fraction, final peak / target) of one op."""
        return (
            result.violating_fraction_after,
            result.peak_impedance_after_ohm / op["target"],
        )

    @staticmethod
    def fingerprint(op: dict) -> str:
        return digest(
            {k: op[k] for k in ("size", "vrs", "routs", "density", "target")}
        )


# -- signoff --------------------------------------------------------------------


@dataclass
class _Design:
    grid: GridPDN  # the signed-off design: queries only
    editor: GridPDN  # the same design, for what-if metal edits
    oracle: GridPDN  # engine="factorized": the splu oracle
    oracle_scale: tuple | None = None  # edge scales set on the oracle


class Signoff:
    """Sign-off queries on fixed designs on both sides of the structured
    DC threshold: 48² takes the cached LU, 128² the DCT + Woodbury
    path.  Edits go to a what-if copy of the design, whose non-uniform
    metal takes the PCG path at 128² and writes new factorizations
    into the shared cache at 48²."""

    name = "signoff"
    sizes = (48, 128)
    vr_side = 6  # 36 VRs
    #: One round: 40 ops, one edit in ten, one impedance map.
    classes = (
        (("dc", 48),) * 17
        + (("dc", 128),) * 12
        + (("nk", 48),) * 3
        + (("nk", 128),) * 3
        + (("edit", 48),) * 2
        + (("edit", 128),) * 2
        + (("zmap", 64),)
    )
    round_seconds = 1.3
    nk_scenarios = 32
    #: One op per round is checked against the splu oracle: round r
    #: checks a seeded op of kind ``oracle_kinds[r % 6]``.
    oracle_kinds = tuple(sorted({c for c in classes if c[0] != "zmap"}))
    #: The impedance query: a 64² uniform-density design with a 4×4
    #: VR bank, 10 kHz–1 GHz at four points per decade.
    zmap_vr_side = 4
    zmap_freqs = np.logspace(4, 9, 21)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.designs: dict[int, _Design] = {}
        self.zmap: GridACPDN | None = None

    def _grid(self, n: int, engine: str = "auto", vr_side: int = vr_side) -> GridPDN:
        grid = GridPDN(
            DIE_SIDE_M, DIE_SIDE_M, SHEET_OHM_SQ, nx=n, ny=n, engine=engine
        )
        for k, (x, y) in enumerate(vr_array(vr_side)):
            grid.add_source(f"vr{k}", x, y, 1.0, VR_ROUT_OHM)
        grid.set_sink_array(
            PowerMap.hotspot_mixture().cell_currents(n, n, LOAD_A)
        )
        return grid

    def setup(self) -> None:
        for n in self.sizes:
            design = _Design(self._grid(n), self._grid(n), self._grid(n, "factorized"))
            design.grid.solve()
            self.designs[n] = design
        self.zmap = GridACPDN.from_grid(
            self._grid(64, vr_side=self.zmap_vr_side), source_inductance_h=VR_L_H
        )
        self.zmap.set_decap_density(1.0, *DECAP_UNIT)
        self.zmap.impedance_map(self.zmap_freqs)

    def reset(self) -> None:
        # Forget the edited topologies' factorizations, so a repeat
        # pass misses and refactors exactly as the first one did.
        process_cache().clear()

    def inputs(self, i: int) -> dict:
        r, pos = divmod(i, len(self.classes))
        order = round_order(self.seed, r, self.classes)
        kind, n = order[pos]
        checked = self.oracle_kinds[r % len(self.oracle_kinds)]
        slots = [k for k, c in enumerate(order) if c == checked]
        pick = rng_for(self.seed, r, 3).integers(len(slots))
        rng = rng_for(self.seed, i, 1)
        op = {"kind": kind, "n": n, "oracle": pos == slots[pick]}
        if kind in ("dc", "nk", "edit"):
            op["sinks"] = hotspot_map(rng, n, LOAD_A)
        if kind == "nk":
            pairs = set()
            while len(pairs) < self.nk_scenarios:
                a, b = sorted(rng.choice(self.vr_side**2, 2, replace=False))
                pairs.add((int(a), int(b)))
            op["scenarios"] = sorted(pairs)
        if kind == "edit":
            op["scale"] = (
                rng.uniform(0.7, 1.4, (n, n - 1)),
                rng.uniform(0.7, 1.4, (n - 1, n)),
            )
        return op

    def run(self, op: dict):
        if op["kind"] == "zmap":
            return self.zmap.impedance_map(self.zmap_freqs)
        design = self.designs[op["n"]]
        if op["kind"] == "edit":
            design.editor.set_edge_resistance_scale(*op["scale"])
            design.editor.set_sink_array(op["sinks"])
            return design.editor.solve()
        design.grid.set_sink_array(op["sinks"])
        if op["kind"] == "nk":
            return design.grid.solve_disabled_many(op["scenarios"])
        return design.grid.solve()

    def _oracle(self, n: int, scale: tuple | None) -> GridPDN:
        design = self.designs[n]
        if design.oracle_scale is not scale:
            design.oracle.set_edge_resistance_scale(*(scale or (None, None)))
            design.oracle_scale = scale
        return design.oracle

    def check(self, op: dict, result) -> list[str]:
        if op["kind"] == "zmap":
            mags = np.abs(result.z_ohm)
            if not (np.all(np.isfinite(mags)) and np.all(mags > 0)):
                return ["impedance map has non-finite or zero entries"]
            return []
        total = float(op["sinks"].sum())
        solutions = result if op["kind"] == "nk" else [result]
        disabled = op.get("scenarios", [()])
        failures = []
        for solution, off in zip(solutions, disabled, strict=True):
            currents = solution.source_currents_a
            if abs(currents.sum() - total) > 1e-6 * total:
                failures.append("KCL: source currents do not sum to the load")
            if np.any(currents[list(off)] != 0.0):
                failures.append("a disabled VR carries current")
        if op["oracle"]:
            oracle = self._oracle(op["n"], op.get("scale"))
            oracle.set_sink_array(op["sinks"])
            if op["kind"] == "nk":
                k = len(solutions) // 2
                expect = oracle.solve_disabled(op["scenarios"][k])
                got = solutions[k]
            else:
                expect, got = oracle.solve(), result
            # The oracle's factorization entered the shared cache; drop
            # it so checks do not pile memory into the measured process.
            process_cache().clear()
            dv = np.abs(got.voltage_map - expect.voltage_map).max()
            di = np.abs(got.source_currents_a - expect.source_currents_a).max()
            if dv > 1e-6 * np.abs(expect.voltage_map).max() or di > 1e-6 * total:
                failures.append(
                    f"differs from the splu oracle (dv={dv:.2e}, di={di:.2e})"
                )
        return failures

    @staticmethod
    def fingerprint(op: dict) -> str:
        return digest(op)


# -- transient ------------------------------------------------------------------


class Transient:
    """One op = one ``simulate_many`` ensemble, 8 traces × 500 steps.

    A round is six 32² ensembles (three of each load) and one 64²
    ensemble (the load alternates between rounds): the 64² (structured)
    runs take about a third of the op time, and a 32² (factorized)
    run's cost does not depend on the load.  A step
    ensemble gives each trace its own chip, idle level and hotspot
    profile (rank-1 per trace); a moving-hotspot ensemble takes eight
    staggered windows of one ``hotspot_trajectory`` path, each at its
    own current level.
    """

    name = "transient"
    classes = ((32, "step"),) * 3 + ((32, "hotspot"),) * 3 + ((64, None),)
    round_seconds = 3.3
    traces = 8
    steps = 500
    stagger = 50  # samples between consecutive hotspot windows
    dt_s = 2e-10
    check_rate = 0.25
    #: A trace re-run alone must match its batched run to this many
    #: volts (~10⁴ ulp at 1 V; the rounding gap seen is ~1e-14 V).
    recheck_tol_v = 1e-12
    chips = tuple(p for p in CHIPS if p.kind == "chip" and p.power_w < 5000)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pdns: dict[int, GridTransientPDN] = {}
        self.rechecked = 0
        self.bit_mismatches = 0

    def setup(self) -> None:
        for n in (32, 64):
            pdn = GridTransientPDN(DIE_SIDE_M, DIE_SIDE_M, SHEET_OHM_SQ, nx=n, ny=n)
            for k, (x, y) in enumerate(vr_array(4)):
                pdn.add_source(f"vr{k}", x, y, 1.0, VR_ROUT_OHM, VR_L_H)
            pdn.set_decap_density(1.0, *DECAP_UNIT)
            # First factorization / transform set-up and a short solve.
            flat = np.full((3, n * n), LOAD_A / (n * n))
            pdn.simulate(flat, self.dt_s)
            self.pdns[n] = pdn

    def reset(self) -> None:
        pass

    def inputs(self, i: int) -> dict:
        r, pos = divmod(i, len(self.classes))
        n, kind = round_order(self.seed, r, self.classes)[pos]
        kind = kind or ("step", "hotspot")[r % 2]
        rng = rng_for(self.seed, i, 1)
        samples = self.steps + 1
        waves = np.empty((self.traces, samples, n * n))
        if kind == "step":
            for t in range(self.traces):
                chip = self.chips[int(rng.integers(len(self.chips)))]
                trace = load_step_trace(
                    chip, idle_fraction=rng.uniform(0.2, 0.6), samples=samples
                )
                waves[t] = node_current_waveform(trace, hotspot_map(rng, n, 1.0))
        else:
            path = hotspot_trajectory(
                [tuple(p) for p in rng.uniform(0.1, 0.9, (4, 2))],
                samples + (self.traces - 1) * self.stagger,
                n,
                n,
                1.0,
                sigma=rng.uniform(0.08, 0.2),
            ).reshape(-1, n * n)
            for t, amps in enumerate(rng.uniform(0.5, 1.0, self.traces) * LOAD_A):
                start = t * self.stagger
                np.multiply(path[start : start + samples], amps, out=waves[t])
        return {
            "n": n,
            "kind": kind,
            "waves": waves,
            "recheck": int(rng.integers(self.traces))
            if rng.uniform() < self.check_rate
            else None,
        }

    def run(self, op: dict):
        return self.pdns[op["n"]].simulate_many(op["waves"], self.dt_s)

    def check(self, op: dict, results) -> list[str]:
        failures = []
        if len(results) != self.traces:
            failures.append("wrong number of traces")
        for result in results:
            droop = result.droop_map
            if not (np.all(np.isfinite(droop)) and np.all(droop >= 0)):
                failures.append("droop map is non-finite or negative")
                break
        t = op["recheck"]
        if t is not None:
            alone = self.pdns[op["n"]].simulate(op["waves"][t], self.dt_s)
            batched = results[t]
            pairs = (
                (alone.v_min_map, batched.v_min_map),
                (alone.min_voltage_trace_v, batched.min_voltage_trace_v),
                (alone.droop_v, batched.droop_v),
            )
            self.rechecked += 1
            if not all(np.array_equal(a, b) for a, b in pairs):
                # Not bit-identical: multi-RHS and single-RHS solves
                # round differently.  Counted, and held to a bound far
                # below any physical effect.
                self.bit_mismatches += 1
            worst = max(float(np.abs(np.subtract(a, b)).max()) for a, b in pairs)
            if not worst <= self.recheck_tol_v:
                failures.append(
                    f"trace {t} alone differs from its batched run by {worst:.2e} V"
                )
        return failures

    @staticmethod
    def fingerprint(op: dict) -> str:
        return digest(op)


# -- cli ------------------------------------------------------------------------


class Cli:
    """One op = one cold ``python -m repro <cmd>`` subprocess, jobs=1."""

    name = "cli"
    #: command -> lines its output must contain.
    markers = {
        "report": ("Claim checks", "all claims hold"),
        "experiments": ("all claims hold",),
        "redundancy": ("tolerates any single failure: yes",),
        "montecarlo": ("Monte-Carlo loss", "infeasible samples: 0"),
        "transient": ("load-step droop ensemble",),
        "decap": ("decap density sweep",),
    }
    classes = tuple(markers)
    round_seconds = 7.5

    def __init__(self, seed: int, trace_dir: str | None = None) -> None:
        self.seed = seed
        self.trace_dir = trace_dir

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def inputs(self, i: int) -> dict:
        command = round_order(self.seed, i // len(self.classes), self.classes)[
            i % len(self.classes)
        ]
        return {"command": command, "argv": [command, "--jobs", "1"], "i": i}

    def command_line(self, op: dict) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *op["argv"]]
        out = os.path.join(self.trace_dir, f"op{op['i']}.json")
        op["spans_path"] = out
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_op.py")
        return [sys.executable, tool, out, *op["argv"]]

    def run(self, op: dict):
        # The commands inherit this process's PYTHONPATH, which finds
        # the program's sources.
        return subprocess.run(self.command_line(op), capture_output=True, text=True)

    def check(self, op: dict, result) -> list[str]:
        if result.returncode != 0:
            return [f"{op['command']} exited {result.returncode}"]
        missing = [m for m in self.markers[op["command"]] if m not in result.stdout]
        return [f"{op['command']} output lacks {m!r}" for m in missing]

    @staticmethod
    def fingerprint(op: dict) -> str:
        return digest(op["argv"])


# -- analysis -------------------------------------------------------------------

#: Rounds of each library part in one round of ``analysis``.
ANALYSIS_ROUNDS = {Placement: 1, Signoff: 2, Transient: 1}


class Analysis:
    """One design session on the library: the placement, sign-off and
    load-step transient ops in one closed loop.

    A round holds one round of placement and transient and two of
    sign-off, interleaved in a seeded order; a part's ``k``-th op of
    the run is that part's op ``k``, so every part keeps its own round
    mix, inputs and checks.  With two sign-off rounds the median op is
    a 128² DC solve, in the middle of their latencies, and the tail op
    a 16² placement run.  The parts share one process, as a user's
    session does: the factorization cache, the allocator and the BLAS
    threads.
    """

    name = "analysis"
    parts = {w.name: w for w in ANALYSIS_ROUNDS}
    classes = tuple(
        w.name for w, k in ANALYSIS_ROUNDS.items() for _ in range(k * len(w.classes))
    )
    round_seconds = sum(k * w.round_seconds for w, k in ANALYSIS_ROUNDS.items())

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workloads = {name: w(seed) for name, w in self.parts.items()}

    def setup(self) -> None:
        for workload in self.workloads.values():
            workload.setup()

    def reset(self) -> None:
        for workload in self.workloads.values():
            workload.reset()

    def inputs(self, i: int) -> dict:
        r, pos = divmod(i, len(self.classes))
        order = round_order(self.seed, r, self.classes)
        part = order[pos]
        k = r * self.classes.count(part) + order[:pos].count(part)
        return self.workloads[part].inputs(k) | {"part": part}

    def run(self, op: dict):
        return self.workloads[op["part"]].run(op)

    def check(self, op: dict, result) -> list[str]:
        return self.workloads[op["part"]].check(op, result)

    def quality(self, op: dict, result) -> tuple[float, float] | None:
        """Placement quality of a placement op; ``None`` for the rest."""
        if op["part"] != "placement":
            return None
        return Placement.quality(op, result)

    @property
    def rechecked(self) -> int:
        return self.workloads["transient"].rechecked

    @property
    def bit_mismatches(self) -> int:
        return self.workloads["transient"].bit_mismatches

    @classmethod
    def fingerprint(cls, op: dict) -> str:
        return cls.parts[op["part"]].fingerprint(op)


#: The benchmark's workloads; ``PARTS`` are the library parts of
#: ``analysis``, which the benchmark's tests also run on their own.
WORKLOADS = {w.name: w for w in (Analysis, Cli)}
PARTS = Analysis.parts
