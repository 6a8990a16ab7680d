"""Property-based tests of the factor-once grid transient engine.

Three pillars:

* **Oracle parity** — a 1xN chain mesh is electrically identical to an
  N-stage lumped ladder, so :class:`GridTransientPDN` must reproduce
  :class:`PDNTransient` (an independent state-space integrator) to
  1e-6 relative over randomized R/L/C ladders.
* **Engine equivalence** — the DCT-diagonalized structured engine and
  the LU-factorized engine solve the same discretized system; their
  traces must agree to 1e-8.
* **DC limit** — a constant waveform must hold the mesh exactly at the
  :meth:`GridPDN.solve` operating point (capacitors open, inductors
  short).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import chips, load_step_trace, node_current_waveform
from repro.errors import ConfigError, DatasetError
from repro.pdn import (
    GridPDN,
    GridTransientPDN,
    PDNStage,
    PDNTransient,
    PowerMap,
    hotspot_trajectory,
)


def chain_pair(n, r_src, l_src, r_edge, l_edge, caps, esrs, volt=1.0):
    """An n-stage lumped ladder and its 1xN chain-mesh twin.

    Ladder stage 1 is the mesh's VR branch (rout + source inductance);
    stages 2..n are the uniform chain edges; stage k's C/ESR shunt is
    node k-1's decap.
    """
    stages = [PDNStage("s1", r_src, l_src, caps[0], esrs[0])]
    for k in range(1, n):
        stages.append(PDNStage(f"s{k + 1}", r_edge, l_edge, caps[k], esrs[k]))
    oracle = PDNTransient(volt, stages)

    mesh = GridTransientPDN(
        1.0, 1.0, r_edge * (n - 1), nx=n, ny=1, edge_inductance_x_h=l_edge
    )
    mesh.add_source("vr", 0.0, 0.0, volt, r_src, inductance_h=l_src)
    mesh.set_decap_map(
        np.asarray(caps).reshape(1, n), np.asarray(esrs).reshape(1, n), 0.0
    )
    sink = np.zeros((1, n))
    sink[0, -1] = 1.0
    mesh.set_sink_array(sink)
    return oracle, mesh


@st.composite
def ladders(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    r_src = draw(st.floats(min_value=0.1, max_value=2.0))
    l_src = draw(st.floats(min_value=2e-7, max_value=5e-6))
    r_edge = draw(st.floats(min_value=0.2, max_value=3.0))
    l_edge = draw(st.floats(min_value=2e-7, max_value=5e-6))
    caps = [
        draw(st.floats(min_value=5e-7, max_value=5e-6)) for _ in range(n)
    ]
    esrs = [
        draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)
    ]
    return n, r_src, l_src, r_edge, l_edge, caps, esrs


class TestOracleParity:
    """Mesh chain vs the independent lumped state-space integrator."""

    @given(params=ladders())
    @settings(max_examples=20, deadline=None)
    def test_chain_matches_lumped_ladder(self, params):
        n, r_src, l_src, r_edge, l_edge, caps, esrs = params
        oracle, mesh = chain_pair(
            n, r_src, l_src, r_edge, l_edge, caps, esrs
        )
        # dt resolves the fastest admissible branch mode (~0.05 esr*C
        # at the strategy corner): trapezoidal error is O((rate*dt)^2),
        # and this step size keeps the worst corner ~2e-7, a 5x margin
        # under the 1e-6 bound.
        dt, steps = 2.5e-10, 1024
        ref = oracle.simulate_step(
            0.05, 0.18, duration_s=steps * dt, dt_s=dt
        )
        res = mesh.simulate_step(
            0.05, 0.18, duration_s=steps * dt, dt_s=dt,
            probe_nodes=[(n - 1, 0)],
        )
        pol = ref.pol_voltage_v
        err = np.max(
            np.abs(res.probe_voltages_v[:, 0] - pol)
        ) / np.max(np.abs(pol))
        assert err <= 1e-6

    def test_droop_and_settle_match_oracle(self):
        caps = [2e-6, 1.5e-6, 3e-6, 1e-6]
        esrs = [0.5, 0.3, 0.8, 0.4]
        oracle, mesh = chain_pair(4, 0.8, 2e-6, 1.2, 1.5e-6, caps, esrs)
        dt, steps = 1e-9, 512
        ref = oracle.simulate_step(
            0.05, 0.18, duration_s=steps * dt, dt_s=dt
        )
        res = mesh.simulate_step(
            0.05, 0.18, duration_s=steps * dt, dt_s=dt,
            probe_nodes=[(3, 0)],
        )
        assert res.droop_v == pytest.approx(ref.droop_v, rel=1e-6)
        assert res.settle_time_s == pytest.approx(
            ref.settle_time_s, abs=2 * dt
        )


def mesh_fixture(engine: str) -> GridTransientPDN:
    pdn = GridTransientPDN(0.02, 0.02, 0.004, nx=12, ny=12, engine=engine)
    for i, (x, y) in enumerate([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]):
        pdn.add_source(f"vr{i}", x, y, 1.0, 0.02, inductance_h=5e-12)
    pdn.connect_sources_with_ring_bus(0.005)
    pdn.set_sinks(PowerMap.hotspot_mixture(), 120.0)
    return pdn


class TestEngineEquivalence:
    """Structured (DCT + Woodbury) vs factorized (LU) engines."""

    def run_both(self, decap_density):
        results = []
        for engine in ("factorized", "structured"):
            pdn = mesh_fixture(engine)
            pdn.set_decap_density(decap_density, 0.2e-6, 2e-3, 1e-12)
            results.append(
                pdn.simulate_step(
                    60.0, 120.0, duration_s=1e-7, dt_s=1e-10,
                    probe_nodes=[(6, 6)],
                )
            )
        return results

    @given(
        density=st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_engines_agree(self, density):
        fact, struct = self.run_both(density)
        assert fact.engine == "factorized"
        assert struct.engine == "structured"
        scale = np.max(np.abs(fact.probe_voltages_v))
        probe_err = np.max(
            np.abs(fact.probe_voltages_v - struct.probe_voltages_v)
        ) / scale
        assert probe_err <= 1e-8
        assert np.max(np.abs(fact.droop_map - struct.droop_map)) <= 1e-8

    def test_nonuniform_decap_map_agrees(self):
        # Mostly uniform with a handful of hotspot allocations — the
        # sparse-deviation regime the rank-s Woodbury correction covers
        # — plus the two zero-shift designs that take the deflation
        # column and the refinement round: a decap-free mesh, and a
        # zero-base map with ten decap islands as deviation columns.
        rng = np.random.default_rng(3)
        density = np.ones((12, 12))
        rows = rng.choice(144, size=10, replace=False)
        density.ravel()[rows] = 1.0 + rng.random(10) * 3.0
        islands = np.zeros((12, 12))
        islands.ravel()[rng.choice(144, size=10, replace=False)] = 2.0
        for decap in (density, None, islands):
            results = []
            for engine in ("factorized", "structured"):
                pdn = mesh_fixture(engine)
                if decap is not None:
                    pdn.set_decap_density(decap, 0.2e-6, 2e-3, 1e-12)
                results.append(
                    pdn.simulate_step(
                        60.0, 120.0, duration_s=5e-8, dt_s=1e-10,
                        probe_nodes=[(6, 6)],
                    )
                )
            fact, struct = results
            assert struct.engine == "structured"
            assert np.max(np.abs(fact.v_min_map - struct.v_min_map)) <= 1e-8
            assert np.max(
                np.abs(fact.probe_voltages_v - struct.probe_voltages_v)
            ) <= 1e-8 * np.max(np.abs(fact.probe_voltages_v))

    def test_dense_deviations_fall_back_under_auto(self):
        # A fully random decap map exceeds the Woodbury rank budget:
        # explicit 'structured' refuses, 'auto' falls back to the LU.
        from repro.pdn import StructuredSolveError

        rng = np.random.default_rng(5)
        density = 0.5 + rng.random((12, 12))
        strict = mesh_fixture("structured")
        strict.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
        with pytest.raises(StructuredSolveError):
            strict.simulate_step(60.0, 120.0, duration_s=1e-8, dt_s=1e-10)
        auto = mesh_fixture("auto")
        auto.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
        res = auto.simulate_step(60.0, 120.0, duration_s=1e-8, dt_s=1e-10)
        assert res.engine == "factorized"

    def test_auto_prefers_factorized_on_small_mesh(self):
        pdn = mesh_fixture("auto")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        res = pdn.simulate_step(60.0, 120.0, duration_s=2e-8, dt_s=1e-10)
        assert res.engine == "factorized"


class TestDCLimit:
    """Constant drive holds the GridPDN.solve operating point."""

    def dc_pair(self):
        grid = GridPDN(0.02, 0.02, 0.004, nx=12, ny=12)
        for i, (x, y) in enumerate([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]):
            grid.add_source(f"vr{i}", x, y, 1.0, 0.02)
        grid.connect_sources_with_ring_bus(0.005)
        grid.set_sinks(PowerMap.hotspot_mixture(), 120.0)
        tp = GridTransientPDN.from_grid(grid, source_inductance_h=5e-12)
        tp.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        return grid, tp

    def test_initial_map_matches_dc_solve(self):
        grid, tp = self.dc_pair()
        sol = grid.solve()
        wave = np.repeat(grid._sink_map.ravel()[None, :], 64, axis=0)
        res = tp.simulate(wave, 1e-10)
        assert np.max(np.abs(res.v_pre_map - sol.voltage_map)) <= 1e-9

    def test_constant_load_does_not_drift(self):
        grid, tp = self.dc_pair()
        wave = np.repeat(grid._sink_map.ravel()[None, :], 64, axis=0)
        res = tp.simulate(wave, 1e-10)
        assert np.max(np.abs(res.v_min_map - res.v_pre_map)) <= 1e-9
        assert res.droop_v <= 1e-9

    def test_batched_traces_match_single_runs(self):
        grid, tp = self.dc_pair()
        base = grid._sink_map.ravel()
        rng = np.random.default_rng(11)
        waves = np.stack(
            [
                np.repeat(base[None, :], 32, axis=0)
                * (0.5 + rng.random(32))[:, None]
                for _ in range(4)
            ]
        )
        batch = tp.simulate_many(waves, 1e-10, probe_nodes=[(3, 4)])
        singles = [
            tp.simulate(w, 1e-10, probe_nodes=[(3, 4)]) for w in waves
        ]
        for b, s in zip(batch, singles):
            assert np.array_equal(b.probe_voltages_v, s.probe_voltages_v)
            assert b.droop_v == s.droop_v


class TestWaveformAdapters:
    """The dataset-trace and moving-hotspot drive-signal helpers."""

    def test_load_step_trace_shape_and_levels(self):
        chip = chips()[0]
        trace = load_step_trace(chip, samples=64, idle_fraction=0.25)
        full = chip.power_w / 1.0
        assert trace.shape == (64,)
        assert trace[0] == pytest.approx(0.25 * full)
        assert np.all(trace[1:] == full)

    def test_load_step_trace_rejects_servers(self):
        from repro.datasets import servers

        with pytest.raises(DatasetError):
            load_step_trace(servers()[0])

    def test_node_current_waveform_conserves_total(self):
        trace = np.array([10.0, 40.0, 40.0])
        profile = PowerMap.hotspot_mixture().cell_currents(6, 6, 1.0)
        wave = node_current_waveform(trace, profile)
        assert wave.shape == (3, 36)
        np.testing.assert_allclose(wave.sum(axis=1), trace)

    def test_trace_drives_the_mesh(self):
        chip = chips()[0]
        trace = load_step_trace(chip, samples=48)
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        profile = PowerMap.hotspot_mixture().cell_currents(12, 12, 1.0)
        res = pdn.simulate(node_current_waveform(trace, profile), 1e-10)
        assert res.droop_v > 0

    def test_hotspot_trajectory_frames(self):
        frames = hotspot_trajectory(
            [(0.2, 0.2), (0.8, 0.8)], steps=10, nx=8, ny=6,
            total_current_a=50.0,
        )
        assert frames.shape == (10, 6, 8)
        np.testing.assert_allclose(frames.sum(axis=(1, 2)), 50.0)
        # The hotspot actually moves: first and last frames differ.
        assert np.max(np.abs(frames[0] - frames[-1])) > 0

    def test_trajectory_drives_the_mesh(self):
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        frames = hotspot_trajectory(
            [(0.1, 0.5), (0.9, 0.5)], steps=32, nx=12, ny=12,
            total_current_a=120.0,
        )
        res = pdn.simulate(frames, 1e-10)
        assert res.droop_v > 0
        assert res.v_min_map.shape == (12, 12)

    def test_trajectory_validation(self):
        with pytest.raises(ConfigError):
            hotspot_trajectory([(0.5, 0.5)], 10, 4, 4, 1.0)
        with pytest.raises(ConfigError):
            hotspot_trajectory([(0.2, 0.2), (1.5, 0.5)], 10, 4, 4, 1.0)


class TestValidation:
    def test_rejects_single_node_grid(self):
        with pytest.raises(ConfigError):
            GridTransientPDN(1.0, 1.0, 1.0, nx=1, ny=1)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4, engine="magic")

    def test_simulate_requires_sources(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        wave = np.zeros((4, 16))
        with pytest.raises(ConfigError):
            pdn.simulate(wave, 1e-9)

    def test_simulate_step_requires_sink_map(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        pdn.add_source("vr", 0.5, 0.5, 1.0, 0.1)
        with pytest.raises(ConfigError):
            pdn.simulate_step(0.0, 10.0)

    def test_rejects_bad_waveform_shape(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        pdn.add_source("vr", 0.5, 0.5, 1.0, 0.1)
        with pytest.raises(ConfigError):
            pdn.simulate(np.zeros((4, 7)), 1e-9)

    def test_from_grid_rejects_scaled_meshes(self):
        grid = GridPDN(0.02, 0.02, 0.004, nx=6, ny=6)
        grid.add_source("vr", 0.5, 0.5, 1.0, 0.02)
        grid.set_edge_resistance_scale(x_scale=np.full((6, 5), 1.1))
        with pytest.raises(ConfigError):
            GridTransientPDN.from_grid(grid)
