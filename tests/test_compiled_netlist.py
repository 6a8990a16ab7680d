"""Unit tests for the compiled netlist and cached-factorization API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SolverError
from repro.pdn.decap_placement import optimize_decap_placement
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.mna import FactorizedPDN, package_dc_solution, solve_dc
from repro.pdn.network import GROUND_INDEX, CompiledNetlist, Netlist
from repro.pdn.powermap import PowerMap


def feed_netlist() -> Netlist:
    net = Netlist()
    net.add_voltage_source("v", "in", 1.0)
    net.add_resistor("feed", "in", "pol", 1e-3)
    net.add_load("cpu", "pol", 100.0)
    return net


class TestCompile:
    def test_roundtrip_counts(self):
        compiled = feed_netlist().compile()
        assert compiled.n_nodes == 2
        assert compiled.n_vsources == 1
        assert compiled.size == 3
        assert compiled.element_count == 3

    def test_ground_encoded_as_sentinel(self):
        compiled = feed_netlist().compile()
        assert compiled.cs_to[0] == GROUND_INDEX
        assert compiled.vs_minus[0] == GROUND_INDEX

    def test_names_preserved(self):
        compiled = feed_netlist().compile()
        assert compiled.res_names == ("feed",)
        assert compiled.cs_names == ("cpu",)
        assert compiled.vs_names == ("v",)

    def test_node_index_maps_ground(self):
        compiled = feed_netlist().compile()
        assert compiled.node_index["0"] == GROUND_INDEX
        assert set(compiled.node_index) == {"in", "pol", "0"}

    def test_compile_is_snapshot(self):
        net = feed_netlist()
        compiled = net.compile()
        net.add_load("late", "pol", 5.0)
        assert len(compiled.cs_amp) == 1

    def test_total_load_current(self):
        compiled = feed_netlist().compile()
        assert compiled.total_load_current_a() == pytest.approx(100.0)

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a",),
                res_a=np.array([0]),
                res_b=np.array([GROUND_INDEX]),
                res_ohm=np.array([0.0]),
            )

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a",),
                res_a=np.array([5]),
                res_b=np.array([GROUND_INDEX]),
                res_ohm=np.array([1.0]),
            )

    def test_lazy_default_names(self):
        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
        )
        assert compiled.res_names == ("R[0]",)
        assert compiled.vs_names == ("V[0]",)

    def test_wrong_length_names_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a", "b"),
                res_a=np.array([0, 1]),
                res_b=np.array([GROUND_INDEX, GROUND_INDEX]),
                res_ohm=np.array([1.0, 2.0]),
                vs_plus=np.array([0]),
                vs_minus=np.array([GROUND_INDEX]),
                vs_volt=np.array([1.0]),
                res_names=("only-one",),
            )

    def test_wrong_length_callable_names_rejected_on_resolution(self):
        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
            res_names=lambda: ["a", "b"],
        )
        with pytest.raises(ConfigError):
            compiled.res_names

    def test_callable_names_resolved_once(self):
        calls = {"n": 0}

        def names():
            calls["n"] += 1
            return ["only"]

        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
            res_names=names,
        )
        assert compiled.res_names == ("only",)
        assert compiled.res_names == ("only",)
        assert calls["n"] == 1


class TestWithSources:
    def test_shares_structure(self):
        compiled = feed_netlist().compile()
        scaled = compiled.with_sources(cs_amp=np.array([50.0]))
        assert scaled.res_ohm is compiled.res_ohm
        assert scaled.cs_amp[0] == 50.0
        assert compiled.cs_amp[0] == 100.0

    def test_shape_checked(self):
        compiled = feed_netlist().compile()
        with pytest.raises(ConfigError):
            compiled.with_sources(cs_amp=np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            compiled.with_sources(vs_volt=np.array([1.0, 2.0]))


class TestIncidenceVerification:
    """KCL and power balance run on one cached node × element
    incidence per topology and still catch a corrupted solution."""

    @pytest.mark.parametrize("build", ["feed", "grid"])
    def test_incidence_matches_an_element_loop(self, build):
        compiled = (
            feed_netlist().compile() if build == "feed"
            else hotspot_grid().compile()
        )
        # Each element's current leaves one terminal and enters the
        # other: resistor a→b, load from→to, source minus→plus.
        leaves = np.concatenate(
            [compiled.res_a, compiled.cs_from, compiled.vs_minus]
        )
        enters = np.concatenate(
            [compiled.res_b, compiled.cs_to, compiled.vs_plus]
        )
        expected = np.zeros((compiled.n_nodes, compiled.element_count))
        for element, (a, b) in enumerate(zip(leaves, enters)):
            if a != GROUND_INDEX:
                expected[a, element] -= 1.0
            if b != GROUND_INDEX:
                expected[b, element] += 1.0
        assert np.array_equal(compiled.incidence.toarray(), expected)

    def test_corrupted_node_voltage_violates_kcl(self):
        grid = hotspot_grid()
        dc = grid.solve().dc
        compiled = grid.compile()
        voltages = dc.node_voltage_array.copy()
        voltages[7] += 1e-3
        x = np.concatenate([voltages, -dc.source_current_array])
        with pytest.raises(SolverError, match="KCL violated"):
            package_dc_solution(
                compiled, x, compiled.cs_amp, compiled.vs_volt,
                1.0 / compiled.res_ohm, True,
            )

    def test_corrupted_source_current_violates_power_balance(self):
        # A 48 V feed with a 10 mA load: a 0.5 µA error in the source
        # current is inside the 1 µA KCL bound but puts 24 µW of
        # unaccounted power against the 1 µW power-balance bound.
        net = Netlist()
        net.add_voltage_source("bus", "in", 48.0)
        net.add_resistor("feed", "in", "pol", 1.0)
        net.add_load("standby", "pol", 0.01)
        compiled = net.compile()
        dc = solve_dc(compiled)
        x = np.concatenate(
            [dc.node_voltage_array, -(dc.source_current_array + 0.5e-6)]
        )
        with pytest.raises(SolverError, match="power balance violated"):
            package_dc_solution(
                compiled, x, compiled.cs_amp, compiled.vs_volt,
                1.0 / compiled.res_ohm, True,
            )

    @pytest.mark.parametrize("engine", ["structured", "factorized"])
    def test_repeated_solves_reuse_one_incidence(self, engine):
        grid = hotspot_grid()
        grid.engine = engine
        first = grid.solve().dc.compiled.incidence
        grid.set_sinks(PowerMap.gaussian(), 50.0)  # same topology
        assert grid.solve().dc.compiled.incidence is first
        assert grid.solve_disabled((0,)).dc.compiled.incidence is first

    def test_with_sources_copies_share_the_incidence(self):
        compiled = feed_netlist().compile()
        copy = compiled.with_sources(cs_amp=np.array([50.0]))
        assert copy.incidence is compiled.incidence  # built by the copy
        later = compiled.with_sources(vs_volt=np.array([0.9]))
        assert solve_dc(later).compiled.incidence is compiled.incidence
        grid = hotspot_grid()
        assert grid.compile().incidence is grid.compile().incidence


class TestFactorizedPDN:
    def test_solve_matches_solve_dc(self):
        net = feed_netlist()
        solver = FactorizedPDN(net)
        direct = solve_dc(net)
        reused = solver.solve()
        assert reused.voltage("pol") == pytest.approx(direct.voltage("pol"))

    def test_rhs_override_scales_linearly(self):
        solver = FactorizedPDN(feed_netlist())
        half = solver.solve(cs_amp=np.array([50.0]))
        full = solver.solve()
        assert 1.0 - half.voltage("pol") == pytest.approx(
            (1.0 - full.voltage("pol")) / 2.0
        )

    def test_voltage_override(self):
        solver = FactorizedPDN(feed_netlist())
        boosted = solver.solve(vs_volt=np.array([2.0]))
        assert boosted.voltage("pol") == pytest.approx(1.9)

    def test_solve_many_columns_match_individual_solves(self):
        solver = FactorizedPDN(feed_netlist())
        base = solver.rhs()
        stacked = np.column_stack([base, 2.0 * base, 0.5 * base])
        batch = solver.solve_many(stacked)
        for column, scale in zip(batch.T, (1.0, 2.0, 0.5)):
            single = solver.solve_rhs(base * scale)
            assert np.allclose(column, single, rtol=1e-12, atol=1e-12)

    def test_solve_many_rejects_wrong_shape(self):
        solver = FactorizedPDN(feed_netlist())
        with pytest.raises(SolverError):
            solver.solve_many(np.zeros((2, 4)))

    def test_singular_topology_raises_at_factorization(self):
        net = Netlist()
        net.add_voltage_source("v", "a", 1.0)
        net.add_resistor("r", "a", net.GROUND, 1.0)
        net.add_resistor("island", "f1", "f2", 1.0)
        net.add_current_source("i", "f1", "f2", 1.0)
        with pytest.raises(SolverError):
            FactorizedPDN(net)


class TestDCSolutionViews:
    def test_dict_views_match_arrays(self):
        solution = solve_dc(feed_netlist())
        compiled = solution.compiled
        for i, name in enumerate(compiled.res_names):
            assert solution.resistor_currents[name] == (
                solution.resistor_current_array[i]
            )
            assert solution.resistor_losses[name] == (
                solution.resistor_loss_array[i]
            )
        for i, node in enumerate(compiled.nodes):
            assert solution.node_voltages[node] == (
                solution.node_voltage_array[i]
            )
        for i, name in enumerate(compiled.vs_names):
            assert solution.source_currents[name] == (
                solution.source_current_array[i]
            )

    def test_loss_by_prefix_matches_dict_sum(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("pcb.r1", "in", "m", 1e-3)
        net.add_resistor("pkg.r1", "m", net.GROUND, 1e-3)
        solution = solve_dc(net)
        assert solution.loss_by_prefix("pcb.") == pytest.approx(
            solution.resistor_losses["pcb.r1"]
        )


def hotspot_grid(n: int = 12) -> GridPDN:
    grid = GridPDN(0.02, 0.02, 1e-3, nx=n, ny=n)
    grid.set_sinks(PowerMap.hotspot_mixture(), 100.0)
    grid.add_source("a", 0.0, 0.5, 1.0, 1e-3)
    grid.add_source("b", 1.0, 0.5, 1.0, 1e-3)
    return grid


class TestTopologyKeyCache:
    """One content key tags every cached structure of all three grids:
    right-hand-side edits (sinks, source voltages) keep the structure,
    topology edits (source move, ring, decap) replace it."""

    FREQS = np.logspace(5, 8, 4)
    DT = 1e-9
    SITES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def design(self, cls):
        grid = cls(0.02, 0.02, 1e-3, nx=8, ny=8)
        grid.set_sinks(PowerMap.hotspot_mixture(), 50.0)
        self.reattach(grid, 1.0, self.SITES)
        if cls is not GridPDN:
            grid.set_decap_density(1.0, 1e-7, 1e-3, 1e-12)
        return grid

    def structure(self, grid):
        """Run the class's analysis; return the structure it used."""
        if isinstance(grid, GridPDN):
            grid.solve()
            return grid._structure
        if isinstance(grid, GridACPDN):
            grid.impedance_map(self.FREQS)
            return grid._ensure_structured()
        grid.simulate_step(10.0, 40.0, duration_s=20 * self.DT, dt_s=self.DT)
        return grid._structure(self.DT)

    def reattach(self, grid, volts, sites):
        grid.clear_sources()
        for k, (x, y) in enumerate(sites):
            grid.add_source(f"vr{k}", x, y, volts, 1e-3)

    EDITS = {
        "sinks": (lambda self, g: g.set_sinks(PowerMap.uniform(), 30.0), True),
        "voltages": (lambda self, g: self.reattach(g, 0.95, self.SITES), True),
        "source move": (
            lambda self, g: self.reattach(g, 1.0, ((0.5, 0.5),) + self.SITES[1:]),
            False,
        ),
        "ring": (lambda self, g: g.connect_sources_with_ring_bus(1e-3), False),
        "decap": (lambda self, g: g.scale_decap(2.0), False),
    }

    def answer(self, grid):
        if isinstance(grid, GridPDN):
            return grid.solve().voltage_map
        if isinstance(grid, GridACPDN):
            return grid.impedance_map(self.FREQS).z_ohm
        return grid.simulate_step(
            10.0, 40.0, duration_s=20 * self.DT, dt_s=self.DT
        ).v_min_map

    @pytest.mark.parametrize(
        "cls, edit",
        [
            (cls, edit)
            for edit in EDITS
            for cls in (GridPDN, GridACPDN, GridTransientPDN)
            # Decaps are open at DC: the DC grid carries none.
            if not (cls is GridPDN and edit == "decap")
        ],
    )
    def test_edit_keeps_or_replaces_the_cached_structure(self, cls, edit):
        apply, keeps = self.EDITS[edit]
        grid = self.design(cls)
        before = self.structure(grid)
        apply(self, grid)
        after = self.structure(grid)
        assert (after is before) == keeps
        # Whatever was reused, the answer equals a cache-free copy's.
        np.testing.assert_allclose(
            self.answer(grid), self.answer(grid.copy()), rtol=1e-12
        )

    def test_placement_leaves_the_cached_structure_in_place(self):
        pdn = self.design(GridACPDN)
        zmap = pdn.impedance_map(self.FREQS)
        structure = pdn._ensure_structured()
        snapshot = pdn.decap_snapshot()
        optimize_decap_placement(
            pdn,
            0.7 * zmap.peak_impedance_ohm,
            frequencies_hz=self.FREQS,
            max_iterations=2,
            gradient_steps=1,
        )
        assert pdn._ensure_structured() is structure
        after = pdn.decap_snapshot()
        assert after[1] == snapshot[1]
        assert after[0][0] == snapshot[0][0]
        np.testing.assert_array_equal(after[0][1], snapshot[0][1])
        assert after[0][2:] == snapshot[0][2:]

    def test_restore_decap_returns_to_the_snapshot_key(self):
        pdn = self.design(GridACPDN)
        pdn.impedance_map(self.FREQS)
        structure = pdn._ensure_structured()
        snapshot = pdn.decap_snapshot()
        pdn.scale_decap(4.0)
        assert pdn.decap_snapshot()[1] != snapshot[1]
        pdn.restore_decap(snapshot)
        assert pdn.decap_snapshot()[1] == snapshot[1]
        assert pdn._ensure_structured() is structure


class TestGridFactorizationCache:
    def test_sink_change_reuses_factorization(self):
        grid = hotspot_grid()
        grid.solve()
        structure = grid._structure
        grid.set_sinks(PowerMap.uniform(), 50.0)
        grid.solve()
        assert grid._structure is structure

    def test_voltage_change_reuses_factorization(self):
        grid = hotspot_grid()
        grid.solve()
        structure = grid._structure
        grid.clear_sources()
        grid.add_source("a", 0.0, 0.5, 0.95, 1e-3)
        grid.add_source("b", 1.0, 0.5, 0.95, 1e-3)
        grid.solve()
        assert grid._structure is structure

    def test_source_move_refactorizes(self):
        grid = hotspot_grid()
        grid.solve()
        structure = grid._structure
        grid.clear_sources()
        grid.add_source("a", 0.5, 0.5, 1.0, 1e-3)
        grid.add_source("b", 1.0, 0.5, 1.0, 1e-3)
        grid.solve()
        assert grid._structure is not structure

    def test_cached_solution_matches_fresh_grid(self):
        """A sink change solved through the cache equals a cold solve."""
        grid = hotspot_grid()
        grid.solve()  # prime with the hotspot map
        grid.set_sinks(PowerMap.uniform(), 73.0)
        warm = grid.solve()

        cold = GridPDN(0.02, 0.02, 1e-3, nx=12, ny=12)
        cold.set_sinks(PowerMap.uniform(), 73.0)
        cold.add_source("a", 0.0, 0.5, 1.0, 1e-3)
        cold.add_source("b", 1.0, 0.5, 1.0, 1e-3)
        fresh = cold.solve()
        assert warm.lateral_loss_w == pytest.approx(
            fresh.lateral_loss_w, rel=1e-12
        )
        assert np.allclose(warm.voltage_map, fresh.voltage_map)

    def test_fast_path_matches_netlist_path(self):
        """The compiled mesh agrees with build_netlist + solve_dc."""
        grid = hotspot_grid()
        fast = grid.solve()
        slow = solve_dc(grid.build_netlist())
        assert fast.lateral_loss_w == pytest.approx(
            (
                slow.loss_by_prefix("grid.") + slow.loss_by_prefix("ring[")
            ) * grid.rail_pair_factor,
            rel=1e-9,
        )
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                assert fast.voltage_map[iy, ix] == pytest.approx(
                    slow.node_voltages[("g", ix, iy)], rel=1e-9, abs=1e-12
                )

    def test_edge_current_stats_match_name_filtered_dict(self):
        solution = hotspot_grid().solve()
        stats = solution.edge_current_stats()
        by_name = np.abs(
            np.array(
                [
                    current
                    for name, current in solution.dc.resistor_currents.items()
                    if name.startswith("grid.")
                ]
            )
        )
        assert stats["max_a"] == pytest.approx(by_name.max(), rel=1e-12)
        assert stats["mean_a"] == pytest.approx(by_name.mean(), rel=1e-12)

    def test_grid_compile_exposes_sinks_and_voltages(self):
        grid = hotspot_grid()
        compiled = grid.compile()
        assert compiled.total_load_current_a() == pytest.approx(100.0)
        assert np.all(compiled.vs_volt == 1.0)

    def test_duplicate_source_name_rejected_at_attachment(self):
        grid = GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            grid.add_source("a", 1.0, 1.0, 1.0, 1e-3)

    def test_compile_does_not_factorize(self):
        """grid.compile() hands out the array form without paying for
        (or later duplicating) an LU decomposition."""
        grid = hotspot_grid()
        grid.compile()
        assert grid._structure is not None
        assert grid._structure._solver is None
        grid.solve()
        assert grid._structure._solver is not None
