"""Public API contract tests.

Everything a downstream user imports from the top-level package must
exist, be documented, and compose into the headline workflow without
touching internals.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.ispkg:
                continue
            package = importlib.import_module(info.name)
            for name in getattr(package, "__all__", ()):
                assert hasattr(package, name), f"{info.name}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        assert issubclass(repro.ConfigError, repro.ReproError)
        assert issubclass(repro.InfeasibleError, repro.ReproError)
        assert issubclass(repro.SolverError, repro.ReproError)
        assert issubclass(repro.CalibrationError, repro.ReproError)
        assert issubclass(repro.DatasetError, repro.ReproError)

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_catalog_is_immutable_tuple(self):
        assert isinstance(repro.CATALOG, tuple)
        assert isinstance(repro.ALL_ARCHITECTURES, tuple)
        assert isinstance(repro.TABLE_I, tuple)


class TestHeadlineWorkflow:
    """The README quickstart, as a test."""

    def test_quickstart_flow(self):
        spec = repro.SystemSpec()
        analyzer = repro.LossAnalyzer(spec)
        a0 = analyzer.analyze(repro.reference_a0(), repro.DSCH)
        a1 = analyzer.analyze(repro.single_stage_a1(), repro.DSCH)
        assert a0.paper_loss_fraction > a1.paper_loss_fraction

        claims = repro.fig7_claims(repro.characterize_all(spec=spec))
        assert claims.excluded_topologies == ("3LHD",)

    def test_run_all_experiments(self):
        from repro.reporting.experiments import run_all

        assert all(result.holds for result in run_all())

    def test_spec_factories_compose(self):
        spec = (
            repro.SystemSpec()
            .with_power(800.0)
            .with_density(1.6)
            .with_input_voltage(54.0)
        )
        assert spec.pol_power_w == 800.0
        assert spec.die_area_mm2 == pytest.approx(500.0)
        assert spec.conversion_ratio == pytest.approx(54.0)

    def test_architecture_lookup_matches_factories(self):
        assert repro.architecture("A1").name == repro.single_stage_a1().name
        assert (
            repro.architecture("A3@6V").intermediate_voltage_v
            == repro.dual_stage_a3(6.0).intermediate_voltage_v
        )

    def test_converter_lookup(self):
        assert repro.converter("DSCH") is repro.DSCH
        assert repro.converter("DPMIH") is repro.DPMIH
        assert repro.converter("3LHD") is repro.THREE_LEVEL_HYBRID_DICKSON

    def test_pdn_primitives_compose(self):
        net = repro.Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "out", 1e-3)
        net.add_load("l", "out", 10.0)
        result = repro.solve_dc(net)
        assert result.voltage("out") == pytest.approx(0.99)

    def test_grid_and_powermap_compose(self):
        grid = repro.GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8)
        grid.set_sinks(repro.PowerMap.uniform(), 10.0)
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.source_currents_a.sum() == pytest.approx(10.0)

    def test_sharing_and_utilization_compose(self):
        sharing = repro.analyze_current_sharing(
            repro.single_stage_a2(), repro.DSCH
        )
        assert sharing.mean_current_a == pytest.approx(1000 / 48, rel=0.01)
        report = repro.vertical_utilization(repro.single_stage_a2())
        assert report.all_within_caps
        density = repro.a0_die_area_requirement()
        assert density.required_die_area_mm2 == pytest.approx(1200.0, rel=0.01)


class TestFrozenSpecs:
    def test_system_spec_immutable(self):
        spec = repro.SystemSpec()
        with pytest.raises(AttributeError):
            spec.pol_power_w = 2000.0

    def test_converter_spec_immutable(self):
        with pytest.raises(AttributeError):
            repro.DSCH.max_load_a = 50.0

    def test_architecture_spec_immutable(self):
        arch = repro.single_stage_a1()
        with pytest.raises(AttributeError):
            arch.name = "A9"
