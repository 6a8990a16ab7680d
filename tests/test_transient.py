"""PDN transient (droop) analysis tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pdn.transient import (
    PDNStage,
    PDNTransient,
    default_board_regulated_pdn,
    default_interposer_regulated_pdn,
    droop_and_settle,
)


def simple_pdn(esr: float = 0.0) -> PDNTransient:
    return PDNTransient(
        1.0,
        [
            PDNStage("board", 1e-3, 10e-9, 1e-3, esr),
            PDNStage("die", 0.1e-3, 50e-12, 5e-6, esr),
        ],
    )


class TestDCState:
    def test_no_load_settles_at_supply(self):
        pdn = simple_pdn()
        state = pdn.dc_state(0.0)
        # Capacitor voltages are the last n states.
        assert state[2] == pytest.approx(1.0, abs=1e-9)
        assert state[3] == pytest.approx(1.0, abs=1e-9)

    def test_loaded_dc_drop_matches_ir(self):
        pdn = simple_pdn()
        state = pdn.dc_state(10.0)
        # Total series resistance 1.1 mOhm at 10 A -> 11 mV drop.
        assert state[3] == pytest.approx(1.0 - 10 * 1.1e-3, rel=1e-6)

    def test_dc_inductor_currents_carry_load(self):
        pdn = simple_pdn()
        state = pdn.dc_state(25.0)
        assert state[0] == pytest.approx(25.0, rel=1e-9)
        assert state[1] == pytest.approx(25.0, rel=1e-9)


class TestStepResponse:
    def test_droop_positive_on_load_step(self):
        result = simple_pdn().simulate_step(0.0, 20.0, duration_s=5e-6)
        assert result.droop_v > 0

    def test_no_step_no_droop(self):
        result = simple_pdn().simulate_step(10.0, 10.0, duration_s=2e-6)
        assert result.droop_v == pytest.approx(0.0, abs=1e-6)

    def test_bigger_step_bigger_droop(self):
        pdn = simple_pdn()
        small = pdn.simulate_step(0.0, 10.0, duration_s=5e-6)
        large = pdn.simulate_step(0.0, 30.0, duration_s=5e-6)
        assert large.droop_v > small.droop_v

    def test_final_value_matches_dc(self):
        # The board stage rings with tau = 2L/R = 20 us; simulate long
        # enough for the oscillation to die out.
        pdn = simple_pdn()
        result = pdn.simulate_step(
            0.0, 20.0, duration_s=300e-6, dt_s=20e-9
        )
        v_final_expected = 1.0 - 20 * 1.1e-3
        assert result.pol_voltage_v[-1] == pytest.approx(
            v_final_expected, rel=1e-3
        )

    def test_droop_exceeds_dc_drop(self):
        # The transient minimum undershoots the final DC value.
        pdn = simple_pdn()
        result = pdn.simulate_step(0.0, 20.0, duration_s=40e-6)
        dc_drop = 20 * 1.1e-3
        assert result.droop_v >= dc_drop * 0.99

    def test_settle_time_reported(self):
        result = simple_pdn().simulate_step(0.0, 20.0, duration_s=40e-6)
        assert 0.0 <= result.settle_time_s <= 40e-6

    def test_trajectory_shapes(self):
        result = simple_pdn().simulate_step(0.0, 5.0, duration_s=2e-6, dt_s=2e-9)
        assert len(result.time_s) == len(result.pol_voltage_v)
        assert result.stage_voltages_v.shape[0] == 2

    def test_decap_softens_droop(self):
        small_cap = PDNTransient(
            1.0,
            [
                PDNStage("board", 1e-3, 10e-9, 1e-3),
                PDNStage("die", 0.1e-3, 50e-12, 1e-6),
            ],
        )
        big_cap = PDNTransient(
            1.0,
            [
                PDNStage("board", 1e-3, 10e-9, 1e-3),
                PDNStage("die", 0.1e-3, 50e-12, 20e-6),
            ],
        )
        droop_small = small_cap.simulate_step(0.0, 20.0, 10e-6).droop_v
        droop_big = big_cap.simulate_step(0.0, 20.0, 10e-6).droop_v
        assert droop_big < droop_small


class TestArchitectureComparison:
    def test_interposer_regulation_beats_board_regulation(self):
        """Moving regulation closer to the POL (A1/A2-style) cuts the
        load-step droop — the dynamic counterpart of the paper's DC
        argument."""
        board = default_board_regulated_pdn()
        interposer = default_interposer_regulated_pdn()
        step = (5.0, 50.0)
        droop_board = board.simulate_step(*step, duration_s=30e-6).droop_v
        droop_interposer = interposer.simulate_step(
            *step, duration_s=30e-6
        ).droop_v
        assert droop_interposer < droop_board


class TestValidation:
    def test_rejects_empty_stages(self):
        with pytest.raises(ConfigError):
            PDNTransient(1.0, [])

    def test_rejects_zero_supply(self):
        with pytest.raises(ConfigError):
            PDNTransient(0.0, [PDNStage("x", 1e-3, 1e-9, 1e-6)])

    def test_stage_rejects_zero_r(self):
        with pytest.raises(ConfigError):
            PDNStage("x", 0.0, 1e-9, 1e-6)

    def test_stage_rejects_negative_esr(self):
        with pytest.raises(ConfigError):
            PDNStage("x", 1e-3, 1e-9, 1e-6, -1e-3)

    def test_rejects_negative_load(self):
        with pytest.raises(ConfigError):
            simple_pdn().simulate_step(-1.0, 5.0)

    def test_rejects_short_duration(self):
        with pytest.raises(ConfigError):
            simple_pdn().simulate_step(0.0, 5.0, duration_s=1e-9, dt_s=1e-9)


class TestDroopAndSettleHelper:
    """The shared module-level helper matches what simulate_step reports."""

    def reference(self, time, trace, v_pre, v_final, band):
        droop = max(0.0, v_pre - float(np.min(trace)))
        settle = float(time[-1])
        inside = np.abs(trace - v_final) <= band
        for k in range(len(inside)):
            if inside[k:].all():
                settle = float(time[k])
                break
        return droop, settle

    def test_matches_simulate_step(self):
        pdn = simple_pdn(esr=0.3e-3)
        result = pdn.simulate_step(5.0, 40.0, duration_s=30e-6)
        band = 0.02 * abs(pdn.supply_voltage_v)
        v_final_state = pdn.dc_state(40.0).reshape(-1, 1)
        v_final = float(pdn._output_voltage(v_final_state, 40.0)[0])
        droop, settle = droop_and_settle(
            result.time_s, result.pol_voltage_v, result.pol_voltage_v[0],
            v_final, band,
        )
        assert droop == result.droop_v
        assert settle == result.settle_time_s

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(7)
        time = np.linspace(0.0, 1e-6, 200)
        trace = 1.0 - 0.05 * np.exp(-time / 2e-7) + 0.002 * rng.normal(
            size=time.size
        )
        droop, settle = droop_and_settle(time, trace, 1.0, 0.999, 0.004)
        assert (droop, settle) == self.reference(time, trace, 1.0, 0.999, 0.004)

    def test_never_settling_reports_trace_end(self):
        time = np.linspace(0.0, 1e-6, 50)
        trace = np.full(50, 0.9)
        droop, settle = droop_and_settle(time, trace, 1.0, 1.0, 1e-6)
        assert droop == pytest.approx(0.1)
        assert settle == time[-1]

    def test_droop_clips_overshoot_to_zero(self):
        time = np.linspace(0.0, 1e-6, 50)
        trace = np.full(50, 1.2)
        droop, _ = droop_and_settle(time, trace, 1.0, 1.2, 0.01)
        assert droop == 0.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigError):
            droop_and_settle(np.arange(4.0), np.arange(5.0), 1.0, 1.0, 0.01)

    def test_rejects_nonpositive_band(self):
        for band in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ConfigError, match="settle_band_v"):
                droop_and_settle(
                    np.arange(4.0), np.arange(4.0), 1.0, 1.0, band
                )
        # NaN compares false against every bound, so it used to pass
        # through simulate_step and yield a meaningless settle time.
        with pytest.raises(ConfigError, match="settle_band_v"):
            simple_pdn().simulate_step(5.0, 40.0, settle_band_v=np.nan)


class TestSettleTimeScan:
    def settle_by_reference_scan(self, pdn, i0, i1, **kwargs):
        """The retained O(n^2) definition: first sample whose entire
        suffix stays inside the band."""
        result = pdn.simulate_step(i0, i1, **kwargs)
        band = kwargs.get("settle_band_v")
        if band is None:
            band = 0.02 * abs(pdn.supply_voltage_v)
        v_final_state = pdn.dc_state(i1).reshape(-1, 1)
        v_final = float(pdn._output_voltage(v_final_state, i1)[0])
        inside = np.abs(result.pol_voltage_v - v_final) <= band
        settle = float(result.time_s[-1])
        for k in range(len(inside)):
            if inside[k:].all():
                settle = float(result.time_s[k])
                break
        return result.settle_time_s, settle

    def test_vectorized_scan_equals_reference(self):
        pdn = simple_pdn(esr=0.3e-3)
        fast, reference = self.settle_by_reference_scan(pdn, 10.0, 60.0)
        assert fast == reference

    def test_equivalence_with_tight_band(self):
        pdn = default_board_regulated_pdn()
        fast, reference = self.settle_by_reference_scan(
            pdn, 0.0, 40.0, settle_band_v=1e-4
        )
        assert fast == reference

    def test_equivalence_when_never_settling(self):
        # A band of ~zero width is never continuously satisfied.
        pdn = simple_pdn(esr=0.3e-3)
        fast, reference = self.settle_by_reference_scan(
            pdn, 5.0, 80.0, settle_band_v=1e-15
        )
        assert fast == reference
        result = pdn.simulate_step(5.0, 80.0, settle_band_v=1e-15)
        assert result.settle_time_s == result.time_s[-1]
