"""The shared mesh design: input validation, from_grid, copies."""

from __future__ import annotations

import math
import pickle
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pdn.fast_poisson import FastPoissonOperator
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.powermap import PowerMap

CLASSES = (GridPDN, GridACPDN, GridTransientPDN)
REACTIVE = (GridACPDN, GridTransientPDN)
N = 4


def design(cls, **kwargs):
    """A valid 4x4 design with two sources and a sink map."""
    grid = cls(0.01, 0.01, 1e-2, nx=N, ny=N, **kwargs)
    grid.add_source("a", 0.0, 0.0, 1.0, 1e-3)
    grid.add_source("b", 1.0, 1.0, 1.0, 1e-3)
    grid.set_sinks(PowerMap.uniform(), 10.0)
    return grid


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-12, min_value=-1e6)
BAD = NON_FINITE | NEGATIVE


@st.composite
def bad_maps(draw, shape=(N, N), zero_is_bad=False):
    """A map with one corrupted cell, or a wrong shape."""
    kind = draw(st.sampled_from(["cell", "shape"]))
    if kind == "shape":
        rows, cols = shape
        wrong = [(rows, cols + 1), (rows + 1, cols), (rows * cols,)]
        return np.ones(draw(st.sampled_from(wrong)))
    arr = np.ones(shape)
    cell = tuple(draw(st.integers(0, size - 1)) for size in shape)
    arr[cell] = draw(BAD | st.just(0.0)) if zero_is_bad else draw(BAD)
    return arr


@dataclass(frozen=True)
class Case:
    name: str
    apply: Callable
    values: st.SearchStrategy = BAD
    classes: tuple = CLASSES


def with_decap(cls):
    grid = design(cls)
    grid.set_decap_density(1.0, 1e-7, 1e-3, 1e-12)
    return grid


CASES = [
    Case("width_m", lambda cls, v: cls(v, 0.01, 1e-2, nx=N, ny=N)),
    Case("height_m", lambda cls, v: cls(0.01, v, 1e-2, nx=N, ny=N)),
    Case("sheet_ohm_sq", lambda cls, v: cls(0.01, 0.01, v, nx=N, ny=N)),
    Case(
        "nx",
        lambda cls, v: cls(0.01, 0.01, 1e-2, nx=v, ny=N),
        st.sampled_from([0, -3, 1.5, "4"]),
    ),
    Case(
        "edge_inductance_x_h",
        lambda cls, v: cls(0.01, 0.01, 1e-2, nx=N, ny=N, edge_inductance_x_h=v),
        classes=REACTIVE,
    ),
    Case(
        "edge_inductance_y_h",
        lambda cls, v: cls(0.01, 0.01, 1e-2, nx=N, ny=N, edge_inductance_y_h=v),
        classes=REACTIVE,
    ),
    Case(
        "rail_pair_factor",
        lambda cls, v: cls(0.01, 0.01, 1e-2, rail_pair_factor=v),
        NON_FINITE | st.floats(min_value=-10, max_value=0.999),
        classes=(GridPDN,),
    ),
    Case(
        "x_frac",
        lambda cls, v: design(cls).add_source("c", v, 0.5, 1.0, 1e-3),
        BAD | st.floats(min_value=1.001, max_value=10),
    ),
    Case(
        "voltage_v",
        lambda cls, v: design(cls).add_source("c", 0.5, 0.5, v, 1e-3),
        NON_FINITE,
    ),
    Case(
        "output_resistance_ohm",
        lambda cls, v: design(cls).add_source("c", 0.5, 0.5, 1.0, v),
        BAD | st.just(0.0),
    ),
    Case(
        "inductance_h",
        lambda cls, v: design(cls).add_source("c", 0.5, 0.5, 1.0, 1e-3, v),
        classes=REACTIVE,
    ),
    Case(
        "source_inductance_h",
        lambda cls, v: cls.from_grid(design(GridPDN), source_inductance_h=v),
        classes=REACTIVE,
    ),
    Case(
        "segment_resistance_ohm",
        lambda cls, v: _ring(design(cls), v),
        BAD | st.just(0.0),
    ),
    Case(
        "total_current_a",
        lambda cls, v: design(cls).set_sinks(PowerMap.uniform(), v),
    ),
    Case(
        "cell_currents",
        lambda cls, v: design(cls).set_sink_array(v),
        bad_maps(),
    ),
    Case(
        "cap_per_unit_f",
        lambda cls, v: design(cls).set_decap_density(1.0, v),
        BAD | st.just(0.0),
    ),
    Case(
        "esr_per_unit_ohm",
        lambda cls, v: design(cls).set_decap_density(1.0, 1e-7, v),
    ),
    Case(
        "esl_per_unit_h",
        lambda cls, v: design(cls).set_decap_density(1.0, 1e-7, 0.0, v),
    ),
    Case(
        "density",
        lambda cls, v: design(cls).set_decap_density(v, 1e-7),
        bad_maps(),
    ),
    Case("cap_f", lambda cls, v: design(cls).set_decap_map(v), BAD | st.just(0.0)),
    Case("esr_ohm", lambda cls, v: design(cls).set_decap_map(1e-7, v)),
    Case("esl_h", lambda cls, v: design(cls).set_decap_map(1e-7, 0.0, v)),
    Case(
        "cap_f",
        lambda cls, v: design(cls).set_decap_map(v, np.zeros((N, N))),
        bad_maps(),
    ),
    Case(
        "esl_h",
        lambda cls, v: design(cls).set_decap_map(np.ones((N, N)), 0.0, v),
        bad_maps(),
    ),
    Case(
        "factor",
        lambda cls, v: with_decap(cls).scale_decap(v),
        BAD | st.just(0.0),
    ),
    Case(
        "x_scale",
        lambda cls, v: design(cls).set_edge_resistance_scale(x_scale=v),
        bad_maps((N, N - 1), zero_is_bad=True),
        classes=(GridPDN,),
    ),
    Case(
        "y_scale",
        lambda cls, v: design(cls).set_edge_resistance_scale(y_scale=v),
        bad_maps((N - 1, N), zero_is_bad=True),
        classes=(GridPDN,),
    ),
    Case(
        "dt_s",
        lambda cls, v: with_decap(cls).simulate_step(1.0, 2.0, dt_s=v),
        BAD | st.just(0.0),
        classes=(GridTransientPDN,),
    ),
    Case(
        "duration_s",
        lambda cls, v: with_decap(cls).simulate_step(1.0, 2.0, duration_s=v),
        BAD | st.just(0.0),
        classes=(GridTransientPDN,),
    ),
    # The structured engines' operator, which every class builds on.
    Case("gx", lambda cls, v: FastPoissonOperator(N, N, v, 1.0), NON_FINITE),
    Case("gy", lambda cls, v: FastPoissonOperator(N, N, 1.0, v), NON_FINITE),
    Case(
        "shift",
        lambda cls, v: FastPoissonOperator(N, N, 1.0, 1.0, shift=v),
        NON_FINITE,
    ),
]


def _ring(grid, ohm):
    grid.add_source("c", 1.0, 0.0, 1.0, 1e-3)
    grid.connect_sources_with_ring_bus(ohm)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bad_input_raises_config_error_naming_the_parameter(data):
    """Every grid class rejects a non-finite, negative or mis-shaped
    parameter where it enters — with a ConfigError naming it, never a
    singular-network SolverError or a raw ValueError later on."""
    case = data.draw(st.sampled_from(CASES), label="case")
    cls = data.draw(st.sampled_from(case.classes), label="class")
    value = data.draw(case.values, label=case.name)
    with pytest.raises(ConfigError, match=case.name):
        case.apply(cls, value)


@pytest.mark.parametrize("cls", CLASSES)
def test_valid_design_still_builds(cls):
    """The fixtures the validation cases corrupt are themselves valid."""
    grid = with_decap(cls)
    _ring(grid, 1e-3)
    grid.set_decap_map(np.full((N, N), 1e-7), 1e-3, 0.0)
    assert grid.source_names == ["a", "b", "c"]


def _probe(probe_nodes):
    return with_decap(GridTransientPDN).simulate_step(
        1.0, 2.0, duration_s=1e-7, dt_s=1e-9, probe_nodes=probe_nodes
    )


def _disable(scenario):
    return design(GridPDN).solve_disabled(scenario)


def _columns(nodes):
    return design(GridACPDN).impedance_columns(1e6, nodes)


INDEX_CASES = {
    # Off-mesh (ix, iy) pairs used to wrap onto another node's row.
    "probe-ix-past-edge": ("probe_nodes", lambda: _probe([(N + 1, 0)])),
    "probe-ix-negative": ("probe_nodes", lambda: _probe([(-1, 1)])),
    "probe-iy-past-edge": ("probe_nodes", lambda: _probe([(1, N)])),
    "probe-fractional": ("probe_nodes", lambda: _probe([(2.7, 0)])),
    "probe-nan-row": ("probe_nodes", lambda: _probe([math.nan])),
    "probe-row-past-end": ("probe_nodes", lambda: _probe([N * N])),
    "probe-short-pair": ("probe_nodes", lambda: _probe([(1,)])),
    # Fractional source indices used to truncate onto a real source.
    "disable-fractional": ("disabled_sources", lambda: _disable([1.5])),
    "disable-string": ("disabled_sources", lambda: _disable(["x"])),
    "disable-nan": ("disabled_sources", lambda: _disable([math.nan])),
    "disable-out-of-range": ("disabled_sources", lambda: _disable([2])),
    "disable-bare-index": (
        "disabled_sources",
        lambda: design(GridPDN).solve_disabled_many([1]),
    ),
    "columns-fractional": ("nodes", lambda: _columns([1.5])),
    "columns-nan": ("nodes", lambda: _columns([math.nan])),
    "columns-past-end": ("nodes", lambda: _columns([N * N])),
}


@pytest.mark.parametrize(
    "name, call", INDEX_CASES.values(), ids=INDEX_CASES.keys()
)
def test_bad_index_raises_config_error_naming_the_parameter(name, call):
    """Index inputs are checked whole: a fractional, non-numeric or
    off-mesh index raises a ConfigError naming the parameter instead
    of being truncated, wrapped, or escaping as a raw error."""
    with pytest.raises(ConfigError, match=name):
        call()


def test_integral_float_indices_still_accepted():
    """The index check rejects fractions, not float dtypes."""
    assert _probe([(2.0, 1.0), 3.0]).probe_rows == (1 * N + 2, 3)
    assert _disable([1.0]).source_currents_a[1] == 0.0


def test_nan_density_cell_is_rejected_not_dropped():
    pdn = GridACPDN(0.02, 0.02, 1e-3, nx=8, ny=8)
    density = np.ones((8, 8))
    density[3, 5] = np.nan
    with pytest.raises(ConfigError, match="density"):
        pdn.set_decap_density(density, 1e-7)


def test_simulate_step_rejects_nan_time_axis():
    """NaN dt/duration used to escape as a raw ValueError from the
    step count's int conversion."""
    tp = with_decap(GridTransientPDN)
    with pytest.raises(ConfigError, match="dt_s"):
        tp.simulate_step(1.0, 2.0, dt_s=math.nan)
    with pytest.raises(ConfigError, match="duration_s"):
        tp.simulate_step(1.0, 2.0, duration_s=math.nan)
    with pytest.raises(ConfigError, match="dt_s"):
        tp.simulate(np.ones((12, N * N)), math.nan)


def test_simulate_step_refuses_oversized_waveform():
    """A 1 s step at 10 ns on an 8×8 mesh asked for a 47.7 GiB load
    waveform; it is now refused up front, before any allocation."""
    tp = GridTransientPDN(0.01, 0.01, 1e-2, nx=8, ny=8)
    tp.add_source("a", 0.0, 0.0, 1.0, 1e-3)
    tp.set_sinks(PowerMap.uniform(), 10.0)
    tp.set_decap_density(1.0, 1e-7, 1e-3, 1e-12)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="duration_s / dt_s.*47.7 GiB"):
            tp.simulate_step(1.0, 2.0, duration_s=1.0, dt_s=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ac_from_grid_rejects_per_edge_variation():
    """Mirroring a scaled DC grid used to drop the scales silently, so
    the AC low-frequency limit no longer matched the DC solution; it
    now refuses, as the transient mirror does."""
    grid = GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8)
    grid.add_source("vr", 0.5, 0.5, 1.0, 1e-3)
    grid.set_sinks(PowerMap.uniform(), 10.0)
    grid.set_edge_resistance_scale(x_scale=np.full((8, 7), 3.0))
    with pytest.raises(ConfigError, match="per-edge"):
        GridACPDN.from_grid(grid)


@pytest.mark.parametrize("cls", REACTIVE)
def test_from_grid_mirrors_the_design(cls):
    grid = design(GridPDN)
    grid.add_source("c", 1.0, 0.0, 1.0, 2e-3)
    grid.connect_sources_with_ring_bus(5e-3)
    mirror = cls.from_grid(grid, source_inductance_h=1e-11)
    assert mirror.source_names == grid.source_names
    np.testing.assert_array_equal(mirror._sink_map, grid._sink_map)
    assert mirror._ring_bus_ohm == grid._ring_bus_ohm
    assert all(s.inductance_h == 1e-11 for s in mirror._sources)
    assert [s[:5] for s in mirror._sources] == [s[:5] for s in grid._sources]


@pytest.mark.parametrize("cls", CLASSES)
def test_copy_is_independent_cache_free_and_picklable(cls):
    grid = with_decap(cls)
    if cls is GridPDN:
        grid.solve()
    elif cls is GridACPDN:
        grid.impedance_map(np.logspace(5, 8, 4))
    else:
        grid.simulate_step(1.0, 2.0, duration_s=2e-8, dt_s=1e-9)
    assert grid._cache
    clone = grid.copy()
    assert clone._cache == {} and type(clone) is cls
    assert clone._topology_key() == grid._topology_key()
    restored = pickle.loads(pickle.dumps(grid))
    assert restored._cache == {}
    assert restored._topology_key() == grid._topology_key()
    clone.add_source("c", 0.5, 0.5, 1.0, 1e-3)
    assert grid.source_names == ["a", "b"]
    assert clone._topology_key() != grid._topology_key()


def test_resampled_snaps_sources_and_rescales_inductance():
    pdn = GridACPDN(0.02, 0.02, 1e-3, nx=9, ny=9, edge_inductance_x_h=1e-12)
    pdn.add_source("a", 0.0, 0.0, 1.0, 1e-3, 1e-11)
    pdn.add_source("b", 0.5, 1.0, 1.0, 1e-3)
    pdn.add_source("c", 1.0, 0.5, 1.0, 1e-3)
    pdn.connect_sources_with_ring_bus(2e-3)
    pdn.set_decap_density(1.0, 1e-7)
    coarse = pdn.resampled(5, 3)
    assert (coarse.nx, coarse.ny) == (5, 3)
    assert [(s.ix, s.iy) for s in coarse._sources] == [(0, 0), (2, 2), (4, 1)]
    assert coarse._sources[0].inductance_h == 1e-11
    assert coarse.edge_inductance_x_h == pytest.approx(2e-12)
    assert coarse._ring_bus_ohm == 2e-3
    assert coarse._decap is None and coarse._sink_map is None
    assert (pdn.nx, pdn.ny) == (9, 9)
