"""Property-based parity of the grid-level AC engine (hypothesis).

:class:`repro.pdn.grid.GridACPDN` folds decap chains (C + ESR + ESL)
and source output branches into per-node shunt admittances and solves
the reduced mesh directly or spectrally.  On small random meshes both
engines must match building the equivalent lumped
:class:`~repro.pdn.ac.ACNetlist` *by hand* and solving it with the
retained scalar oracle :func:`~repro.pdn.ac.solve_ac` — per node, per
frequency, to 1e-9 relative — across random decap/ESL maps, source
placements, and frequencies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pdn.ac import (
    GRID_DENSE_CELL_CUTOFF,
    ACNetlist,
    grid_direct_mode,
    probe_netlist,
    solve_ac,
)
from repro.pdn.grid import GridACPDN
from repro.pdn.powermap import PowerMap

RTOL = 1e-9
# The structured engine's acceptance bound: eigen-transform round trips
# accumulate a little more float noise than direct LU, but stay well
# inside the issue's 1e-8 parity budget.
STRUCTURED_RTOL = 1e-8

sheets = st.floats(min_value=1e-3, max_value=1e-1)
caps = st.floats(min_value=1e-8, max_value=1e-6)
esrs = st.floats(min_value=1e-3, max_value=1e-1)
esls = st.floats(min_value=1e-12, max_value=1e-10)
routs = st.floats(min_value=1e-3, max_value=1e-1)
frequencies = st.floats(min_value=1e4, max_value=1e9)
densities = st.floats(min_value=0.2, max_value=5.0)
positions = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


def node_name(ix: int, iy: int) -> str:
    return f"n{ix},{iy}"


def lumped_equivalent(
    nx: int,
    ny: int,
    rx: float,
    ry: float,
    c_map: np.ndarray,
    esr_map: np.ndarray,
    esl_map: np.ndarray,
    sources: list[tuple[int, int, float, float, float]],
    ring_ohm: float | None = None,
) -> ACNetlist:
    """The grid's circuit, built element by element (the oracle side).

    Deliberately independent of the array assemblers: plain
    ``add_*`` calls, one per element, so a stamping bug in the
    compiled paths cannot hide in a shared helper.
    """
    net = ACNetlist()
    for iy in range(ny):
        for ix in range(nx):
            if ix + 1 < nx:
                net.add_resistor(
                    f"x{ix},{iy}", node_name(ix, iy), node_name(ix + 1, iy), rx
                )
            if iy + 1 < ny:
                net.add_resistor(
                    f"y{ix},{iy}", node_name(ix, iy), node_name(ix, iy + 1), ry
                )
            c = float(c_map[iy, ix])
            if c > 0:
                esr = float(esr_map[iy, ix])
                esl = float(esl_map[iy, ix])
                chain = node_name(ix, iy)
                if esr > 0 or esl > 0:
                    net.add_capacitor(f"c{ix},{iy}", chain, f"d{ix},{iy}", c)
                    chain = f"d{ix},{iy}"
                    if esr > 0 and esl > 0:
                        net.add_resistor(
                            f"cr{ix},{iy}", chain, f"e{ix},{iy}", esr
                        )
                        net.add_inductor(
                            f"cl{ix},{iy}", f"e{ix},{iy}", net.GROUND, esl
                        )
                    elif esr > 0:
                        net.add_resistor(f"cr{ix},{iy}", chain, net.GROUND, esr)
                    else:
                        net.add_inductor(f"cl{ix},{iy}", chain, net.GROUND, esl)
                else:
                    net.add_capacitor(
                        f"c{ix},{iy}", chain, net.GROUND, c
                    )
    for k, (ix, iy, voltage, rout, l_src) in enumerate(sources):
        net.add_voltage_source(f"v{k}", f"emf{k}", voltage)
        if l_src > 0:
            net.add_resistor(f"r{k}", f"emf{k}", f"mid{k}", rout)
            net.add_inductor(f"l{k}", f"mid{k}", node_name(ix, iy), l_src)
        else:
            net.add_resistor(f"r{k}", f"emf{k}", node_name(ix, iy), rout)
    if ring_ohm is not None:
        count = len(sources)
        for k in range(count):
            ax, ay = sources[k][:2]
            bx, by = sources[(k + 1) % count][:2]
            if (ax, ay) == (bx, by):
                continue
            net.add_resistor(
                f"ring{k}", node_name(ax, ay), node_name(bx, by), ring_ohm
            )
    return net


def snap(pdn: GridACPDN, x: float, y: float) -> tuple[int, int]:
    ix = min(int(round(x * (pdn.nx - 1))), pdn.nx - 1)
    iy = min(int(round(y * (pdn.ny - 1))), pdn.ny - 1)
    return ix, iy


def attach_sources(
    pdn: GridACPDN, draws: list[tuple]
) -> list[tuple[int, int, float, float, float]]:
    """Attach drawn sources to the grid, dropping position collisions,
    and return the (ix, iy, V, rout, L) list for the lumped oracle."""
    attached: list[tuple[int, int, float, float, float]] = []
    taken: set[tuple[int, int]] = set()
    for k, ((x, y), rout, l_src) in enumerate(draws):
        ix, iy = snap(pdn, x, y)
        if (ix, iy) in taken:
            continue
        taken.add((ix, iy))
        pdn.add_source(f"s{k}", x, y, 1.0, rout, l_src)
        attached.append((ix, iy, 1.0, rout, l_src))
    return attached


def assert_impedance_parity(
    pdn: GridACPDN,
    net: ACNetlist,
    freqs: np.ndarray,
    method: str,
    rtol: float = RTOL,
) -> None:
    """Grid impedance map vs a per-node scalar probe loop."""
    impedance = pdn.impedance_map(freqs, method=method)
    for k, frequency in enumerate(freqs):
        oracle = np.empty(pdn.nx * pdn.ny, dtype=complex)
        for iy in range(pdn.ny):
            for ix in range(pdn.nx):
                name = node_name(ix, iy)
                probe = probe_netlist(net, name)
                oracle[iy * pdn.nx + ix] = solve_ac(
                    probe, float(frequency)
                ).voltage(name)
        scale = max(float(np.abs(oracle).max()), 1e-12)
        delta = np.abs(impedance.z_ohm[:, k] - oracle)
        assert delta.max() <= rtol * scale, (
            f"{method} impedance map off by {delta.max():.3e} "
            f"(scale {scale:.3e}) at {frequency:.4g} Hz"
        )


@given(
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
    sheet=sheets,
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_direct_impedance_map_matches_scalar_oracle(nx, ny, sheet, data):
    """Arbitrary per-node decap/ESL maps: direct engine vs solve_ac."""
    cells = nx * ny
    c_flat = data.draw(
        st.lists(
            st.one_of(st.just(0.0), caps), min_size=cells, max_size=cells
        )
    )
    esr_flat = data.draw(st.lists(esrs, min_size=cells, max_size=cells))
    esl_flat = data.draw(st.lists(esls, min_size=cells, max_size=cells))
    source_draws = data.draw(
        st.lists(
            st.tuples(positions, routs, st.one_of(st.just(0.0), esls)),
            min_size=1,
            max_size=3,
        )
    )
    freqs = np.array(
        sorted(
            data.draw(
                st.lists(frequencies, min_size=1, max_size=3, unique=True)
            )
        )
    )

    pdn = GridACPDN(1e-2, 1e-2, sheet, nx=nx, ny=ny)
    c_map = np.array(c_flat).reshape(ny, nx)
    esr_map = np.array(esr_flat).reshape(ny, nx)
    esl_map = np.array(esl_flat).reshape(ny, nx)
    if not np.any(c_map > 0):
        c_map[0, 0] = 1e-7
    pdn.set_decap_map(c_map, esr_map, esl_map)
    sources = attach_sources(pdn, source_draws)
    net = lumped_equivalent(
        nx,
        ny,
        pdn.edge_resistance_x_ohm,
        pdn.edge_resistance_y_ohm,
        c_map,
        esr_map,
        esl_map,
        sources,
    )
    assert_impedance_parity(pdn, net, freqs, method="direct")


@given(
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
    sheet=sheets,
    unit_c=caps,
    unit_esr=esrs,
    unit_esl=esls,
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_spectral_impedance_map_matches_scalar_oracle(
    nx, ny, sheet, unit_c, unit_esr, unit_esl, data
):
    """Density-model decaps: the spectral engine vs solve_ac.

    The per-node maps the oracle sees are the folded parallel
    combination: α·C with ESR/α and ESL/α.
    """
    cells = nx * ny
    density = np.array(
        data.draw(st.lists(densities, min_size=cells, max_size=cells))
    ).reshape(ny, nx)
    source_draws = data.draw(
        st.lists(
            st.tuples(positions, routs, st.one_of(st.just(0.0), esls)),
            min_size=1,
            max_size=3,
        )
    )
    freqs = np.array(
        sorted(
            data.draw(
                st.lists(frequencies, min_size=1, max_size=3, unique=True)
            )
        )
    )

    pdn = GridACPDN(1e-2, 1e-2, sheet, nx=nx, ny=ny)
    pdn.set_decap_density(density, unit_c, unit_esr, unit_esl)
    sources = attach_sources(pdn, source_draws)
    net = lumped_equivalent(
        nx,
        ny,
        pdn.edge_resistance_x_ohm,
        pdn.edge_resistance_y_ohm,
        density * unit_c,
        unit_esr / density,
        unit_esl / density,
        sources,
    )
    assert_impedance_parity(pdn, net, freqs, method="spectral")
    # And the two engines against each other on the identical topology.
    direct = pdn.impedance_map(freqs, method="direct")
    spectral = pdn.impedance_map(freqs, method="spectral")
    scale = max(float(np.abs(direct.z_ohm).max()), 1e-12)
    assert np.abs(spectral.z_ohm - direct.z_ohm).max() <= RTOL * scale


@given(
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
    sheet=sheets,
    density=densities,
    unit_c=caps,
    unit_esr=esrs,
    unit_esl=esls,
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_structured_impedance_map_matches_scalar_oracle(
    nx, ny, sheet, density, unit_c, unit_esr, unit_esl, data
):
    """Uniform decap density: the structured (fast-Poisson) engine vs
    solve_ac, and against the spectral and direct engines on the
    identical topology."""
    source_draws = data.draw(
        st.lists(
            st.tuples(positions, routs, st.one_of(st.just(0.0), esls)),
            min_size=1,
            max_size=3,
        )
    )
    freqs = np.array(
        sorted(
            data.draw(
                st.lists(frequencies, min_size=1, max_size=3, unique=True)
            )
        )
    )

    pdn = GridACPDN(1e-2, 1e-2, sheet, nx=nx, ny=ny)
    pdn.set_decap_density(density, unit_c, unit_esr, unit_esl)
    sources = attach_sources(pdn, source_draws)
    assert pdn.impedance_engine() == "structured"
    alpha = np.full((ny, nx), density)
    net = lumped_equivalent(
        nx,
        ny,
        pdn.edge_resistance_x_ohm,
        pdn.edge_resistance_y_ohm,
        alpha * unit_c,
        unit_esr / alpha,
        unit_esl / alpha,
        sources,
    )
    assert_impedance_parity(
        pdn, net, freqs, method="structured", rtol=STRUCTURED_RTOL
    )
    structured = pdn.impedance_map(freqs, method="structured")
    for other in ("spectral", "direct"):
        z = pdn.impedance_map(freqs, method=other).z_ohm
        scale = max(float(np.abs(z).max()), 1e-12)
        assert (
            np.abs(structured.z_ohm - z).max() <= STRUCTURED_RTOL * scale
        ), f"structured vs {other} disagree"


@given(
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
    sheet=sheets,
    density=densities,
    unit_c=caps,
    unit_esr=esrs,
    ring=st.floats(min_value=1e-3, max_value=1e-1),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_structured_ring_bus_matches_scalar_oracle(
    nx, ny, sheet, density, unit_c, unit_esr, ring, data
):
    """Ring-bus segments ride the rank-k correction of the structured
    engine; four corner VRs joined by a ring must match the hand-built
    oracle with explicit ring resistors."""
    freqs = np.array(
        sorted(
            data.draw(
                st.lists(frequencies, min_size=1, max_size=3, unique=True)
            )
        )
    )

    pdn = GridACPDN(1e-2, 1e-2, sheet, nx=nx, ny=ny)
    pdn.set_decap_density(density, unit_c, unit_esr)
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    sources = []
    for k, (x, y) in enumerate(corners):
        rout = data.draw(routs)
        l_src = data.draw(st.one_of(st.just(0.0), esls))
        pdn.add_source(f"s{k}", x, y, 1.0, rout, l_src)
        ix, iy = snap(pdn, x, y)
        sources.append((ix, iy, 1.0, rout, l_src))
    pdn.connect_sources_with_ring_bus(ring)
    assert pdn.impedance_engine() == "structured"

    alpha = np.full((ny, nx), density)
    net = lumped_equivalent(
        nx,
        ny,
        pdn.edge_resistance_x_ohm,
        pdn.edge_resistance_y_ohm,
        alpha * unit_c,
        unit_esr / alpha,
        np.zeros((ny, nx)),
        sources,
        ring_ohm=ring,
    )
    assert_impedance_parity(
        pdn, net, freqs, method="structured", rtol=STRUCTURED_RTOL
    )
    direct = pdn.impedance_map(freqs, method="direct").z_ohm
    structured = pdn.impedance_map(freqs, method="structured").z_ohm
    scale = max(float(np.abs(direct).max()), 1e-12)
    assert np.abs(structured - direct).max() <= STRUCTURED_RTOL * scale


def test_impedance_engine_selection_by_topology():
    """Auto picks structured > spectral > direct by what the topology
    allows; explicit ineligible methods are configuration errors."""
    pdn = GridACPDN(1e-2, 1e-2, 1e-2, nx=3, ny=3)
    pdn.add_source("s0", 0.0, 0.0, 1.0, 1e-2)

    with pytest.raises(ConfigError):
        pdn.impedance_engine("bogus")
    # No decap attached: only the direct engine applies.
    assert pdn.impedance_engine() == "direct-dense"
    with pytest.raises(ConfigError):
        pdn.impedance_engine("structured")
    with pytest.raises(ConfigError):
        pdn.impedance_engine("spectral")

    # Uniform positive density: every engine, auto picks structured.
    pdn.set_decap_density(1.0, 1e-7, 1e-2, 1e-11)
    assert pdn.impedance_engine() == "structured"
    assert pdn.impedance_engine("structured") == "structured"
    assert pdn.impedance_engine("spectral") == "spectral"
    assert pdn.impedance_engine("direct") == "direct-dense"

    # Non-uniform positive density: spectral, structured is refused.
    density = np.ones((3, 3))
    density[1, 1] = 2.0
    pdn.set_decap_density(density, 1e-7)
    assert pdn.impedance_engine() == "spectral"
    with pytest.raises(ConfigError):
        pdn.impedance_engine("structured")

    # A zero in the density map kills both modal engines.
    density[0, 0] = 0.0
    pdn.set_decap_density(density, 1e-7)
    assert pdn.impedance_engine() == "direct-dense"
    with pytest.raises(ConfigError):
        pdn.impedance_engine("spectral")

    # Arbitrary per-node maps only run direct.
    pdn.set_decap_map(np.full((3, 3), 1e-7), 1e-2, 0.0)
    assert pdn.impedance_engine() == "direct-dense"
    with pytest.raises(ConfigError):
        pdn.impedance_engine("spectral")


def test_inductive_mesh_disables_modal_engines():
    """Series mesh inductance breaks the frequency-independent
    Laplacian both modal engines rely on."""
    pdn = GridACPDN(
        1e-2,
        1e-2,
        1e-2,
        nx=3,
        ny=3,
        edge_inductance_x_h=1e-12,
        edge_inductance_y_h=1e-12,
    )
    pdn.add_source("s0", 0.0, 0.0, 1.0, 1e-2)
    pdn.set_decap_density(1.0, 1e-7)
    assert pdn.impedance_engine() == "direct-dense"
    with pytest.raises(ConfigError):
        pdn.impedance_engine("structured")
    with pytest.raises(ConfigError):
        pdn.impedance_engine("spectral")


def test_direct_engine_crossover_by_mesh_size():
    """The direct engine is dense up to GRID_DENSE_CELL_CUTOFF cells
    and shared-pattern sparse above — asserted both on the helper and
    through the engine-resolution surface."""
    assert grid_direct_mode(GRID_DENSE_CELL_CUTOFF) == "dense"
    assert grid_direct_mode(GRID_DENSE_CELL_CUTOFF + 1) == "sparse"

    side = int(round(GRID_DENSE_CELL_CUTOFF**0.5))
    assert side * side == GRID_DENSE_CELL_CUTOFF, "cutoff must be square"
    at_cutoff = GridACPDN(1e-2, 1e-2, 1e-2, nx=side, ny=side)
    at_cutoff.add_source("s0", 0.0, 0.0, 1.0, 1e-2)
    assert at_cutoff.impedance_engine("direct") == "direct-dense"
    assert at_cutoff.impedance_engine() == "direct-dense"

    above = GridACPDN(1e-2, 1e-2, 1e-2, nx=side + 1, ny=side)
    above.add_source("s0", 0.0, 0.0, 1.0, 1e-2)
    assert above.impedance_engine("direct") == "direct-sparse"
    assert above.impedance_engine() == "direct-sparse"


def test_direct_sparse_agrees_with_structured_above_cutoff():
    """Above the dense cutoff, the shared-pattern sparse direct path
    must agree with the structured engine on a uniform-density mesh."""
    side = int(round(GRID_DENSE_CELL_CUTOFF**0.5))
    pdn = GridACPDN(1e-2, 1e-2, 1e-2, nx=side + 1, ny=side)
    pdn.add_source("s0", 0.0, 0.0, 1.0, 1e-2)
    pdn.add_source("s1", 1.0, 1.0, 1.0, 2e-2, 1e-11)
    pdn.set_decap_density(1.5, 1e-7, 5e-3, 1e-11)
    assert pdn.impedance_engine("direct") == "direct-sparse"
    freqs = np.array([1e5, 1e7, 1e9])
    direct = pdn.impedance_map(freqs, method="direct").z_ohm
    structured = pdn.impedance_map(freqs, method="structured").z_ohm
    scale = max(float(np.abs(direct).max()), 1e-12)
    assert np.abs(structured - direct).max() <= STRUCTURED_RTOL * scale


def test_spectral_matches_direct_on_a_placement_sized_mesh():
    """The property suites stop at 4×4; placement runs the spectral
    engine on 6²–24² meshes.  A 16² hotspot decap map with six VRs
    (placement-workload values) must stay inside the same parity bound
    against the direct engine over 10 kHz–1 GHz."""
    n = 16
    pdn = GridACPDN(0.032, 0.032, 2e-3, nx=n, ny=n)
    sites = [
        (0.1, 0.2), (0.85, 0.1), (0.5, 0.45),
        (0.2, 0.9), (0.7, 0.8), (0.95, 0.6),
    ]
    for k, (x, y) in enumerate(sites):
        rout = 0.15e-3 * (0.6 + 0.25 * k)
        pdn.add_source(f"vr{k}", x, y, 1.0, rout, 5e-12)
    density = PowerMap.hotspot_mixture().cell_currents(n, n, n * n)
    pdn.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
    assert pdn.impedance_engine("auto") == "spectral"
    freqs = np.logspace(4, 9, 41)
    direct = pdn.impedance_map(freqs, method="direct").z_ohm
    spectral = pdn.impedance_map(freqs, method="spectral").z_ohm
    scale = max(float(np.abs(direct).max()), 1e-12)
    assert np.abs(spectral - direct).max() <= RTOL * scale
