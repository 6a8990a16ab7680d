"""Bit-exact output record of the structured DC, AC and transient engines.

Runs a fixed set of seeded cases and stores every output array, so two
checkouts of the code can be compared with ``np.array_equal``:

    PYTHONPATH=src python benchmarks/output_parity.py --save a.npz
    (other checkout) PYTHONPATH=src python benchmarks/output_parity.py --save b.npz
    python benchmarks/output_parity.py --compare a.npz b.npz

Cases: structured DC ``solve`` and ``solve_disabled_many`` (128², 6×6
VRs, ring bus); PCG DC (64² with edge scales); structured AC
``impedance_map`` (32², 200 points); structured and factorized
``simulate_many`` (64² and 32²); one seeded ``optimize_decap_placement``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _vr_array(side: int) -> list[tuple[float, float]]:
    return [
        ((i + 0.5) / side, (j + 0.5) / side)
        for j in range(side)
        for i in range(side)
    ]


def record() -> dict[str, np.ndarray]:
    from repro.pdn.decap_placement import optimize_decap_placement
    from repro.pdn.grid import GridACPDN, GridPDN
    from repro.pdn.grid_transient import GridTransientPDN
    from repro.pdn.powermap import PowerMap

    side, sheet, rout, l_src = 2.2e-2, 5e-3, 0.15e-3, 5e-12
    decap = (0.2e-6, 2e-3, 1e-12)
    rng = np.random.default_rng(14)
    out: dict[str, np.ndarray] = {}

    grid = GridPDN(side, side, sheet, nx=128, ny=128, engine="structured")
    vrs = _vr_array(6)
    for k, (x, y) in enumerate(vrs):
        grid.add_source(f"vr{k}", x, y, 1.0, rout)
    grid.connect_sources_with_ring_bus(2e-3)
    grid.set_sink_array(PowerMap.hotspot_mixture().cell_currents(128, 128, 1000.0))
    solution = grid.solve()
    out["dc128.v"] = solution.voltage_map
    out["dc128.i"] = solution.source_currents_a
    scenarios = [tuple(sorted(rng.choice(len(vrs), 2, replace=False))) for _ in range(8)]
    for k, sol in enumerate(grid.solve_disabled_many(scenarios)):
        out[f"nk128.{k}.v"] = sol.voltage_map
        out[f"nk128.{k}.i"] = sol.source_currents_a

    pcg = GridPDN(side, side, sheet, nx=64, ny=64, engine="structured")
    for k, (x, y) in enumerate(_vr_array(4)):
        pcg.add_source(f"vr{k}", x, y, 1.0, rout)
    pcg.set_sink_array(PowerMap.gaussian((0.3, 0.6), 0.12, 0.5).cell_currents(64, 64, 500.0))
    pcg.set_edge_resistance_scale(
        rng.uniform(0.7, 1.4, (64, 63)), rng.uniform(0.7, 1.4, (63, 64))
    )
    solution = pcg.solve()
    out["pcg64.v"] = solution.voltage_map
    out["pcg64.i"] = solution.source_currents_a

    ac = GridACPDN(side, side, sheet, nx=32, ny=32)
    for k, (x, y) in enumerate(_vr_array(4)):
        ac.add_source(f"vr{k}", x, y, 1.0, rout, l_src)
    ac.connect_sources_with_ring_bus(2e-3)
    ac.set_decap_density(1.0, *decap)
    out["ac32.z"] = ac.impedance_map(np.logspace(3, 9, 200), method="structured").z_ohm

    for n, engine in ((64, "structured"), (32, "factorized")):
        pdn = GridTransientPDN(side, side, sheet, nx=n, ny=n, engine=engine)
        for k, (x, y) in enumerate(_vr_array(4)):
            pdn.add_source(f"vr{k}", x, y, 1.0, rout, l_src)
        pdn.set_decap_density(1.0, *decap)
        base = PowerMap.hotspot_mixture().cell_currents(n, n, 1.0).ravel()
        levels = rng.uniform(100.0, 1000.0, (3, 1, 1))
        waves = np.repeat(base[None, None, :], 201, axis=1) * levels
        waves[:, 0] *= 0.2
        for k, result in enumerate(pdn.simulate_many(waves, 2e-10, probe_nodes=[(1, 1)])):
            assert result.engine == engine
            out[f"tr{n}.{k}.vmin"] = result.v_min_map
            out[f"tr{n}.{k}.vfinal"] = result.v_final_map
            out[f"tr{n}.{k}.trace"] = result.min_voltage_trace_v
            out[f"tr{n}.{k}.probe"] = result.probe_voltages_v

    place = GridACPDN(side, side, sheet, nx=12, ny=12)
    for k, (x, y) in enumerate(rng.uniform(0.05, 0.95, (5, 2))):
        place.add_source(f"vr{k}", x, y, 1.0, rout, l_src)
    freqs = np.logspace(4, 9, 41)
    place.set_decap_density(1.0, *decap)
    target = 0.6 * float(place.impedance_map(freqs).peak_map().max())
    density = PowerMap.gaussian((0.4, 0.6), 0.15, 0.5).cell_currents(12, 12, 144.0)
    place.set_decap_density(density, *decap)
    result = optimize_decap_placement(place, target, frequencies_hz=freqs)
    out["place.density"] = result.density_after
    out["place.peaks"] = result.peak_map_after
    out["place.history"] = np.asarray(result.violating_fraction_history)
    return out


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if sorted(a.files) != sorted(b.files):
        print("case sets differ")
        return 1
    bad = [key for key in sorted(a.files) if not np.array_equal(a[key], b[key])]
    for key in bad:
        print(f"DIFFERS {key}: max |Δ| = {np.abs(a[key] - b[key]).max():.3e}")
    print(f"{len(a.files) - len(bad)}/{len(a.files)} arrays bit-identical")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="OUT.npz")
    group.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    np.savez(args.save, **record())
    return 0


if __name__ == "__main__":
    sys.exit(main())
