"""2-D lateral grid PDN model.

Discretizes one polarity of a metal layer (interposer RDL or the die
BEOL grid) over the die area into an ``nx x ny`` node mesh.  Adjacent
nodes are connected by resistors derived from the layer's sheet
resistance; POL sinks come from a :class:`~repro.pdn.powermap.PowerMap`
and regulator outputs attach as voltage sources with a series output
resistance at arbitrary grid positions.

Loss accounting convention: the grid models ONE polarity.  For a
symmetric power + ground pair the reported lateral loss is doubled via
``rail_pair_factor`` (default 2.0).

The mesh design itself — geometry, sinks, sources, ring bus, decap —
and its validation live in :class:`~repro.pdn.mesh.MeshDesign`, which
:class:`GridPDN` (DC) and :class:`GridACPDN` (AC) inherit.

Solving is array-native: the mesh is assembled directly into a
:class:`~repro.pdn.network.CompiledNetlist` (vectorized edge
construction, no per-element Python objects) and the sparse LU
factorization is cached on the grid under the design's topology key,
so repeated solves that only change the sink map or the source
voltages — load sweeps, Monte-Carlo scenarios, droop-setpoint studies
— pay back-substitution cost only.  Attaching/removing sources or the
ring bus changes the key and transparently refactorizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import ConfigError, SolverError
from .ac import (
    _DENSE_BATCH_ENTRIES,
    ACSweepSolution,
    CompiledACNetlist,
    check_frequencies,
    grid_direct_mode,
    shared_csc_pattern,
)
from .fast_poisson import (
    FastPoissonOperator,
    StructuredGridPDN,
    StructuredSolveError,
    branch_columns,
    dct2_basis,
)
from .impedance import ImpedanceProfile
from .mna import (
    SINGULARITY_PROBE_TOL,
    DCSolution,
    FactorizedPDN,
    singularity_probe,
)
from .mesh import (  # STRUCTURED_AUTO_MIN_CELLS is re-exported
    STRUCTURED_AUTO_MIN_CELLS,
    MeshDesign,
    check_engine,
    check_index,
    check_map,
    check_real,
    mesh_edge_rows,
    resolve_engine,
)
from .network import (
    GROUND_INDEX,
    CompiledNetlist,
    Netlist,
    admittance_stamp_entries,
)


@dataclass(frozen=True)
class GridSolution:
    """Solved grid operating point.

    Attributes:
        dc: raw MNA solution.
        source_currents_a: output current of each attached source, in
            attachment order.
        lateral_loss_w: I²R loss in the grid metal for the rail pair.
        source_loss_w: I²R loss inside the sources' output resistances
            (not part of interconnect loss; useful for diagnostics).
        voltage_map: node voltages as an (ny, nx) array.
        grid_edge_currents_a: signed current through each mesh edge
            (x edges then y edges), when solved via the fast path.
    """

    dc: DCSolution
    source_currents_a: np.ndarray
    lateral_loss_w: float
    source_loss_w: float
    voltage_map: np.ndarray
    grid_edge_currents_a: np.ndarray | None = None

    @property
    def worst_droop_v(self) -> float:
        """Difference between the best and worst node voltages."""
        return float(self.voltage_map.max() - self.voltage_map.min())

    def edge_current_stats(self) -> dict[str, float]:
        """Grid-edge current statistics (lateral EM screening).

        Returns max/mean absolute edge current in amperes.  Combined
        with the metal cross-section per strip, this is the lateral
        electromigration check that complements the per-element
        ratings on the vertical arrays.
        """
        if self.grid_edge_currents_a is not None:
            edge_currents = np.abs(self.grid_edge_currents_a)
        else:
            # Name-keyed fallback for externally-constructed solutions.
            edge_currents = np.abs(
                np.array(
                    [
                        current
                        for name, current in self.dc.resistor_currents.items()
                        if name.startswith("grid.")
                    ]
                )
            )
        if not edge_currents.size:
            return {"max_a": 0.0, "mean_a": 0.0}
        return {
            "max_a": float(edge_currents.max()),
            "mean_a": float(edge_currents.mean()),
        }


@dataclass
class _GridStructure:
    """Cached assembly (and, lazily, factorization) of one topology.

    Built for one :meth:`MeshDesign._topology_key` (mesh resistances,
    source attachment points and output resistances, ring bus,
    per-edge variation); sink currents and source voltages are
    RHS-only and do not participate.  Both engines are created on
    first use: the sparse LU factorization so that
    :meth:`GridPDN.compile` can hand out the array form without paying
    for (or duplicating) an LU decomposition, and the structured
    fast-Poisson engine so that factorized-only workloads never pay
    for transforms.
    """

    compiled: CompiledNetlist
    grid_edge_count: int
    lateral_count: int  # grid edges + ring segments
    fast_spec: dict | None = None
    _solver: FactorizedPDN | None = None
    _fast: StructuredGridPDN | None = None

    @property
    def solver(self) -> FactorizedPDN:
        if self._solver is None:
            # Route through the process-wide content-hashed cache so
            # grid rebuilds of the same topology (sweep workers, CLI
            # re-runs) share one LU factorization.  Lazy import: the
            # parallel layer sits above pdn in the dependency graph.
            from ..parallel.cache import get_factorized

            self._solver = get_factorized(self.compiled)
        return self._solver

    @property
    def fast(self) -> StructuredGridPDN:
        if self._fast is None:
            self._fast = StructuredGridPDN(
                compiled=self.compiled, **self.fast_spec
            )
        return self._fast


class GridPDN(MeshDesign):
    """A rectangular one-polarity PDN grid over the die area.

    Args:
        width_m: die width (x extent).
        height_m: die height (y extent).
        sheet_ohm_sq: sheet resistance of the modeled metal stack.
        nx, ny: node counts in x and y (>= 2 each).
        rail_pair_factor: multiply lateral loss by this factor to
            account for the return (ground) network; 2.0 assumes a
            symmetric ground grid.
        engine: DC solve engine — ``"auto"`` (structured fast-Poisson
            at or above :data:`STRUCTURED_AUTO_MIN_CELLS` cells with a
            transparent sparse-LU fallback, cached LU below),
            ``"structured"`` (force the fast path; raises
            :class:`~repro.pdn.fast_poisson.StructuredSolveError` when
            it cannot converge), or ``"factorized"`` (force the exact
            sparse-LU oracle).

    The design setters (sinks, sources, ring bus) come from
    :class:`~repro.pdn.mesh.MeshDesign`.
    """

    ALLOWS_CHAINS = False

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        rail_pair_factor: float = 2.0,
        engine: str = "auto",
    ) -> None:
        super().__init__(width_m, height_m, sheet_ohm_sq, nx, ny)
        self.rail_pair_factor = check_real(
            "rail_pair_factor", rail_pair_factor, 1.0
        )
        self.engine = check_engine(engine)

    # -- construction ---------------------------------------------------------

    def add_source(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
    ) -> None:
        """Attach a regulator output at fractional die coordinates
        (:meth:`MeshDesign.add_source` with no series inductance)."""
        super().add_source(
            name, x_frac, y_frac, voltage_v, output_resistance_ohm
        )

    def set_edge_resistance_scale(
        self, x_scale=None, y_scale=None
    ) -> None:
        """Apply per-edge metal-variation multipliers to the mesh.

        ``x_scale`` (shape ``(ny, nx-1)``) and ``y_scale`` (shape
        ``(ny-1, nx)``) multiply the nominal per-edge resistances —
        line-width/thickness variation, partially depopulated straps,
        or localized metal cheese.  Factors must be positive; pass
        ``None`` (the default) for either axis to restore uniform
        metal.  Non-uniform meshes solve through fast-Poisson-
        preconditioned CG on the structured engine, or exactly through
        the factorized engine.
        """
        self._edge_scale_x = (
            None
            if x_scale is None
            else check_map(
                "x_scale", x_scale, (self.ny, self.nx - 1), positive=True
            )
        )
        self._edge_scale_y = (
            None
            if y_scale is None
            else check_map(
                "y_scale", y_scale, (self.ny - 1, self.nx), positive=True
            )
        )
        self._touch()

    # -- solving -----------------------------------------------------------------

    def build_netlist(self) -> Netlist:
        """Assemble the netlist for the current sinks and sources."""
        self._check_attached()
        netlist = Netlist()
        rx = self.edge_resistance_x_ohm
        ry = self.edge_resistance_y_ohm

        def node(ix: int, iy: int) -> tuple[str, int, int]:
            return ("g", ix, iy)

        sx = self._edge_scale_x
        sy = self._edge_scale_y
        for iy in range(self.ny):
            for ix in range(self.nx):
                if ix + 1 < self.nx:
                    netlist.add_resistor(
                        f"grid.x[{ix},{iy}]",
                        node(ix, iy),
                        node(ix + 1, iy),
                        rx if sx is None else rx * sx[iy, ix],
                    )
                if iy + 1 < self.ny:
                    netlist.add_resistor(
                        f"grid.y[{ix},{iy}]",
                        node(ix, iy),
                        node(ix, iy + 1),
                        ry if sy is None else ry * sy[iy, ix],
                    )

        # Sinks: cell (i,j) current attached to its node.
        for iy in range(self.ny):
            for ix in range(self.nx):
                current = float(self._sink_map[iy, ix])
                if current > 0.0:
                    netlist.add_load(
                        f"sink[{ix},{iy}]", node(ix, iy), current
                    )

        for s in self._sources:
            netlist.add_source_with_impedance(
                f"src.{s.name}", node(s.ix, s.iy), s.voltage_v, s.r_out_ohm
            )

        for k, a, b in zip(*self._ring_segments()):
            (iy_a, ix_a), (iy_b, ix_b) = divmod(int(a), self.nx), divmod(int(b), self.nx)
            netlist.add_resistor(
                f"ring[{k}]",
                node(ix_a, iy_a),
                node(ix_b, iy_b),
                self._ring_bus_ohm,
            )
        return netlist

    # -- vectorized assembly / cached factorization ------------------------------

    def _build_structure(self) -> _GridStructure:
        nx, ny = self.nx, self.ny
        cells = nx * ny
        x_a, x_b, y_a, y_b = mesh_edge_rows(nx, ny)
        rx = self.edge_resistance_x_ohm
        ry = self.edge_resistance_y_ohm
        src_names = self.source_names
        attach_rows, _, r_out, _ = self._source_arrays()
        ring_k, ring_a, ring_b = self._ring_segments()

        emf_rows = cells + np.arange(len(src_names), dtype=np.int64)
        res_a = np.concatenate([x_a, y_a, ring_a, emf_rows])
        res_b = np.concatenate([x_b, y_b, ring_b, attach_rows])
        r_x = np.full(x_a.size, rx)
        r_y = np.full(y_a.size, ry)
        if self._edge_scale_x is not None:
            r_x *= self._edge_scale_x.ravel()
        if self._edge_scale_y is not None:
            r_y *= self._edge_scale_y.ravel()
        res_ohm = np.concatenate(
            [r_x, r_y, np.full(ring_k.size, self._ring_bus_ohm or 0.0), r_out]
        )

        def resistor_names() -> list[str]:
            names = [
                f"grid.x[{ix},{iy}]"
                for iy in range(ny)
                for ix in range(nx - 1)
            ]
            names += [
                f"grid.y[{ix},{iy}]"
                for iy in range(ny - 1)
                for ix in range(nx)
            ]
            names += [f"ring[{k}]" for k in ring_k]
            names += [f"src.{name}.rout" for name in src_names]
            return names

        def sink_names() -> list[str]:
            return [
                f"sink[{ix},{iy}]" for iy in range(ny) for ix in range(nx)
            ]

        def node_ids() -> tuple:
            return tuple(
                ("g", ix, iy) for iy in range(ny) for ix in range(nx)
            ) + tuple((f"src.{name}", "emf") for name in src_names)

        compiled = CompiledNetlist(
            nodes=node_ids,
            n_nodes=cells + len(src_names),
            res_a=res_a,
            res_b=res_b,
            res_ohm=res_ohm,
            cs_from=np.arange(cells, dtype=np.int64),
            cs_to=np.full(cells, GROUND_INDEX, dtype=np.int64),
            cs_amp=np.zeros(cells),
            vs_plus=emf_rows,
            vs_minus=np.full(len(src_names), GROUND_INDEX, dtype=np.int64),
            vs_volt=np.zeros(len(src_names)),
            res_names=resistor_names,
            cs_names=sink_names,
            vs_names=tuple(f"src.{name}.v" for name in src_names),
        )
        grid_edge_count = x_a.size + y_a.size
        fast_spec = dict(
            nx=nx,
            ny=ny,
            edge_conductance_x=1.0 / rx,
            edge_conductance_y=1.0 / ry,
            attach_rows=attach_rows,
            source_conductance=1.0 / r_out,
            shunt_conductance=np.zeros(cells),
            ring_a=ring_a,
            ring_b=ring_b,
            ring_conductance=np.full(
                ring_k.size, 1.0 / (self._ring_bus_ohm or 1.0)
            ),
            edge_scale_x=self._edge_scale_x,
            edge_scale_y=self._edge_scale_y,
        )
        return _GridStructure(
            compiled=compiled,
            grid_edge_count=grid_edge_count,
            lateral_count=grid_edge_count + ring_k.size,
            fast_spec=fast_spec,
        )

    def _ensure_structure(self) -> _GridStructure:
        return self._cached("dc", self._build_structure)

    @property
    def _structure(self) -> _GridStructure | None:
        """The last structure built, if any (tagged in ``_cache``)."""
        return self._cache.get("dc", (None, None))[1]

    def compile(self) -> CompiledNetlist:
        """The grid as a compiled netlist with current sinks/voltages."""
        structure, sinks, volts = self._solve_inputs()
        return structure.compiled.with_sources(cs_amp=sinks, vs_volt=volts)

    def _resolve_engine(self) -> str:
        """The engine this solve will try first."""
        return resolve_engine(self.engine, self.nx * self.ny)

    def _structured_call(self, structure: _GridStructure, run, fallback):
        """Run ``run`` on the structured engine, falling back to
        ``fallback`` (the factorized path) under ``engine="auto"``
        when the structured solve cannot converge."""
        try:
            return run(structure.fast)
        except StructuredSolveError:
            if self.engine == "structured":
                raise
            return fallback()

    def solve(self, check: bool = True) -> GridSolution:
        """Solve the grid and return per-source currents and losses.

        The engine-selection layer (see the ``engine`` constructor
        argument) picks between the structured fast-Poisson path and
        the cached sparse LU.  Either way the first solve of a
        topology pays the setup (transform columns or factorization);
        later solves with the same topology (possibly new sink maps or
        source voltages) reuse it.
        """
        structure, sinks, volts = self._solve_inputs()
        if self._resolve_engine() == "structured":
            dc = self._structured_call(
                structure,
                lambda fast: fast.solve(sinks, volts, check=check),
                lambda: structure.solver.solve(
                    cs_amp=sinks, vs_volt=volts, check=check
                ),
            )
        else:
            dc = structure.solver.solve(
                cs_amp=sinks, vs_volt=volts, check=check
            )
        return self._package_solution(structure, dc, sinks)

    def solve_many(
        self, sink_maps, check: bool = True
    ) -> list[GridSolution]:
        """Solve a stack of sink scenarios against one topology.

        ``sink_maps`` is an iterable of ``(ny, nx)`` arrays (or an
        ``(k, ny, nx)`` stack); source voltages stay as attached.  On
        the structured engine the whole stack shares one batched
        transform pair; on the factorized engine it shares the cached
        LU.  Returns one :class:`GridSolution` per scenario.
        """
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        stack = np.asarray(sink_maps, dtype=float)
        if stack.ndim == 2 and stack.shape == (self.ny, self.nx):
            stack = stack[None]
        if stack.ndim != 3 or stack.shape[1:] != (self.ny, self.nx):
            raise ConfigError(
                "sink maps must be a stack of "
                f"({self.ny}, {self.nx}) arrays"
            )
        if not (np.all(np.isfinite(stack)) and np.all(stack >= 0)):
            raise ConfigError("sink_maps must be finite and non-negative")
        structure = self._ensure_structure()
        volts = self._source_arrays()[1]
        flat = np.ascontiguousarray(stack).reshape(
            stack.shape[0], self.nx * self.ny
        )

        def factorized() -> list[DCSolution]:
            return [
                structure.solver.solve(
                    cs_amp=row, vs_volt=volts, check=check
                )
                for row in flat
            ]

        if self._resolve_engine() == "structured":
            solved = self._structured_call(
                structure,
                lambda fast: fast.solve_many(flat, volts, check=check),
                factorized,
            )
        else:
            solved = factorized()
        return [
            self._package_solution(structure, dc, row)
            for dc, row in zip(solved, flat)
        ]

    def solve_disabled(
        self,
        disabled_sources: "tuple[int, ...] | list[int] | np.ndarray",
        check: bool = True,
        method: str = "auto",
    ) -> GridSolution:
        """Solve with a subset of the attached sources disabled.

        A disabled source's branch current is forced to zero (an
        open-circuited regulator: its output resistor and ring tap
        stay in the metal but carry nothing), expressed as a rank-k
        Woodbury correction on the *shared* factorization — an N−1/N−k
        sweep pays one factorization for the whole bank and k+1
        back-substitutions per scenario.  Indices follow attachment
        order; disabled sources report exactly 0 A.  ``method`` is
        forwarded to :meth:`~repro.pdn.mna.FactorizedPDN.solve_modified_many`
        (``"auto"`` falls back to refactorization when the correction
        is ill-conditioned).  The one-scenario case of
        :meth:`solve_disabled_many`.
        """
        return self.solve_disabled_many([disabled_sources], check, method)[0]

    def solve_disabled_many(
        self,
        scenarios: "list | tuple",
        check: bool = True,
        method: str = "auto",
    ) -> list[GridSolution]:
        """Solve a whole failure sweep with batched back-substitutions.

        Each scenario is a tuple of source indices to disable
        (:meth:`solve_disabled` semantics).  All scenarios share one
        factorization, and the influence columns, modified right-hand
        sides, and refinement round are stacked through
        :meth:`~repro.pdn.mna.FactorizedPDN.solve_modified_many`, so
        an exhaustive N−k enumeration pays three batched solves for
        the entire sweep.
        """
        normalized = [
            self._normalize_disabled(scenario) for scenario in scenarios
        ]
        structure, sinks, volts = self._solve_inputs()

        def factorized() -> list[DCSolution]:
            return structure.solver.solve_modified_many(
                [(indices, ()) for indices in normalized],
                cs_amp=sinks,
                vs_volt=volts,
                check=check,
                method=method,
            )

        if self._resolve_engine() == "structured":
            solved = self._structured_call(
                structure,
                lambda fast: fast.solve_disabled_many(
                    normalized, sinks, volts, check=check
                ),
                factorized,
            )
        else:
            solved = factorized()
        solutions = [
            self._package_solution(structure, dc, sinks) for dc in solved
        ]
        for indices, solution in zip(normalized, solutions):
            # The dead rout branches carry only O(eps) numerical residue.
            solution.source_currents_a[list(indices)] = 0.0
        return solutions

    def _normalize_disabled(self, disabled_sources) -> tuple[int, ...]:
        """Validate one disable scenario's source indices."""
        indices = check_index(
            "disabled_sources", disabled_sources, len(self._sources)
        )
        if indices.ndim != 1:
            raise ConfigError(
                "disabled_sources must be a 1-D list of source indices "
                f"per scenario, got {disabled_sources!r}"
            )
        disabled = tuple(indices.tolist())
        if len(set(disabled)) >= len(self._sources):
            raise ConfigError("cannot disable every source")
        return disabled

    def preload_failure_sweep(
        self,
        indices: "tuple[int, ...] | list[int] | range | None" = None,
    ) -> None:
        """Warm everything an N−1/N−k sweep needs in batched calls.

        Factorizes the full attached topology (if not already cached)
        and back-substitutes the influence columns for the given
        source indices (default: all) in one call, so each subsequent
        :meth:`solve_disabled` scenario pays only two
        back-substitutions.
        """
        structure, _, _ = self._solve_inputs()
        structure.solver.preload_source_influence(indices)

    def _solve_inputs(self) -> tuple[_GridStructure, np.ndarray, np.ndarray]:
        """Validate attachments and gather the per-scenario RHS data."""
        self._check_attached()
        structure = self._ensure_structure()
        sinks = self._sink_map.ravel()
        return structure, sinks, self._source_arrays()[1]

    def _package_solution(
        self,
        structure: _GridStructure,
        dc: DCSolution,
        sinks: np.ndarray,
    ) -> GridSolution:
        losses = dc.resistor_loss_array
        branch_currents = dc.resistor_current_array
        currents = branch_currents[structure.lateral_count :].copy()
        total_sink = float(sinks.sum())
        if abs(currents.sum() - total_sink) > 1e-6 * max(total_sink, 1.0):
            raise SolverError(
                "source currents do not sum to the load current: "
                f"{currents.sum():.6f} vs {total_sink:.6f}"
            )

        lateral = (
            losses[: structure.lateral_count].sum() * self.rail_pair_factor
        )
        source_loss = losses[structure.lateral_count :].sum()
        voltage_map = (
            dc.node_voltage_array[: self.nx * self.ny]
            .reshape(self.ny, self.nx)
            .copy()
        )
        return GridSolution(
            dc=dc,
            source_currents_a=currents,
            lateral_loss_w=float(lateral),
            source_loss_w=float(source_loss),
            voltage_map=voltage_map,
            grid_edge_currents_a=branch_currents[: structure.grid_edge_count],
        )


# -- grid-level AC ----------------------------------------------------------------


@dataclass(frozen=True)
class GridImpedanceMap:
    """Per-node die-seen impedance Z(f) over the mesh.

    Attributes:
        frequencies_hz: the sweep grid.
        z_ohm: complex self-impedance per node, shape
            ``(n_nodes, n_freqs)`` with node ``(ix, iy)`` in row
            ``iy * nx + ix``.
        nx, ny: mesh dimensions.
    """

    frequencies_hz: np.ndarray
    z_ohm: np.ndarray
    nx: int
    ny: int

    @property
    def impedance_ohm(self) -> np.ndarray:
        """|Z| per node, shape ``(n_nodes, n_freqs)``."""
        return np.abs(self.z_ohm)

    def node_profile(self, ix: int, iy: int) -> ImpedanceProfile:
        """The |Z(f)| profile seen at one mesh node."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ConfigError("node index outside the mesh")
        return ImpedanceProfile(
            frequencies_hz=self.frequencies_hz,
            impedance_ohm=np.abs(self.z_ohm[iy * self.nx + ix]),
        )

    def peak_map(self) -> np.ndarray:
        """Per-node worst |Z| over the sweep as an (ny, nx) array."""
        return (
            np.abs(self.z_ohm).max(axis=1).reshape(self.ny, self.nx)
        )

    @property
    def peak_impedance_ohm(self) -> float:
        """The worst |Z| over all nodes and frequencies."""
        return float(np.abs(self.z_ohm).max())

    @property
    def peak_frequency_hz(self) -> float:
        """Frequency of the overall worst |Z|."""
        return float(
            self.frequencies_hz[
                int(np.argmax(np.abs(self.z_ohm).max(axis=0)))
            ]
        )

    def worst_node(self) -> tuple[int, int]:
        """``(ix, iy)`` of the node with the largest peak |Z|."""
        flat = int(np.argmax(np.abs(self.z_ohm).max(axis=1)))
        return flat % self.nx, flat // self.nx

    def worst_profile(self) -> ImpedanceProfile:
        """The |Z(f)| profile of the worst node."""
        return self.node_profile(*self.worst_node())

    def meets_target(self, target_ohm: float) -> bool:
        """True if every node stays at or below the target everywhere."""
        if target_ohm <= 0:
            raise ConfigError("target impedance must be positive")
        return bool(
            np.all(np.abs(self.z_ohm) <= target_ohm * (1 + 1e-12))
        )

    def violating_node_fraction(self, target_ohm: float) -> float:
        """Fraction of mesh nodes whose peak |Z| exceeds the target.

        Uses the same rounding tolerance as :meth:`meets_target`, so a
        map that "meets target" always reports zero violating nodes.
        """
        if target_ohm <= 0:
            raise ConfigError("target impedance must be positive")
        peaks = np.abs(self.z_ohm).max(axis=1)
        violating = peaks > target_ohm * (1 + 1e-12)
        return float(np.count_nonzero(violating) / peaks.size)


@dataclass(frozen=True)
class GridACSweepSolution:
    """Driven phasor sweep of the mesh (sources live, sinks as AC loads).

    Attributes:
        sweep: the underlying node-voltage sweep (mesh nodes first in
            row order, then internal branch nodes).
        nx, ny: mesh dimensions.
    """

    sweep: ACSweepSolution
    nx: int
    ny: int

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.sweep.frequencies_hz

    @property
    def voltage_maps(self) -> np.ndarray:
        """Complex mesh node voltages, shape ``(n_freqs, ny, nx)``."""
        cells = self.nx * self.ny
        return self.sweep.voltage_matrix[:, :cells].reshape(
            -1, self.ny, self.nx
        )

    def magnitude_map(self, index: int) -> np.ndarray:
        """|V| over the mesh at sweep point ``index``."""
        return np.abs(self.voltage_maps[index])


@dataclass
class _ReducedACStructure:
    """Compile-once pattern of the reduced (node-only) AC system.

    Decap chains and source output branches are folded analytically
    into per-node shunt admittances and series edges into complex edge
    admittances, so the matrix is ``n_cells`` square at any frequency.
    """

    edge_r: np.ndarray  # per-edge series resistance (mesh + ring)
    edge_l: np.ndarray  # per-edge series inductance
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    entry_edge: np.ndarray  # edge index per off/diagonal edge entry
    entry_sign: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    csc_rows: np.ndarray
    csc_cols: np.ndarray
    indptr: np.ndarray


@dataclass
class _SpectralACStructure:
    """Eigenbasis of ``G x = λ D_α x`` for the fast impedance map.

    Valid when the mesh metal is purely resistive and the decap model
    is a positive per-node *density* of one unit cell: the system is
    ``A(ω) = G + y_u(ω) D_α + U Y(ω) Uᵀ`` with ``G`` constant, so one
    generalized eigendecomposition turns every frequency into diagonal
    updates plus a rank-s (source-branch) Woodbury correction.
    """

    lam: np.ndarray  # generalized eigenvalues (n,)
    q: np.ndarray  # eigenvectors, Qᵀ D_α Q = I
    q_sq: np.ndarray  # Q ∘ Q, for diag(M⁻¹) gathers
    p: np.ndarray  # Qᵀ U, shape (n, s)
    attach: np.ndarray  # source attach rows (s,)
    rout: np.ndarray  # per-source output resistance (s,)
    l_src: np.ndarray  # per-source series inductance (s,)
    unit_c: float
    unit_esr: float
    unit_esl: float


@dataclass
class _StructuredACStructure:
    """DCT eigenstructure of the uniform-density reduced AC system.

    Valid when the mesh metal is purely resistive and every node
    carries the *same* positive decap density: the reduced system is
    ``A(ω) = G_mesh + α·y_u(ω)·I + U Y(ω) Uᵀ`` with ``G_mesh`` the
    uniform mesh Laplacian, diagonal in the 2-D DCT-II basis.  Then
    ``diag(M⁻¹)`` is two small GEMMs over squared basis tables per
    frequency chunk, and the source/ring branches are a rank-k
    Woodbury correction whose influence columns come back through one
    batched inverse transform — no eigendecomposition, no LU, ever.
    """

    lam: np.ndarray  # mesh Laplacian modal eigenvalues, (cells,)
    tau: float  # zero-mode deflation shift folded into lam[0]
    bx_sq: np.ndarray  # squared DCT basis, (nx_modes, nx_nodes)
    by_sq: np.ndarray
    u_hat: np.ndarray  # DCT of the branch columns, (cells, k)
    alpha: float  # uniform decap density
    unit_c: float
    unit_esr: float
    unit_esl: float
    rout: np.ndarray
    l_src: np.ndarray
    ring_g: np.ndarray  # ring segment conductances, appended to k


class GridACPDN(MeshDesign):
    """Grid-level AC impedance analysis of the die/interposer mesh.

    The AC counterpart of :class:`GridPDN`: the same rectangular
    one-polarity mesh, extended with per-node decoupling capacitors
    (C + ESR + ESL), per-edge metal inductance, and VR output branches
    (Thevenin source + output resistance + bump/TSV inductance).  Two
    analysis surfaces:

    * :meth:`impedance_map` — the die-seen self-impedance Z(f) at
      *every* mesh node (sources zeroed, 1 A probe per node), the
      frequency-domain companion of the DC IR-drop map.
    * :meth:`solve` — the driven phasor sweep (sources live, sink map
      as AC load magnitudes), whose low-frequency limit converges to
      the :class:`GridPDN` DC solution.

    Everything is compiled once per topology and revalued per
    frequency: the driven path stamps straight into a
    :class:`~repro.pdn.ac.CompiledACNetlist` (array assembly, shared
    CSC pattern, batched solves), and the impedance map runs on a
    *reduced* node-only system — decap chains and source branches fold
    into per-node shunt admittances — solved either spectrally (one
    generalized eigendecomposition; per-frequency work is a few small
    GEMMs) or directly (batched dense / shared-pattern sparse solves).

    The constructor and design setters are
    :class:`~repro.pdn.mesh.MeshDesign`'s.  Unlike the DC grid,
    degenerate 1-D chains (``nx == 1`` or ``ny == 1``) are allowed:
    they are the lattice the analytic ladder model collapses onto,
    which the cross-validation tests exploit.
    """

    ALLOWS_CHAINS = True

    def _edge_arrays(self) -> tuple[np.ndarray, ...]:
        """All constant-topology edges: mesh x, mesh y, ring segments.

        Returns ``(a, b, r, l)`` — endpoint rows plus per-edge series
        resistance and inductance.
        """
        x_a, x_b, y_a, y_b = mesh_edge_rows(self.nx, self.ny)
        _, ring_a, ring_b = self._ring_segments()
        a = np.concatenate([x_a, y_a, ring_a])
        b = np.concatenate([x_b, y_b, ring_b])
        r = np.concatenate(
            [
                np.full(x_a.size, self.edge_resistance_x_ohm if x_a.size else 0.0),
                np.full(y_a.size, self.edge_resistance_y_ohm if y_a.size else 0.0),
                np.full(ring_a.size, self._ring_bus_ohm or 0.0),
            ]
        )
        l = np.concatenate(
            [
                np.full(x_a.size, self.edge_inductance_x_h),
                np.full(y_a.size, self.edge_inductance_y_h),
                np.zeros(ring_a.size),
            ]
        )
        return a, b, r, l

    # -- shunt admittances ------------------------------------------------------

    def _decap_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-node decap branch admittance, shape (n_freqs, cells).

        The series C + ESR + ESL chain folds exactly into
        ``y = 1 / (ESR + j(ω·ESL − 1/(ω·C)))``; nodes without decap
        contribute zero.
        """
        c, esr, esl = self._decap_arrays()
        live = c > 0
        y = np.zeros((omega.size, c.size), dtype=complex)
        if np.any(live):
            w = omega[:, None]
            reactance = w * esl[None, live] - 1.0 / (w * c[None, live])
            y[:, live] = 1.0 / (esr[None, live] + 1j * reactance)
        return y

    def _source_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-source zeroed-EMF branch admittance, (n_freqs, s)."""
        _, _, rout, l_src = self._source_arrays()
        return 1.0 / (rout[None, :] + 1j * omega[:, None] * l_src[None, :])

    # -- impedance map ----------------------------------------------------------

    def impedance_map(
        self, frequencies_hz: np.ndarray, method: str = "auto"
    ) -> GridImpedanceMap:
        """Die-seen self-impedance Z(f) at every mesh node.

        Sources are zeroed (their output branch stays in the metal)
        and each node is probed with 1 A, exactly the per-node version
        of :func:`repro.pdn.ac.impedance_at`.  ``method`` selects the
        engine: ``"structured"`` (uniform decap density, resistive
        mesh; DCT-diagonalized mesh Laplacian, O(n² log n) setup and a
        few GEMMs per frequency chunk), ``"spectral"`` (arbitrary
        positive density maps, resistive mesh; one dense
        eigendecomposition, then O(n·s) work per frequency),
        ``"direct"`` (fully general: batched dense solves up to the
        dense cell cutoff, shared-pattern sparse LU above), or
        ``"auto"`` to use the fastest engine the topology allows, in
        that order.

        Raises:
            ConfigError: no sources attached, bad frequencies, or an
                explicit method on an ineligible topology.
            SolverError: singular/resonant system at a sweep point.
        """
        freqs = check_frequencies(frequencies_hz)
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        engine = self.impedance_engine(method)
        omega = 2.0 * math.pi * freqs
        if engine == "structured":
            z = self._impedance_structured(omega)
        elif engine == "spectral":
            z = self._impedance_spectral(omega)
        else:
            z = self._impedance_direct(omega, freqs)
        if not np.all(np.isfinite(z)):
            bad = freqs[np.nonzero(~np.all(np.isfinite(z), axis=0))[0][0]]
            raise SolverError(
                f"grid impedance is singular or non-finite at {bad:.6g} Hz "
                "(resonant singularity or floating mesh)"
            )
        return GridImpedanceMap(
            frequencies_hz=freqs, z_ohm=z, nx=self.nx, ny=self.ny
        )

    def impedance_columns(
        self, frequency_hz: float, nodes
    ) -> np.ndarray:
        """Columns of the reduced inverse ``A(ω)⁻¹[:, nodes]``.

        The adjoint companion of :meth:`impedance_map`: at one
        frequency, solve the reduced (sources-zeroed) system for a
        batch of unit probes — one sparse factorization, one multi-RHS
        back-substitution.  Column ``j`` is the transfer impedance from
        every mesh node into ``nodes[j]`` (row order, ``iy·nx + ix``);
        its diagonal entry is exactly the self-impedance the map
        reports.  Because the reduced system is complex-symmetric,
        these columns are also the adjoint fields
        ``d Z_k / d y_shunt,i = −(A⁻¹ e_k)_i²`` that the placement
        optimizer turns into per-node decap sensitivities for *all*
        nodes at once.

        Returns a complex ``(cells, len(nodes))`` array.
        """
        freqs = check_frequencies(np.atleast_1d(np.asarray(
            frequency_hz, dtype=float
        )))
        if freqs.size != 1:
            raise ConfigError("impedance_columns takes a single frequency")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        cells = self.nx * self.ny
        rows = np.atleast_1d(check_index("nodes", nodes, cells))
        if rows.ndim != 1 or rows.size == 0:
            raise ConfigError("nodes must be a non-empty 1-D index list")
        structure = self._ensure_reduced()
        omega = 2.0 * math.pi * freqs
        data = self._reduced_csc_data(structure, omega)
        matrix = sp.csc_matrix(
            (data[0], structure.csc_rows, structure.indptr),
            shape=(cells, cells),
        )
        rhs = np.zeros((cells, rows.size), dtype=complex)
        rhs[rows, np.arange(rows.size)] = 1.0
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                columns = spla.splu(matrix).solve(rhs)
            except RuntimeError as exc:
                raise SolverError(
                    "grid impedance solve failed at "
                    f"{freqs[0]:.6g} Hz: {exc}"
                ) from exc
        if not np.all(np.isfinite(columns)):
            raise SolverError(
                f"grid impedance is singular at {freqs[0]:.6g} Hz "
                "(resonant singularity or floating mesh)"
            )
        return columns

    def impedance_engine(self, method: str = "auto") -> str:
        """The impedance-map engine ``method`` resolves to.

        Returns ``"structured"``, ``"spectral"``, ``"direct-dense"``,
        or ``"direct-sparse"`` — the regression surface the engine-
        selection tests assert against.  Raises
        :class:`~repro.errors.ConfigError` for an explicit method the
        current topology cannot run.
        """
        if method not in ("auto", "structured", "spectral", "direct"):
            raise ConfigError(f"unknown impedance-map method: {method!r}")
        if method == "structured" and not self._structured_eligible():
            raise ConfigError(
                "structured impedance map needs a uniform positive decap "
                "density and a purely resistive mesh"
            )
        if method == "spectral" and not self._spectral_eligible():
            raise ConfigError(
                "spectral impedance map needs a strictly positive decap "
                "density map and a purely resistive mesh"
            )
        if method == "structured" or (
            method == "auto" and self._structured_eligible()
        ):
            return "structured"
        if method == "spectral" or (
            method == "auto" and self._spectral_eligible()
        ):
            return "spectral"
        return f"direct-{grid_direct_mode(self.nx * self.ny)}"

    def _spectral_eligible(self) -> bool:
        return (
            self._decap is not None
            and self._decap[0] == "density"
            and bool(np.all(self._decap[1] > 0))
            and self.edge_inductance_x_h == 0.0
            and self.edge_inductance_y_h == 0.0
        )

    def _structured_eligible(self) -> bool:
        """Structured = spectral requirements plus a *uniform* density
        (one shunt admittance per node keeps M diagonal in the DCT
        basis)."""
        if not self._spectral_eligible():
            return False
        alpha = self._decap[1]
        return bool(np.all(alpha == alpha.flat[0]))

    def _ensure_spectral(self) -> _SpectralACStructure:
        return self._cached("spectral", self._build_spectral)

    def _build_spectral(self) -> _SpectralACStructure:
        cells = self.nx * self.ny
        a, b, r, _ = self._edge_arrays()
        rows, cols, vals = admittance_stamp_entries(a, b, 1.0 / r)
        g = np.zeros((cells, cells))
        np.add.at(g, (rows, cols), vals)
        _, alpha, c_u, esr_u, esl_u = self._decap
        alpha = alpha.ravel()
        # Symmetrized generalized eigenproblem G q = λ D_α q: scale by
        # D_α^(-1/2), take the ordinary symmetric eigendecomposition,
        # and unscale — Qᵀ D_α Q = I, Qᵀ G Q = Λ by construction.
        dinv = 1.0 / np.sqrt(alpha)
        lam, v = np.linalg.eigh(g * dinv[:, None] * dinv[None, :])
        q = dinv[:, None] * v
        attach, _, rout, l_src = self._source_arrays()
        return _SpectralACStructure(
            lam=lam,
            q=q,
            q_sq=q * q,
            p=q[attach, :].T.copy(),
            attach=attach,
            rout=rout,
            l_src=l_src,
            unit_c=c_u,
            unit_esr=esr_u,
            unit_esl=esl_u,
        )

    def _impedance_spectral(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) via the cached eigenbasis, shape (cells, n_freqs).

        ``A(ω) = M(ω) + U Y(ω) Uᵀ`` with ``M = G + y_u(ω) D_α``
        diagonal in the eigenbasis, so ``diag(M⁻¹)`` is one GEMM over
        the whole sweep and the source branches enter as a rank-s
        Sherman–Morrison–Woodbury correction whose capacitance matrix
        inverts per frequency at s×s cost.  The cached real eigenbasis
        multiplies the complex modal factors as real GEMMs over their
        stacked real and imaginary parts, so it is never converted to
        complex.
        """
        structure = self._ensure_spectral()
        reactance = omega * structure.unit_esl - 1.0 / (
            omega * structure.unit_c
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_u = 1.0 / (structure.unit_esr + 1j * reactance)
            w = 1.0 / (structure.lam[None, :] + y_u[:, None])  # (F, n)
        f_count, n = w.shape
        stacked = np.concatenate([w.real, w.imag]) @ structure.q_sq.T
        diag = stacked[:f_count] + 1j * stacked[f_count:]  # (F, cells)
        s_count = len(structure.rout)
        if s_count:
            # tmp = M⁻¹-weighted QᵀU per frequency, laid out (n, F, s)
            # so its complex view is one real (n, 2·F·s) operand.
            tmp = w.T[:, :, None] * structure.p[:, None, :]
            flat = tmp.view(float).reshape(n, -1)
            influence = (  # M⁻¹U, (F, cells, s)
                (structure.q @ flat).view(complex)
                .reshape(-1, f_count, s_count).transpose(1, 0, 2)
            )
            t = (  # UᵀM⁻¹U, (F, s, s)
                (structure.p.T @ flat).view(complex)
                .reshape(s_count, f_count, s_count).transpose(1, 0, 2)
            )
            y_branch_inv = (
                structure.rout[None, :]
                + 1j * omega[:, None] * structure.l_src[None, :]
            )
            capacitance = t + (
                y_branch_inv[:, :, None] * np.eye(s_count)[None, :, :]
            )
            try:
                with np.errstate(all="ignore"):
                    k = np.linalg.inv(capacitance)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"grid impedance source correction is singular: {exc}"
                ) from exc
            diag = diag - ((influence @ k) * influence).sum(axis=-1)
        return diag.T

    def _ensure_structured(self) -> _StructuredACStructure:
        return self._cached("structured", self._build_structured)

    def _build_structured(self) -> _StructuredACStructure:
        import scipy.fft as sfft

        nx, ny = self.nx, self.ny
        cells = nx * ny
        gx = 1.0 / self.edge_resistance_x_ohm if nx > 1 else 0.0
        gy = 1.0 / self.edge_resistance_y_ohm if ny > 1 else 0.0
        # Deflate the mesh zero mode: at low frequency 1/(α·y_u) dwarfs
        # every other modal weight and its near-exact cancellation by
        # the source correction destroys ~5 digits.  The operator sets
        # lam[0] to τ = gx + gy; the mode comes back as a −τ rank-one
        # branch in the Woodbury block, where the cancellation resolves
        # inside a full-precision dense solve (as on the DC fast path).
        op = FastPoissonOperator(nx, ny, gx, gy)
        lam = op.eigenvalues().ravel()
        attach, _, rout, l_src = self._source_arrays()
        _, ring_a, ring_b = self._ring_segments()
        u = branch_columns(cells, attach, ring_a, ring_b)
        k = u.shape[1]
        u_hat = sfft.dctn(
            u.T.reshape(k, ny, nx), type=2, axes=(1, 2), norm="ortho"
        ).reshape(k, cells).T.copy()
        _, alpha_map, c_u, esr_u, esl_u = self._decap
        return _StructuredACStructure(
            lam=lam,
            tau=op.deflation_tau,
            bx_sq=dct2_basis(nx) ** 2,
            by_sq=dct2_basis(ny) ** 2,
            u_hat=u_hat,
            alpha=float(alpha_map.flat[0]),
            unit_c=c_u,
            unit_esr=esr_u,
            unit_esl=esl_u,
            rout=rout,
            l_src=l_src,
            ring_g=np.full(ring_a.size, 1.0 / (self._ring_bus_ohm or 1.0)),
        )

    def _impedance_structured(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) via the DCT eigenstructure, shape (cells, F).

        ``M(ω) = G_mesh + α·y_u(ω)·I`` shares the mesh Laplacian's DCT
        eigenvectors at every frequency, so ``diag(M⁻¹)`` reduces to
        two GEMMs against squared basis tables, and the source/ring
        branches are a rank-k Woodbury correction whose per-frequency
        influence columns come back through one batched inverse DCT.
        Frequency-chunked to bound scratch memory, like the direct
        engine.
        """
        import scipy.fft as sfft

        structure = self._ensure_structured()
        nx, ny = self.nx, self.ny
        cells = nx * ny
        k = structure.u_hat.shape[1]
        reactance = omega * structure.unit_esl - 1.0 / (
            omega * structure.unit_c
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_u = 1.0 / (structure.unit_esr + 1j * reactance)
        y_src = 1.0 / (
            structure.rout[None, :]
            + 1j * omega[:, None] * structure.l_src[None, :]
        )
        z = np.empty((cells, omega.size), dtype=complex)
        chunk = max(1, _DENSE_BATCH_ENTRIES // (k * cells))
        for lo in range(0, omega.size, chunk):
            hi = min(lo + chunk, omega.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = 1.0 / (
                    structure.lam[None, :]
                    + structure.alpha * y_u[lo:hi, None]
                )  # (F, cells) modal weights
            diag = (
                structure.by_sq.T
                @ w.reshape(-1, ny, nx)
                @ structure.bx_sq
            ).reshape(-1, cells)
            fields = (
                w[:, None, :] * structure.u_hat.T[None, :, :]
            )  # (F, k, cells) modal influence, transform-ready layout
            influence = sfft.idctn(
                fields.reshape(-1, ny, nx),
                type=2,
                axes=(1, 2),
                norm="ortho",
                workers=-1,
            ).reshape(hi - lo, k, cells)
            t = fields @ structure.u_hat  # UᵀM⁻¹U, (F, k, k)
            y_branch = np.concatenate(
                [
                    np.full((hi - lo, 1), -structure.tau, complex),
                    y_src[lo:hi],
                    np.broadcast_to(
                        structure.ring_g, (hi - lo, len(structure.ring_g))
                    ),
                ],
                axis=1,
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                capacitance = t + (
                    (1.0 / y_branch)[:, :, None] * np.eye(k)[None]
                )
            try:
                with np.errstate(all="ignore"):
                    correction = np.linalg.inv(capacitance)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "grid impedance source correction is singular: "
                    f"{exc}"
                ) from exc
            diag = diag - np.einsum(
                "faj,fab,fbj->fj",
                influence,
                correction,
                influence,
                optimize=True,
            )
            z[:, lo:hi] = diag.T
        return z

    def _ensure_reduced(self) -> _ReducedACStructure:
        return self._cached("reduced", self._build_reduced)

    def _build_reduced(self) -> _ReducedACStructure:
        cells = self.nx * self.ny
        a, b, r, l = self._edge_arrays()
        rows, cols, edge, sign = _admittance_entry_map(a, b)
        diag = np.arange(cells, dtype=np.int64)
        all_rows = np.concatenate([rows, diag])
        all_cols = np.concatenate([cols, diag])
        order, starts, csc_rows, csc_cols, indptr = shared_csc_pattern(
            all_rows, all_cols, cells
        )
        return _ReducedACStructure(
            edge_r=r,
            edge_l=l,
            entry_rows=all_rows,
            entry_cols=all_cols,
            entry_edge=edge,
            entry_sign=sign,
            order=order,
            starts=starts,
            csc_rows=csc_rows,
            csc_cols=csc_cols,
            indptr=indptr,
        )

    def _reduced_csc_data(
        self, structure: _ReducedACStructure, omega: np.ndarray
    ) -> np.ndarray:
        """Reduced-system CSC values for a frequency chunk."""
        cells = self.nx * self.ny
        edge_y = 1.0 / (
            structure.edge_r[None, :]
            + 1j * omega[:, None] * structure.edge_l[None, :]
        )
        shunt = self._decap_admittance(omega)
        y_src = self._source_admittance(omega)
        attach = self._source_arrays()[0]
        np.add.at(shunt, (slice(None), attach), y_src)
        vals = np.concatenate(
            [
                structure.entry_sign[None, :]
                * edge_y[:, structure.entry_edge],
                shunt,
            ],
            axis=1,
        )
        return np.add.reduceat(
            vals[:, structure.order], structure.starts, axis=1
        )

    def _impedance_direct(
        self, omega: np.ndarray, freqs: np.ndarray
    ) -> np.ndarray:
        """diag(A⁻¹) by explicit per-frequency inversion of the
        reduced system: batched dense LAPACK up to the dense cutoff,
        shared-pattern sparse LU above it.  General (arbitrary decap
        maps, inductive mesh metal) but O(n³) per frequency."""
        structure = self._ensure_reduced()
        cells = self.nx * self.ny
        count = omega.size
        z = np.empty((cells, count), dtype=complex)
        identity = np.eye(cells, dtype=complex)
        # Known-solution probe (see repro.pdn.mna.singularity_probe):
        # the computed inverse must recover w from A @ w, so an
        # exactly singular sweep point that LU slid through on a
        # rounded pivot fails loudly.
        probe = singularity_probe(cells)
        probe_error = np.empty(count)
        # Full-inverse workload: the dense/sparse crossover sits far
        # below the single-RHS DENSE_SWEEP_CUTOFF (see ac.py).
        use_dense = grid_direct_mode(cells) == "dense"
        chunk = max(1, _DENSE_BATCH_ENTRIES // (cells * cells))
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            data = self._reduced_csc_data(structure, omega[lo:hi])
            if use_dense:
                flat = structure.csc_rows * cells + structure.csc_cols
                dense = np.zeros(
                    (hi - lo, cells * cells), dtype=complex
                )
                dense[:, flat] = data
                dense = dense.reshape(hi - lo, cells, cells)
                try:
                    with np.errstate(all="ignore"):
                        inverse = np.linalg.solve(dense, identity)
                except np.linalg.LinAlgError as exc:
                    raise SolverError(
                        f"grid impedance solve failed: {exc}"
                    ) from exc
                z[:, lo:hi] = np.diagonal(
                    inverse, axis1=1, axis2=2
                ).T
                with np.errstate(all="ignore"):
                    recovered = inverse @ (dense @ probe)[:, :, None]
                    probe_error[lo:hi] = np.abs(
                        recovered[:, :, 0] - probe
                    ).max(axis=1, initial=0.0)
            else:
                for k in range(lo, hi):
                    matrix = sp.csc_matrix(
                        (data[k - lo], structure.csc_rows, structure.indptr),
                        shape=(cells, cells),
                    )
                    with np.errstate(all="ignore"), warnings.catch_warnings():
                        warnings.simplefilter(
                            "ignore", spla.MatrixRankWarning
                        )
                        try:
                            solved = spla.splu(matrix).solve(identity)
                        except RuntimeError as exc:
                            raise SolverError(
                                "grid impedance solve failed at "
                                f"{freqs[k]:.6g} Hz: {exc}"
                            ) from exc
                    z[:, k] = np.diagonal(solved)
                    with np.errstate(all="ignore"):
                        probe_error[k] = float(
                            np.abs(
                                solved @ (matrix @ probe) - probe
                            ).max(initial=0.0)
                        )
        bad = ~(np.isfinite(probe_error) & (probe_error <= SINGULARITY_PROBE_TOL))
        if bad.any():
            raise SolverError(
                "grid impedance is singular at "
                f"{freqs[np.nonzero(bad)[0][0]]:.6g} Hz "
                "(resonant singularity or floating mesh)"
            )
        return z

    # -- driven sweep -----------------------------------------------------------

    def compile_ac(self) -> CompiledACNetlist:
        """The full driven mesh as a compiled AC netlist.

        Stamps the mesh edges (with internal nodes where the metal is
        inductive), every decap chain, the ring bus, the sink map as
        AC load magnitudes, and each source as an ideal EMF behind its
        output resistance and bump/TSV inductance — array assembly
        straight into :meth:`CompiledACNetlist.from_arrays`, no
        per-element Python objects.  Cached per topology key, sink
        map and source voltages.
        """
        self._check_attached()
        return self._cached(
            "driven",
            self._build_driven,
            self._sink_map.tobytes(),
            self._source_arrays()[1].tobytes(),
        )

    def _build_driven(self) -> CompiledACNetlist:
        nx, ny = self.nx, self.ny
        cells = nx * ny
        x_a, x_b, y_a, y_b = mesh_edge_rows(nx, ny)
        _, ring_a, ring_b = self._ring_segments()
        c_map, esr_map, esl_map = self._decap_arrays()
        has_c = c_map > 0
        has_r = has_c & (esr_map > 0)
        has_l = has_c & (esl_map > 0)
        first = has_c & (has_r | has_l)
        second = has_r & has_l

        nodes: list = [("g", ix, iy) for iy in range(ny) for ix in range(nx)]
        res_a: list[np.ndarray] = []
        res_b: list[np.ndarray] = []
        res_v: list[np.ndarray] = []
        ind_a: list[np.ndarray] = []
        ind_b: list[np.ndarray] = []
        ind_v: list[np.ndarray] = []

        def mesh_edges(
            a: np.ndarray, b: np.ndarray, r: float, l: float, axis: str
        ) -> None:
            """One mesh axis: plain resistors, or R + L via internal
            nodes when the metal is inductive."""
            if not a.size:
                return
            if l > 0:
                mid = len(nodes) + np.arange(a.size, dtype=np.int64)
                nodes.extend(
                    (f"edge.{axis}", int(k)) for k in range(a.size)
                )
                res_a.append(a)
                res_b.append(mid)
                res_v.append(np.full(a.size, r))
                ind_a.append(mid)
                ind_b.append(b)
                ind_v.append(np.full(a.size, l))
            else:
                res_a.append(a)
                res_b.append(b)
                res_v.append(np.full(a.size, r))

        mesh_edges(
            x_a,
            x_b,
            self.edge_resistance_x_ohm if x_a.size else 0.0,
            self.edge_inductance_x_h,
            "x",
        )
        mesh_edges(
            y_a,
            y_b,
            self.edge_resistance_y_ohm if y_a.size else 0.0,
            self.edge_inductance_y_h,
            "y",
        )
        if ring_a.size:
            res_a.append(ring_a)
            res_b.append(ring_b)
            res_v.append(np.full(ring_a.size, self._ring_bus_ohm))

        # Decap chains: node —C→ [first] —ESR→ [second] —ESL→ ground,
        # with stages collapsing away wherever ESR/ESL are zero.
        mesh_rows = np.arange(cells, dtype=np.int64)
        first_row = np.full(cells, GROUND_INDEX, dtype=np.int64)
        first_row[first] = len(nodes) + np.arange(int(first.sum()))
        nodes.extend(("decap", int(k), "a") for k in np.nonzero(first)[0])
        second_row = np.full(cells, GROUND_INDEX, dtype=np.int64)
        second_row[second] = len(nodes) + np.arange(int(second.sum()))
        nodes.extend(("decap", int(k), "b") for k in np.nonzero(second)[0])

        cap_a = mesh_rows[has_c]
        cap_b = first_row[has_c]  # GROUND_INDEX where the chain is bare C
        cap_v = c_map[has_c]
        if np.any(has_r):
            res_a.append(first_row[has_r])
            res_b.append(np.where(has_l, second_row, GROUND_INDEX)[has_r])
            res_v.append(esr_map[has_r])
        if np.any(has_l):
            esl_start = np.where(has_r, second_row, first_row)
            ind_a.append(esl_start[has_l])
            ind_b.append(np.full(int(has_l.sum()), GROUND_INDEX, np.int64))
            ind_v.append(esl_map[has_l])

        # Source branches: emf —rout→ [mid —L→] attach node.
        vs_plus = []
        vs_volt = []
        for name, ix, iy, voltage, r_out, l_src in self._sources:
            attach = iy * nx + ix
            emf = len(nodes)
            nodes.append(("src", name, "emf"))
            if l_src > 0:
                mid = len(nodes)
                nodes.append(("src", name, "mid"))
                res_a.append(np.array([emf], dtype=np.int64))
                res_b.append(np.array([mid], dtype=np.int64))
                res_v.append(np.array([r_out]))
                ind_a.append(np.array([mid], dtype=np.int64))
                ind_b.append(np.array([attach], dtype=np.int64))
                ind_v.append(np.array([l_src]))
            else:
                res_a.append(np.array([emf], dtype=np.int64))
                res_b.append(np.array([attach], dtype=np.int64))
                res_v.append(np.array([r_out]))
            vs_plus.append(emf)
            vs_volt.append(voltage)

        def cat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        return CompiledACNetlist.from_arrays(
            nodes=tuple(nodes),
            res_a=cat(res_a, np.int64),
            res_b=cat(res_b, np.int64),
            res_ohm=cat(res_v, float),
            ind_a=cat(ind_a, np.int64),
            ind_b=cat(ind_b, np.int64),
            ind_h=cat(ind_v, float),
            cap_a=cap_a,
            cap_b=cap_b,
            cap_f=cap_v,
            vs_plus=np.array(vs_plus, dtype=np.int64),
            vs_minus=np.full(len(vs_plus), GROUND_INDEX, dtype=np.int64),
            vs_volt=np.array(vs_volt),
            cs_from=mesh_rows,
            cs_to=np.full(cells, GROUND_INDEX, dtype=np.int64),
            cs_amp=self._sink_map.ravel().copy(),
        )

    def solve(self, frequencies_hz: np.ndarray) -> GridACSweepSolution:
        """Driven phasor sweep: sources at their EMFs, sinks as AC
        load magnitudes (phase 0).

        As the frequency approaches zero the decaps open and the
        series inductances short, so the voltage maps converge to the
        :class:`GridPDN` DC IR-drop solution of the same mesh — the
        regression the grid tests pin down.
        """
        freqs = check_frequencies(frequencies_hz)
        return GridACSweepSolution(
            sweep=self.compile_ac().solve(freqs), nx=self.nx, ny=self.ny
        )


def _admittance_entry_map(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO positions of two-terminal admittance stamps, value-free.

    The per-entry layout of
    :func:`repro.pdn.network.admittance_stamp_entries` with the values
    replaced by ``(element index, sign)`` pairs, so frequency-varying
    element admittances can be scattered onto a fixed pattern with one
    fancy-index per sweep chunk.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    index = np.arange(len(a))
    in_a = a != GROUND_INDEX
    in_b = b != GROUND_INDEX
    in_ab = in_a & in_b
    rows = np.concatenate([a[in_a], b[in_b], a[in_ab], b[in_ab]])
    cols = np.concatenate([a[in_a], b[in_b], b[in_ab], a[in_ab]])
    edge = np.concatenate([index[in_a], index[in_b], index[in_ab], index[in_ab]])
    sign = np.concatenate(
        [
            np.ones(int(in_a.sum())),
            np.ones(int(in_b.sum())),
            -np.ones(int(in_ab.sum())),
            -np.ones(int(in_ab.sum())),
        ]
    )
    return rows, cols, edge, sign
