"""Factor-once grid transient engine (mesh load-step droop).

The lumped :class:`~repro.pdn.transient.PDNTransient` ladder shows the
droop *waveform*; this module shows where on the die it lands.  The
mesh of :class:`~repro.pdn.grid.GridPDN` — per-node decap maps and VR
output branches as in :class:`~repro.pdn.grid.GridACPDN` — is
discretized in time with the trapezoidal (Tustin) rule: every reactive
branch collapses into its companion model (a conductance plus a
history current), so each time step is one linear solve

    ``A v₁ = b(t₁, history)``  with  ``A = G + (2/Δt)·C_eff``

where ``A`` depends only on the topology and the time step.  That
matrix is factored **once** per ``(topology, Δt)`` through the
process-wide content-hashed :class:`~repro.parallel.cache.FactorizationCache`
(salted with the ``(Δt, C_eff)`` stamp so a cached LU is never reused
across different time steps) and every subsequent step is a single
back-substitution.  A batch of T workload traces advances through one
multi-RHS back-substitution per step (`solve_many` shape), which is
where ensemble sweeps get their throughput.

Companion models (series branch, node → ground through ESR + L + C;
``h = Δt``, ``w = 2L/h``, ``hc = h/(2C)``, ``Z = ESR + w + hc``):

* trapezoidal step: ``i₁ = (v₁ + (w − hc)·i₀ + v_L₀ − v_c₀)/Z`` with
  state updates ``v_c₁ = v_c₀ + hc·(i₁ + i₀)`` and
  ``v_L₁ = w·(i₁ − i₀) − v_L₀``;
* the first interval runs **two backward-Euler half-steps** instead:
  at ``δ = h/2`` the BE companion impedance is ``ESR + 2L/h + h/(2C)``
  — the *same* ``Z`` — so the startup shares the factorization while
  suppressing the O(h) trapezoidal glitch a load discontinuity at
  t = 0⁺ would otherwise inject (the algebraic branch states jump at
  the step; BE re-derives them implicitly).  BE variants:
  ``i₁ = (v₁ + w·i₀ − v_c₀)/Z``, ``v_c₁ = v_c₀ + hc·i₁``,
  ``v_L₁ = w·(i₁ − i₀)``.

VR branches (EMF ``V`` behind ``r_out + L_src``) and inductive mesh
edges follow the same pattern with the capacitor terms dropped.  Both
schemes are exactly DC-consistent: a constant load holds the mesh at
its DC operating point to solver precision.

Two engines, mirroring :class:`~repro.pdn.grid.GridPDN`:

* ``factorized`` — the companion matrix as a reduced node-only
  :class:`~repro.pdn.network.CompiledNetlist` through the shared
  sparse-LU cache;
* ``structured`` — the companion and DC-init stamps as two
  :class:`~repro.pdn.fast_poisson.StructuredGridPDN` solves, with the
  decap companion conductances as the shunt diagonal: its most common
  value shifts the DCT-II operator and everything irregular (decap
  non-uniformity, VR branches, ring segments) is a rank-s Woodbury
  correction, so large meshes step in O(n² log n) without ever
  forming the LU.  ``engine="auto"``
  selects by mesh size and falls back on
  :class:`~repro.pdn.fast_poisson.StructuredSolveError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .fast_poisson import StructuredGridPDN, StructuredSolveError
from .grid import GridPDN
from .mesh import (
    MeshDesign,
    check_engine,
    check_index,
    check_real,
    mesh_edge_rows,
    resolve_engine,
)
from .network import GROUND_INDEX, CompiledNetlist
from .transient import droop_and_settle

#: Largest load waveform :meth:`GridTransientPDN.simulate_step` builds
#: (its (steps + 1, cells) float64 array); longer requests are refused.
MAX_STEP_WAVEFORM_BYTES = 1 << 30


@dataclass(frozen=True)
class GridTransientResult:
    """One trace's spatio-temporal droop summary.

    Full per-node waveforms are never materialized (a 48×48 mesh ×
    1000 steps × 16 traces would be hundreds of MB); the stepping loop
    streams running per-node minima and the per-sample worst-node
    trace, plus full waveforms at explicitly requested probe nodes.

    Attributes:
        time_s: sample times, ``steps + 1`` entries (t = 0 is the
            pre-step DC operating point).
        v_pre_map: (ny, nx) initial DC node-voltage map.
        v_min_map: (ny, nx) per-node minimum voltage over the trace.
        v_final_map: (ny, nx) settle reference map — the post-step DC
            solution for :meth:`GridTransientPDN.simulate_step`, the
            last sample otherwise.
        min_voltage_trace_v: worst-node voltage at every sample.
        probe_rows: flattened mesh rows of the requested probes.
        probe_voltages_v: (samples, probes) probe waveforms.
        droop_v: worst per-node droop, ``droop_map.max()``.
        settle_time_s: first time after which the worst-node trace
            stays inside the settle band around the final value.
        engine: which engine produced the trace.
    """

    time_s: np.ndarray
    v_pre_map: np.ndarray
    v_min_map: np.ndarray
    v_final_map: np.ndarray
    min_voltage_trace_v: np.ndarray
    probe_rows: tuple[int, ...]
    probe_voltages_v: np.ndarray
    droop_v: float
    settle_time_s: float
    engine: str

    @property
    def droop_map(self) -> np.ndarray:
        """(ny, nx) worst instantaneous droop below the pre-step DC."""
        return np.clip(self.v_pre_map - self.v_min_map, 0.0, None)

    @property
    def worst_droop_v(self) -> float:
        return float(self.droop_map.max())

    @property
    def worst_node(self) -> tuple[int, int]:
        """(ix, iy) of the worst-droop mesh node."""
        iy, ix = np.unravel_index(
            int(np.argmax(self.droop_map)), self.v_pre_map.shape
        )
        return int(ix), int(iy)


class _TransientStructure:
    """Everything assembled once per (topology, Δt).

    Holds the trapezoidal companion constants, the compiled reduced
    netlists (transient stamp and DC-init stamp), and — lazily — the
    two engines for each.  The transient LU is keyed in the shared
    factorization cache with a ``(Δt, C_eff)`` salt.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        dt_s: float,
        r_x: float | None,
        r_y: float | None,
        l_x: float,
        l_y: float,
        ring_a: np.ndarray,
        ring_b: np.ndarray,
        ring_ohm: float | None,
        dec_c: np.ndarray,
        dec_esr: np.ndarray,
        dec_esl: np.ndarray,
        attach: np.ndarray,
        rout: np.ndarray,
        l_src: np.ndarray,
    ) -> None:
        cells = nx * ny
        h = dt_s
        self.nx, self.ny, self.cells, self.dt_s = nx, ny, cells, h
        x_a, x_b, y_a, y_b = mesh_edge_rows(nx, ny)
        self.x_a, self.x_b, self.y_a, self.y_b = x_a, x_b, y_a, y_b
        self.ring_a, self.ring_b = ring_a, ring_b
        self.ring_ohm = ring_ohm

        # Edge companions (series R + L): g = 1/(r + 2L/h).
        self.w_x = 2.0 * l_x / h
        self.w_y = 2.0 * l_y / h
        self.g_x = 1.0 / (r_x + self.w_x) if r_x is not None else 0.0
        self.g_y = 1.0 / (r_y + self.w_y) if r_y is not None else 0.0
        self.g_x_dc = 1.0 / r_x if r_x is not None else 0.0
        self.g_y_dc = 1.0 / r_y if r_y is not None else 0.0
        self.g_ring = (
            np.full(ring_a.size, 1.0 / ring_ohm)
            if ring_ohm is not None
            else np.empty(0)
        )

        # Decap companions, restricted to live (C > 0) nodes.
        live = dec_c > 0
        self.dec_rows = np.nonzero(live)[0].astype(np.int64)
        c, esr, esl = dec_c[live], dec_esr[live], dec_esl[live]
        self.w_b = 2.0 * esl / h
        self.hc_b = h / (2.0 * c)
        z_b = esr + self.w_b + self.hc_b
        self.g_b = 1.0 / z_b
        self.g_node = np.zeros(cells)
        self.g_node[self.dec_rows] = self.g_b

        # VR output companions.
        self.attach = attach
        self.w_s = 2.0 * l_src / h
        self.g_s = 1.0 / (rout + self.w_s)
        self.g_dc = 1.0 / rout

        # Startup scheme selection.  The t = 0+ load discontinuity
        # excites every branch mode; two damped backward-Euler
        # half-steps (sharing the trapezoidal matrix) suppress the
        # ringing that trapezoidal integration sustains on stiff
        # modes, but carry O(h^2) local error.  When every branch
        # decay rate is well resolved (h * rate <= 1/2) no damping is
        # needed, and the exact-jump startup below (trapezoidal from
        # the t = 0+ right limits) tracks the state-space oracle to
        # ~1e-8.  Undamped decaps (ESR = 0) hide their true rate
        # behind the mesh Thevenin resistance, so they always take
        # the damped kick.
        rate = 0.0
        if l_x > 0 and r_x is not None:
            rate = max(rate, r_x / l_x)
        if l_y > 0 and r_y is not None:
            rate = max(rate, r_y / l_y)
        live_l = l_src > 0
        if np.any(live_l):
            rate = max(rate, float((rout[live_l] / l_src[live_l]).max()))
        if c.size:
            if np.any(esr <= 0):
                rate = np.inf
            else:
                rate = max(rate, float((1.0 / (esr * c)).max()))
                damped = esl > 0
                if np.any(damped):
                    rate = max(
                        rate, float((esr[damped] / esl[damped]).max())
                    )
        self.smooth_startup = bool(h * rate <= 0.5)

        def shunt(rows: np.ndarray) -> np.ndarray:
            return np.full(rows.size, GROUND_INDEX, dtype=np.int64)

        def compile_reduced(
            extra_rows: np.ndarray, extra_ohm: np.ndarray, gx: float, gy: float
        ) -> CompiledNetlist:
            res_a = np.concatenate([x_a, y_a, ring_a, extra_rows])
            res_b = np.concatenate(
                [x_b, y_b, ring_b, shunt(extra_rows)]
            )
            res_ohm = np.concatenate(
                [
                    np.full(x_a.size, 1.0 / gx if x_a.size else 1.0),
                    np.full(y_a.size, 1.0 / gy if y_a.size else 1.0),
                    np.full(ring_a.size, ring_ohm or 1.0),
                    extra_ohm,
                ]
            )
            return CompiledNetlist(
                nodes=lambda: tuple(f"n{i}" for i in range(cells)),
                n_nodes=cells,
                res_a=res_a,
                res_b=res_b,
                res_ohm=res_ohm,
                res_names=lambda: tuple(
                    f"gt.r{i}" for i in range(res_ohm.size)
                ),
            )

        # Transient stamp: mesh + ring + decap shunts + VR shunts.
        self.compiled = compile_reduced(
            np.concatenate([self.dec_rows, attach]),
            np.concatenate([z_b, 1.0 / self.g_s]),
            self.g_x,
            self.g_y,
        )
        # DC-init stamp: mesh + ring + VR shunts only (capacitors open).
        self.dc_compiled = compile_reduced(
            attach, rout, self.g_x_dc, self.g_y_dc
        )

        # t = 0+ jump stamp.  Inductor currents and capacitor voltages
        # are continuous across the load discontinuity, but the node
        # voltages are algebraic and jump with it; their right limits
        # solve the frozen-inductor resistive network (L branches =
        # current sources, decap branches = ESR in series with the
        # held capacitor voltage).  Starting trapezoidal integration
        # from these right-limit values makes the startup O(h^3),
        # where the damped backward-Euler kick is only O(h^2).  Built
        # only when provably nonsingular: a resistive shunt at every
        # node (full decap coverage, ESL = 0, ESR > 0) on a smooth
        # (non-stiff) structure.
        self.rout = rout
        self.exact_jump = (
            self.smooth_startup
            and self.dec_rows.size == cells
            and not np.any(esl > 0.0)
        )
        self.jump_compiled: CompiledNetlist | None = None
        if self.exact_jump:
            self.jump_g_dec = np.zeros(cells)
            self.jump_g_dec[self.dec_rows] = 1.0 / esr
            j_a = [self.dec_rows]
            j_b = [shunt(self.dec_rows)]
            j_ohm = [esr]
            self.jump_x_frozen = l_x > 0
            if not self.jump_x_frozen and r_x is not None and x_a.size:
                j_a.append(x_a)
                j_b.append(x_b)
                j_ohm.append(np.full(x_a.size, r_x))
            self.jump_y_frozen = l_y > 0
            if not self.jump_y_frozen and r_y is not None and y_a.size:
                j_a.append(y_a)
                j_b.append(y_b)
                j_ohm.append(np.full(y_a.size, r_y))
            if ring_ohm is not None and ring_a.size:
                j_a.append(ring_a)
                j_b.append(ring_b)
                j_ohm.append(np.full(ring_a.size, ring_ohm))
            self.jump_src_frozen = l_src > 0
            live = ~self.jump_src_frozen
            if np.any(live):
                j_a.append(attach[live])
                j_b.append(shunt(attach[live]))
                j_ohm.append(rout[live])
            j_res_a = np.concatenate(j_a)
            j_res_b = np.concatenate(j_b)
            j_res_ohm = np.concatenate(j_ohm)
            self.jump_compiled = CompiledNetlist(
                nodes=lambda: tuple(f"n{i}" for i in range(cells)),
                n_nodes=cells,
                res_a=j_res_a,
                res_b=j_res_b,
                res_ohm=j_res_ohm,
                res_names=lambda: tuple(
                    f"gt.j{i}" for i in range(j_res_ohm.size)
                ),
            )
        # The (Δt, C_eff) salt: the companion resistances already
        # encode Δt, but the salt guarantees distinct time steps never
        # share a cache key even on value coincidences.
        self.salt = struct.pack("<d", h) + self.g_node.tobytes()

        self._solver = None
        self._dc_solver = None
        self._jump_solver = None
        self._fast: StructuredGridPDN | None = None
        self._dc_fast: StructuredGridPDN | None = None

    # -- factorized engine -------------------------------------------------------

    def solver(self):
        if self._solver is None:
            # Lazy import: the parallel layer sits above pdn.
            from ..parallel.cache import get_factorized

            self._solver = get_factorized(self.compiled, extra=self.salt)
        return self._solver

    def dc_solver(self):
        if self._dc_solver is None:
            from ..parallel.cache import get_factorized

            self._dc_solver = get_factorized(self.dc_compiled)
        return self._dc_solver

    def jump_solver(self):
        """Cached factorization of the t = 0+ frozen-inductor stamp.

        Shared by both engines — one small solve per simulate call, so
        a structured variant would buy nothing.
        """
        if self._jump_solver is None:
            from ..parallel.cache import get_factorized

            self._jump_solver = get_factorized(self.jump_compiled)
        return self._jump_solver

    # -- structured engine -------------------------------------------------------

    def _structured(
        self,
        compiled: CompiledNetlist,
        g_x: float,
        g_y: float,
        g_src: np.ndarray,
        g_node: np.ndarray,
    ) -> StructuredGridPDN:
        return StructuredGridPDN(
            compiled=compiled,
            nx=self.nx,
            ny=self.ny,
            edge_conductance_x=g_x,
            edge_conductance_y=g_y,
            attach_rows=self.attach,
            source_conductance=g_src,
            shunt_conductance=g_node,
            ring_a=self.ring_a,
            ring_b=self.ring_b,
            ring_conductance=self.g_ring,
        )

    def fast(self) -> StructuredGridPDN:
        """The structured companion solve (decap shunts on the
        diagonal)."""
        if self._fast is None:
            self._fast = self._structured(
                self.compiled, self.g_x, self.g_y, self.g_s, self.g_node
            )
        return self._fast

    def dc_fast(self) -> StructuredGridPDN:
        """The structured DC-init solve (capacitors open)."""
        if self._dc_fast is None:
            self._dc_fast = self._structured(
                self.dc_compiled,
                self.g_x_dc,
                self.g_y_dc,
                self.g_dc,
                np.zeros(self.cells),
            )
        return self._dc_fast


class GridTransientPDN(MeshDesign):
    """Time-domain load-step analysis on the die/interposer mesh.

    The transient counterpart of :class:`~repro.pdn.grid.GridACPDN`:
    the same rectangular one-polarity mesh with per-node decap maps
    (C + ESR + ESL), optional per-edge metal inductance, and VR output
    branches (EMF + r_out + bump/TSV inductance), driven by arbitrary
    per-node sink-current waveforms.  Degenerate 1-D chains
    (``nx == 1`` or ``ny == 1``) are allowed — they are the lattice on
    which the lumped :class:`~repro.pdn.transient.PDNTransient`
    matrix-exponential oracle pins this engine.

    Three analysis surfaces:

    * :meth:`simulate` — one per-node waveform, one back-substitution
      per step after the single factorization;
    * :meth:`simulate_many` — T traces advanced together through
      multi-RHS back-substitutions;
    * :meth:`simulate_step` — the classic load step, scaled over the
      attached sink map, with a DC-exact settle reference.

    The constructor and design setters are
    :class:`~repro.pdn.mesh.MeshDesign`'s, plus ``engine`` (as for
    :class:`~repro.pdn.grid.GridPDN`).
    """

    ALLOWS_CHAINS = True

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        edge_inductance_x_h: float = 0.0,
        edge_inductance_y_h: float = 0.0,
        engine: str = "auto",
    ) -> None:
        super().__init__(
            width_m,
            height_m,
            sheet_ohm_sq,
            nx,
            ny,
            edge_inductance_x_h,
            edge_inductance_y_h,
        )
        self.engine = check_engine(engine)

    @classmethod
    def from_grid(
        cls,
        grid: GridPDN,
        source_inductance_h: float = 0.0,
        engine: str = "auto",
    ) -> "GridTransientPDN":
        """Mirror a DC grid (:meth:`MeshDesign.from_grid`) for the given
        solve ``engine``."""
        pdn = super().from_grid(grid, source_inductance_h)
        pdn.engine = check_engine(engine)
        return pdn

    # -- structure cache --------------------------------------------------------

    def _structure(self, dt_s: float) -> _TransientStructure:
        """The companion-model structure for this topology and Δt."""
        # One Δt-keyed table per topology key: a topology edit retires
        # the structures of every time step at once.
        by_dt = self._cached("transient", dict)
        if dt_s not in by_dt:
            by_dt[dt_s] = self._build_structure(dt_s)
        return by_dt[dt_s]

    def _build_structure(self, dt_s: float) -> _TransientStructure:
        _, ring_a, ring_b = self._ring_segments()
        attach, _, rout, l_src = self._source_arrays()
        return _TransientStructure(
            self.nx,
            self.ny,
            dt_s,
            self.edge_resistance_x_ohm if self.nx > 1 else None,
            self.edge_resistance_y_ohm if self.ny > 1 else None,
            self.edge_inductance_x_h,
            self.edge_inductance_y_h,
            ring_a,
            ring_b,
            self._ring_bus_ohm,
            *self._decap_arrays(),
            attach,
            rout,
            l_src,
        )

    # -- simulation -------------------------------------------------------------

    def _resolve_engine(self) -> str:
        return resolve_engine(self.engine, self.nx * self.ny)

    def _probe_rows(self, probe_nodes) -> tuple[int, ...]:
        """Flattened mesh rows of ``probe_nodes`` entries: a row index
        or an ``(ix, iy)`` pair, each coordinate checked on its own
        axis."""
        rows: list[int] = []
        for probe in probe_nodes:
            if np.ndim(probe) == 0:
                row = int(check_index("probe_nodes", probe, self.nx * self.ny))
            elif np.shape(probe) == (2,):
                ix = int(check_index("probe_nodes", probe[0], self.nx))
                iy = int(check_index("probe_nodes", probe[1], self.ny))
                row = iy * self.nx + ix
            else:
                raise ConfigError(
                    "probe_nodes entries must be a row index or an "
                    f"(ix, iy) pair, got {probe!r}"
                )
            rows.append(row)
        return tuple(rows)

    def _normalize_waveforms(self, waveforms_a) -> np.ndarray:
        """Coerce to (T, S, cells); accepts (S, cells), (S, ny, nx),
        (T, S, cells), (T, S, ny, nx), or a sequence of traces."""
        cells = self.nx * self.ny
        arr = np.asarray(waveforms_a, dtype=float)
        if arr.ndim == 2 and arr.shape[1] == cells:
            arr = arr[None]
        elif arr.ndim == 3 and arr.shape[1:] == (self.ny, self.nx):
            arr = arr.reshape(1, arr.shape[0], cells)
        elif arr.ndim == 3 and arr.shape[2] == cells:
            pass
        elif arr.ndim == 4 and arr.shape[2:] == (self.ny, self.nx):
            arr = arr.reshape(arr.shape[0], arr.shape[1], cells)
        else:
            raise ConfigError(
                "waveforms must be (steps, cells)/(steps, ny, nx) per "
                f"trace with cells={cells}; got shape {arr.shape}"
            )
        if arr.shape[1] < 2:
            raise ConfigError("waveforms need at least two samples")
        # NaN fails the comparison and +inf the sum: two cheap passes
        # over what can be a very large array.
        if not (np.all(arr >= 0) and np.isfinite(arr.sum())):
            raise ConfigError(
                "sink-current waveforms must be finite and non-negative"
            )
        return np.ascontiguousarray(arr)

    def simulate(
        self,
        waveform_a: np.ndarray,
        dt_s: float,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> GridTransientResult:
        """Step one per-node sink-current waveform.

        ``waveform_a`` is (steps + 1, cells) or (steps + 1, ny, nx):
        sample 0 sets the pre-trace DC operating point and sample k is
        the load held over ``(t_{k-1}, t_k]`` (a left-open staircase,
        so a step at t = 0⁺ is simply a change from sample 0 to
        sample 1).
        """
        return self.simulate_many(
            self._normalize_waveforms(waveform_a),
            dt_s,
            probe_nodes=probe_nodes,
            settle_band_v=settle_band_v,
        )[0]

    def simulate_many(
        self,
        waveforms_a,
        dt_s: float,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> list[GridTransientResult]:
        """Advance T traces together: per step, one multi-RHS
        back-substitution (or batched transform pair) covers the whole
        ensemble."""
        waves = self._normalize_waveforms(waveforms_a)
        return self._simulate_batch(
            waves, dt_s, self._probe_rows(probe_nodes), settle_band_v, None
        )

    def simulate_step(
        self,
        i_before_a: float,
        i_after_a: float,
        duration_s: float = 20e-6,
        dt_s: float = 2e-9,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> GridTransientResult:
        """Load-current step over the attached sink map at t = 0.

        The spatial profile comes from :meth:`set_sinks` /
        :meth:`set_sink_array`; the settle reference is the *exact*
        post-step DC solution (one extra solve), matching
        :meth:`PDNTransient.simulate_step` semantics.
        """
        duration_s = check_real("duration_s", duration_s, 0.0, strict=True)
        dt_s = check_real("dt_s", dt_s, 0.0, strict=True)
        if duration_s < 10 * dt_s:
            raise ConfigError("duration must cover at least 10 steps")
        i_before_a = check_real("i_before_a", i_before_a, 0.0)
        i_after_a = check_real("i_after_a", i_after_a, 0.0)
        if self._sink_map is None:
            raise ConfigError(
                "attach a sink map first (set_sinks/set_sink_array)"
            )
        profile = self._sink_map.ravel()
        total = profile.sum()
        if total <= 0:
            raise ConfigError("sink map carries no current")
        profile = profile / total
        steps = int(round(duration_s / dt_s))
        nbytes = (steps + 1) * profile.size * 8
        if nbytes > MAX_STEP_WAVEFORM_BYTES:
            raise ConfigError(
                f"duration_s / dt_s gives {steps} steps on {profile.size} "
                f"cells: a {nbytes / 2**30:.1f} GiB load waveform, over "
                f"the {MAX_STEP_WAVEFORM_BYTES / 2**30:g} GiB ceiling"
            )
        waves = np.empty((1, steps + 1, profile.size))
        waves[0, 0] = i_before_a * profile
        waves[0, 1:] = i_after_a * profile
        return self._simulate_batch(
            waves,
            dt_s,
            self._probe_rows(probe_nodes),
            settle_band_v,
            (i_after_a * profile)[:, None],
        )[0]

    # -- the stepping core ------------------------------------------------------

    def _simulate_batch(
        self,
        waves: np.ndarray,
        dt_s: float,
        probe_rows: tuple[int, ...],
        settle_band_v: float | None,
        final_load: np.ndarray | None,
    ) -> list[GridTransientResult]:
        dt_s = check_real("dt_s", dt_s, 0.0, strict=True)
        if not self._sources:
            raise ConfigError("attach at least one source first")
        structure = self._structure(dt_s)
        # Source voltages are right-hand-side data, read per run.
        volt = self._source_arrays()[1]
        mode = self._resolve_engine()
        if mode == "structured":
            try:
                return self._run(
                    structure, volt, waves, probe_rows, settle_band_v,
                    final_load, "structured",
                )
            except StructuredSolveError:
                if self.engine == "structured":
                    raise
        return self._run(
            structure, volt, waves, probe_rows, settle_band_v,
            final_load, "factorized",
        )

    def _run(
        self,
        st: _TransientStructure,
        volt: np.ndarray,
        waves: np.ndarray,
        probe_rows: tuple[int, ...],
        settle_band_v: float | None,
        final_load: np.ndarray | None,
        mode: str,
    ) -> list[GridTransientResult]:
        # The step loop works in ROW layout — (traces, cells),
        # C-contiguous — so each trace's field is a contiguous
        # (ny, nx) block: the structured solve views it with zero
        # transpose copies, and edge scatters are stencil slices.
        n_traces, samples, cells = waves.shape
        if mode == "structured":
            fast = st.fast()
            dc_fast = st.dc_fast()
            live = np.empty(0, dtype=np.int64)

            # The private solve, not the traced solve_reduced: one call
            # per time step.
            def solve(b: np.ndarray) -> np.ndarray:
                return np.ascontiguousarray(fast._solve(b.T, live).T)

            def dc_solve_rows(b: np.ndarray) -> np.ndarray:
                return np.ascontiguousarray(
                    np.asarray(dc_fast.solve_reduced(b.T)).T
                )

        else:
            solver = st.solver()
            dc_solver = st.dc_solver()

            def solve(b: np.ndarray) -> np.ndarray:  # type: ignore[misc]
                return np.ascontiguousarray(
                    solver.solve_many(np.ascontiguousarray(b.T)).T
                )

            def dc_solve_rows(b: np.ndarray) -> np.ndarray:
                return np.ascontiguousarray(
                    dc_solver.solve_many(np.ascontiguousarray(b.T)).T
                )

        attach = st.attach
        src_inject = st.g_dc * volt  # DC source Norton injection

        def dc_voltages(load: np.ndarray) -> np.ndarray:
            b = -load
            np.add.at(b, (slice(None), attach), src_inject)
            return dc_solve_rows(b)

        # One upfront (samples, traces, cells) transpose keeps every
        # load frame a contiguous row block inside the step loop.
        waves_t = np.ascontiguousarray(waves.swapaxes(0, 1))

        # t = 0: DC operating point per trace.
        v = dc_voltages(waves_t[0])
        v_pre = v.copy()
        v_min = v.copy()
        min_trace = np.empty((samples, n_traces))
        min_trace[0] = v.min(axis=1)
        probes = np.asarray(probe_rows, dtype=np.int64)
        probe_wave = np.empty((samples, probes.size, n_traces))
        if probes.size:
            probe_wave[0] = v[:, probes].T

        # Branch states at t = 0 (exact DC algebraic values).  KVL
        # eliminates every inductor-voltage state: a series R-L(-C)
        # branch satisfies v_L = (branch drop) - R·i - v_C identically,
        # so the trapezoidal history needs only the branch current and
        # the previous node voltages,
        #
        #   H = (2·g·w - 1)·i + g·(v_prev - 2·v_C)   (decap shunt)
        #   H = (2·g·w - 1)·i + g·Δv_prev            (mesh edge)
        #
        # (the closed form follows from g = 1/(R + w + hc)); the
        # backward-Euler form drops the voltage terms to g·w·i (- g·v_C).
        # Halving the live state arrays halves the memory traffic of a
        # batched step, which is what bounds wide-batch throughput.
        dec = st.dec_rows
        i_b = np.zeros((n_traces, dec.size))
        v_c = v[:, dec].copy()
        i_s = st.g_dc * (volt - v[:, attach])
        v_ls = np.zeros((n_traces, attach.size))
        track_x = st.w_x > 0 and st.x_a.size > 0
        track_y = st.w_y > 0 and st.y_a.size > 0

        g_b, w_b, hc_b = st.g_b, st.w_b, st.hc_b
        g_s, w_s = st.g_s, st.w_s
        # Fused companion coefficients, hoisted out of the step loop.
        gw_be_b = g_b * w_b
        gwr_b = 2.0 * gw_be_b - 1.0
        gw_be_x, gw_be_y = st.g_x * st.w_x, st.g_y * st.w_y
        gwr_x, gwr_y = 2.0 * gw_be_x - 1.0, 2.0 * gw_be_y - 1.0
        emf = g_s * volt
        # Scatter strategy: each (traces, cells) row block views as
        # (traces, ny, nx) fields, and mesh_edge_rows orders edges
        # row-major, so edge scatters and Δv gathers are stencil
        # slices — no index arrays at all.  Decap rows are unique by
        # construction (full-coverage maps degenerate to whole-array
        # arithmetic); only the handful of source attach rows may
        # repeat.
        dec_all = dec.size == cells
        attach_unique = np.unique(attach).size == attach.size
        nx3, ny3 = st.nx, st.ny
        v3 = v.reshape(n_traces, ny3, nx3)

        # Step-loop buffers, allocated once: every per-step elementwise
        # op below writes into preallocated storage.
        buf_b = np.empty((n_traces, cells))
        b3 = buf_b.reshape(n_traces, ny3, nx3)
        hist_b = np.empty((n_traces, dec.size))
        i_new_b = np.empty((n_traces, dec.size))
        dec_t = np.empty((n_traces, dec.size))
        if track_x:
            dv0 = v3[:, :, :-1] - v3[:, :, 1:]
            i_x = st.g_x_dc * dv0
            gdvx = st.g_x * dv0  # carries g_x·Δv_prev between steps
            h_x = np.empty_like(i_x)
        if track_y:
            dv0 = v3[:, :-1, :] - v3[:, 1:, :]
            i_y = st.g_y_dc * dv0
            gdvy = st.g_y * dv0
            h_y = np.empty_like(i_y)

        kick = not (st.exact_jump and samples > 1)
        if not kick:
            # Exact t = 0+ algebraic jump (see _TransientStructure):
            # inductor currents and capacitor voltages hold, the node
            # voltages re-solve on the frozen-inductor network with
            # the post-step load, and every branch history is rebuilt
            # from the right limits so trapezoidal integration starts
            # consistently.  Sample 0 keeps the pre-step DC values —
            # same convention as the lumped oracle.
            jump = st.jump_solver()
            b = buf_b
            np.negative(waves_t[1], out=b)
            b += st.jump_g_dec * v
            if track_x and st.jump_x_frozen:
                b3[:, :, :-1] -= i_x
                b3[:, :, 1:] += i_x
            if track_y and st.jump_y_frozen:
                b3[:, :-1, :] -= i_y
                b3[:, 1:, :] += i_y
            frozen = st.jump_src_frozen
            if np.any(frozen):
                np.add.at(
                    b, (slice(None), attach[frozen]), i_s[:, frozen]
                )
            if np.any(~frozen):
                np.add.at(
                    b,
                    (slice(None), attach[~frozen]),
                    (st.g_dc * volt)[~frozen],
                )
            v = np.ascontiguousarray(jump.solve_many(b.T).T)
            v3 = v.reshape(n_traces, ny3, nx3)
            # Right-limit branch states: decap currents jump through
            # the ESR (ESL = 0 on this path), resistive VR branches
            # re-bias, inductive ones keep their current and absorb
            # the residual drop on v_L.
            np.subtract(v, v_c, out=i_b)
            i_b *= st.jump_g_dec
            i_s = np.where(
                st.w_s > 0, i_s, st.g_dc * (volt - v[:, attach])
            )
            v_ls = volt - v[:, attach] - st.rout * i_s
            if track_x:
                np.subtract(v3[:, :, :-1], v3[:, :, 1:], out=gdvx)
                gdvx *= st.g_x
            if track_y:
                np.subtract(v3[:, :-1, :], v3[:, 1:, :], out=gdvy)
                gdvy *= st.g_y

        def advance(load: np.ndarray, backward_euler: bool) -> None:
            """One companion-model step (shared matrix, TR or BE form)."""
            nonlocal v, v3, i_b, i_new_b, i_s, v_ls, hist_b, dec_t, v_c
            nonlocal h_x, gdvx, h_y, gdvy
            b = buf_b
            np.negative(load, out=b)
            if dec.size:
                if backward_euler:
                    np.multiply(gw_be_b, i_b, out=hist_b)
                    np.multiply(g_b, v_c, out=dec_t)
                    hist_b -= dec_t
                else:
                    np.multiply(gwr_b, i_b, out=hist_b)
                    np.subtract(v if dec_all else v[:, dec], v_c, out=dec_t)
                    dec_t -= v_c
                    dec_t *= g_b
                    hist_b += dec_t
                if dec_all:
                    b -= hist_b
                else:
                    b[:, dec] -= hist_b
            if backward_euler:
                src_hist = emf + g_s * (w_s * i_s)
            else:
                src_hist = emf + g_s * (w_s * i_s + v_ls)
            if attach_unique:
                b[:, attach] += src_hist
            else:
                np.add.at(b, (slice(None), attach), src_hist)
            if track_x:
                np.multiply(
                    gw_be_x if backward_euler else gwr_x, i_x, out=h_x
                )
                if not backward_euler:
                    h_x += gdvx
                b3[:, :, :-1] -= h_x
                b3[:, :, 1:] += h_x
            if track_y:
                np.multiply(
                    gw_be_y if backward_euler else gwr_y, i_y, out=h_y
                )
                if not backward_euler:
                    h_y += gdvy
                b3[:, :-1, :] -= h_y
                b3[:, 1:, :] += h_y

            v = solve(b)
            v3 = v.reshape(n_traces, ny3, nx3)

            if dec.size:
                np.multiply(g_b, v if dec_all else v[:, dec], out=i_new_b)
                i_new_b += hist_b
                if backward_euler:
                    np.multiply(hc_b, i_new_b, out=dec_t)
                else:
                    np.add(i_new_b, i_b, out=dec_t)
                    dec_t *= hc_b
                v_c += dec_t
                i_b, i_new_b = i_new_b, i_b
            i_new_s = src_hist - g_s * v[:, attach]
            if backward_euler:
                v_ls = w_s * (i_new_s - i_s)
            else:
                v_ls = w_s * (i_new_s - i_s) - v_ls
            i_s = i_new_s
            if track_x:
                np.subtract(v3[:, :, :-1], v3[:, :, 1:], out=gdvx)
                gdvx *= st.g_x
                np.add(gdvx, h_x, out=i_x)
            if track_y:
                np.subtract(v3[:, :-1, :], v3[:, 1:, :], out=gdvy)
                gdvy *= st.g_y
                np.add(gdvy, h_y, out=i_y)

        for k in range(1, samples):
            load = waves_t[k]
            if k == 1 and kick:
                # Two backward-Euler half-steps share the trapezoidal
                # matrix and damp the t = 0⁺ load discontinuity on
                # stiff structures (see smooth_startup).
                advance(load, backward_euler=True)
                advance(load, backward_euler=True)
            else:
                advance(load, backward_euler=False)
            np.minimum(v_min, v, out=v_min)
            min_trace[k] = v.min(axis=1)
            if probes.size:
                probe_wave[k] = v[:, probes].T

        # Settle reference: exact post-step DC (simulate_step) or the
        # last sample.
        if final_load is not None:
            if final_load.shape[1] == 1 and n_traces > 1:
                final_load = np.repeat(final_load, n_traces, axis=1)
            v_final = dc_voltages(np.ascontiguousarray(final_load.T))
        else:
            v_final = v

        band = (
            settle_band_v
            if settle_band_v is not None
            else 0.02 * float(np.abs(volt).max())
        )
        time = np.arange(samples) * st.dt_s
        shape = (self.ny, self.nx)
        results: list[GridTransientResult] = []
        for t in range(n_traces):
            droop_map = np.clip(v_pre[t] - v_min[t], 0.0, None)
            _, settle = droop_and_settle(
                time,
                min_trace[:, t],
                float(min_trace[0, t]),
                float(v_final[t].min()),
                band,
            )
            results.append(
                GridTransientResult(
                    time_s=time,
                    v_pre_map=v_pre[t].reshape(shape).copy(),
                    v_min_map=v_min[t].reshape(shape).copy(),
                    v_final_map=v_final[t].reshape(shape).copy(),
                    min_voltage_trace_v=min_trace[:, t].copy(),
                    probe_rows=probe_rows,
                    probe_voltages_v=probe_wave[:, :, t].copy(),
                    droop_v=float(droop_map.max()),
                    settle_time_s=settle,
                    engine=mode,
                )
            )
        return results
