"""The mesh design shared by the DC, AC and transient grid analyses.

The paper signs one die mesh off three ways — DC IR drop, die-seen
impedance and load-step droop.  :class:`MeshDesign` is that one mesh:
a rectangular one-polarity metal grid (``nx x ny`` nodes over the die)
with VR outputs attached at nodes, an optional ring bus joining them,
per-edge metal-variation scales, a per-node decap allocation and the
POL sink map.  :class:`~repro.pdn.grid.GridPDN`,
:class:`~repro.pdn.grid.GridACPDN` and
:class:`~repro.pdn.grid_transient.GridTransientPDN` inherit it and add
only their analyses.

Every input is validated where it enters: a non-finite, negative or
mis-shaped value raises :class:`~repro.errors.ConfigError` naming the
parameter, instead of surfacing later as a singular network.

Caching contract.  :meth:`MeshDesign._topology_key` is a content key of
everything that shapes an analysis matrix — geometry, edge inductance,
source names and positions with their output resistance and
inductance, the ring bus, the per-edge scales and the decap.  Sinks and source voltages are
right-hand-side data and stay out of it.  The key is memoized until a
setter runs, and every cached structure is stored through
:meth:`MeshDesign._cached`, tagged with the key it was built for, so a
topology change rebuilds it and a return to an earlier topology (for
instance :meth:`MeshDesign.restore_decap`) matches again.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:  # powermap validates its inputs with check_real
    from .powermap import PowerMap

#: ``engine="auto"`` meshes at or above this cell count solve through
#: the structured (fast-Poisson) engines; smaller meshes stay on the
#: cached sparse LU, whose warm back-substitutions are already cheap
#: and whose cold factorization only starts to hurt past this size.
STRUCTURED_AUTO_MIN_CELLS = 4096

ENGINES = ("auto", "structured", "factorized")

_T = TypeVar("_T")
_Design = TypeVar("_Design", bound="MeshDesign")


def check_real(
    name: str, value, low: float | None = None, *, strict: bool = False
) -> float:
    """``value`` as a finite float, bounded below by ``low`` if given
    (``strict``: the bound itself is excluded).

    Raises:
        ConfigError: naming ``name`` for a non-numeric, non-finite or
            out-of-range value.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    if low is not None and (number <= low if strict else number < low):
        bound = ">" if strict else ">="
        raise ConfigError(f"{name} must be {bound} {low:g}, got {number:g}")
    return number


def check_index(name: str, value, size: int) -> np.ndarray:
    """``value`` — one index or an array of them — as int64 indices
    into ``range(size)``.  Integral floats such as ``2.0`` pass.

    Raises:
        ConfigError: naming ``name`` for a non-numeric, non-integral or
            out-of-range entry.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ConfigError(f"{name} must hold integer indices") from None
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must hold integer indices, got {value!r}")
    if arr.dtype.kind == "f" and not np.all(np.mod(arr, 1.0) == 0.0):
        raise ConfigError(f"{name} must hold integer indices, got {value!r}")
    if np.any(arr < 0) or np.any(arr >= size):
        raise ConfigError(f"{name} index {value!r} outside 0..{size - 1}")
    return arr.astype(np.int64)


def check_map(
    name: str,
    value,
    shape: tuple[int, ...],
    *,
    positive: bool = False,
    broadcast: bool = False,
) -> np.ndarray:
    """A fresh finite, non-negative (``positive``: > 0) float array of
    ``shape``; ``broadcast`` lets a scalar fill the whole shape.

    Raises:
        ConfigError: naming ``name`` for a non-numeric, mis-shaped,
            non-finite or out-of-range value.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numeric") from None
    if broadcast and arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ConfigError(f"{name} must be shaped {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite")
    if positive and not np.all(arr > 0):
        raise ConfigError(f"{name} must be positive")
    if np.any(arr < 0):
        raise ConfigError(f"{name} must be non-negative")
    return arr


def check_engine(engine: str) -> str:
    """Validate a DC/transient solve-engine name."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown solve engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}"
        )
    return engine


def resolve_engine(engine: str, cells: int) -> str:
    """The engine a solve tries first: ``"auto"`` picks structured at
    or above :data:`STRUCTURED_AUTO_MIN_CELLS` cells."""
    if engine != "auto":
        return engine
    return "structured" if cells >= STRUCTURED_AUTO_MIN_CELLS else "factorized"


def mesh_edge_rows(nx: int, ny: int) -> tuple[np.ndarray, ...]:
    """Endpoint row indices of a rectangular mesh's edges.

    Grid node ``(ix, iy)`` occupies row ``iy * nx + ix``; returns
    ``(x_a, x_b, y_a, y_b)`` — the endpoint arrays of the x-direction
    and y-direction edges.  Degenerate axes (``nx == 1`` or
    ``ny == 1``, the 1-D chains the AC ladder cross-checks use) simply
    produce empty edge arrays.  Shared by the DC, AC and transient
    assemblers so all stamp the identical lateral topology.
    """
    rows = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    return (
        rows[:, :-1].ravel(),
        rows[:, 1:].ravel(),
        rows[:-1, :].ravel(),
        rows[1:, :].ravel(),
    )


class Source(NamedTuple):
    """One attached VR output: an EMF behind ``r_out_ohm`` and a series
    ``inductance_h`` (the bump/TSV loop; always 0 on the DC grid),
    attached at mesh node ``(ix, iy)``."""

    name: str
    ix: int
    iy: int
    voltage_v: float
    r_out_ohm: float
    inductance_h: float


def _content(part):
    return part.tobytes() if isinstance(part, np.ndarray) else part


class MeshDesign:
    """One rectangular one-polarity PDN mesh over the die area.

    Args:
        width_m: die width (x extent).
        height_m: die height (y extent).
        sheet_ohm_sq: sheet resistance of the modeled metal stack.
        nx, ny: node counts in x and y.
        edge_inductance_x_h, edge_inductance_y_h: series metal
            inductance per mesh edge (0 for a purely resistive mesh).

    Geometry is fixed at construction; everything else is attached
    through the setters below, each validating its inputs.
    """

    #: Whether degenerate 1-D chains (``nx == 1`` or ``ny == 1``) are
    #: valid meshes.  The DC grid needs a 2-D mesh for its structured
    #: engine; the AC and transient grids allow chains, the lattice the
    #: ladder and lumped oracles collapse onto.
    ALLOWS_CHAINS = False

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        edge_inductance_x_h: float = 0.0,
        edge_inductance_y_h: float = 0.0,
    ) -> None:
        self.width_m = check_real("width_m", width_m, 0.0, strict=True)
        self.height_m = check_real("height_m", height_m, 0.0, strict=True)
        self.sheet_ohm_sq = check_real(
            "sheet_ohm_sq", sheet_ohm_sq, 0.0, strict=True
        )
        self.nx, self.ny = self._check_shape(nx, ny)
        self.edge_inductance_x_h = check_real(
            "edge_inductance_x_h", edge_inductance_x_h, 0.0
        )
        self.edge_inductance_y_h = check_real(
            "edge_inductance_y_h", edge_inductance_y_h, 0.0
        )
        self._sources: list[Source] = []
        self._sink_map: np.ndarray | None = None
        self._ring_bus_ohm: float | None = None
        self._edge_scale_x: np.ndarray | None = None
        self._edge_scale_y: np.ndarray | None = None
        self._decap: tuple | None = None
        self._key: tuple | None = None
        self._cache: dict = {}

    @classmethod
    def _check_shape(cls, nx, ny) -> tuple[int, int]:
        try:
            nx, ny = operator.index(nx), operator.index(ny)
        except TypeError:
            raise ConfigError(
                f"nx and ny must be integers, got nx={nx!r}, ny={ny!r}"
            ) from None
        if cls.ALLOWS_CHAINS:
            if nx < 1 or ny < 1 or nx * ny < 2:
                raise ConfigError(
                    f"grid needs at least two nodes, got nx={nx}, ny={ny}"
                )
        elif nx < 2 or ny < 2:
            raise ConfigError(
                f"grid needs at least 2x2 nodes, got nx={nx}, ny={ny}"
            )
        return nx, ny

    @classmethod
    def from_grid(
        cls: type[_Design], grid: "MeshDesign", source_inductance_h: float = 0.0
    ) -> _Design:
        """Mirror a DC grid's mesh, sinks, sources, and ring bus.

        ``source_inductance_h`` adds the vertical bump/TSV loop
        inductance in series with every copied VR output (the DC model
        has no use for it).  Decap maps are attached separately.
        Per-edge variation has no AC or transient companion, so scaled
        grids are rejected rather than silently made uniform.
        """
        l_src = check_real("source_inductance_h", source_inductance_h, 0.0)
        if grid._edge_scale_x is not None or grid._edge_scale_y is not None:
            raise ConfigError(
                "per-edge variation (set_edge_resistance_scale) cannot be "
                "mirrored; build from an unscaled grid"
            )
        pdn = cls(
            grid.width_m, grid.height_m, grid.sheet_ohm_sq, nx=grid.nx, ny=grid.ny
        )
        if grid._sink_map is not None:
            pdn._sink_map = grid._sink_map.copy()
        pdn._sources = [s._replace(inductance_h=l_src) for s in grid._sources]
        pdn._ring_bus_ohm = grid._ring_bus_ohm
        return pdn

    # -- copies -----------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.update(_key=None, _cache={})
        return state

    def copy(self: _Design) -> _Design:
        """An independent copy of the design with no cached structures
        (picklable: structures hold closures and factorizations)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(copy.deepcopy(self.__getstate__()))
        return clone

    def resampled(self: _Design, nx: int, ny: int) -> _Design:
        """The same die, VR sites and ring bus at another mesh resolution.

        Sheet resistance is resolution-independent (the mesh converges
        to the same continuum); per-edge inductance is rescaled by the
        edge-length ratio so the total metal loop stays comparable.
        Sources keep their voltage, r_out and L and snap to the nearest
        new node.  Sinks and decap are per-node maps of the old
        resolution and are not carried; per-edge scales cannot be
        resampled and are rejected.
        """
        nx, ny = self._check_shape(nx, ny)
        if self._edge_scale_x is not None or self._edge_scale_y is not None:
            raise ConfigError("per-edge variation cannot be resampled")
        clone = self.copy()
        clone.nx, clone.ny = nx, ny
        if nx > 1 and self.nx > 1:
            clone.edge_inductance_x_h *= (self.nx - 1) / (nx - 1)
        if ny > 1 and self.ny > 1:
            clone.edge_inductance_y_h *= (self.ny - 1) / (ny - 1)
        clone._sources = [
            s._replace(
                ix=min(int(round(s.ix * (nx - 1) / max(self.nx - 1, 1))), nx - 1),
                iy=min(int(round(s.iy * (ny - 1) / max(self.ny - 1, 1))), ny - 1),
            )
            for s in self._sources
        ]
        clone._sink_map = None
        clone._decap = None
        return clone

    # -- the cache key ----------------------------------------------------------

    def _touch(self) -> None:
        """Forget the memoized key; every topology setter calls this."""
        self._key = None

    def _topology_key(self) -> tuple:
        """Content key of everything that shapes an analysis matrix.

        Sinks and source voltages are right-hand-side data and are left
        out, so sink sweeps and setpoint studies reuse every structure.
        """
        if self._key is None:
            self._key = (
                self.nx,
                self.ny,
                self.width_m,
                self.height_m,
                self.sheet_ohm_sq,
                self.edge_inductance_x_h,
                self.edge_inductance_y_h,
                tuple(
                    (s.name, s.ix, s.iy, s.r_out_ohm, s.inductance_h)
                    for s in self._sources
                ),
                self._ring_bus_ohm,
                _content(self._edge_scale_x),
                _content(self._edge_scale_y),
                None
                if self._decap is None
                else tuple(_content(part) for part in self._decap),
            )
        return self._key

    def _cached(self, slot, build: Callable[[], _T], *extra) -> _T:
        """The structure in ``slot`` for the current topology key (plus
        any ``extra`` key parts), built by ``build`` on a miss."""
        key = self._topology_key()
        if extra:
            key = (key, *extra)
        hit = self._cache.get(slot)
        if hit is not None and hit[0] == key:
            return hit[1]
        if hit is not None:
            # Release the stale structure before building its successor,
            # so the two are never alive at once.
            del self._cache[slot], hit
        value = build()
        self._cache[slot] = (key, value)
        return value

    # -- sinks ------------------------------------------------------------------

    def set_sinks(self, power_map: PowerMap, total_current_a: float) -> None:
        """Attach POL sinks from a power map (replaces existing sinks)."""
        total = check_real("total_current_a", total_current_a, 0.0)
        self.set_sink_array(power_map.cell_currents(self.nx, self.ny, total))

    def set_sink_array(self, cell_currents: np.ndarray) -> None:
        """Attach POL sinks from an explicit (ny, nx) current array.

        Sinks are right-hand-side data: the topology key is unchanged.
        """
        self._sink_map = check_map(
            "cell_currents", cell_currents, (self.ny, self.nx)
        )

    # -- sources and ring bus ---------------------------------------------------

    def add_source(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
        inductance_h: float = 0.0,
    ) -> None:
        """Attach a VR output at fractional die coordinates.

        Sources snap to the nearest grid node.  ``output_resistance_ohm``
        must be positive — it regularizes the solve and models the
        converter's finite output impedance; the optional series
        ``inductance_h`` models the vertical bump/TSV loop between the
        converter output and the mesh.
        """
        for label, frac in (("x_frac", x_frac), ("y_frac", y_frac)):
            if not 0.0 <= check_real(label, frac) <= 1.0:
                raise ConfigError(f"{label} must lie inside the die, in [0, 1]")
        source = Source(
            name,
            min(int(round(float(x_frac) * (self.nx - 1))), self.nx - 1),
            min(int(round(float(y_frac) * (self.ny - 1))), self.ny - 1),
            check_real("voltage_v", voltage_v),
            check_real(
                "output_resistance_ohm", output_resistance_ohm, 0.0, strict=True
            ),
            check_real("inductance_h", inductance_h, 0.0),
        )
        if name in self.source_names:
            raise ConfigError(f"duplicate source name: {name!r}")
        self._sources.append(source)
        self._touch()

    def clear_sources(self) -> None:
        """Remove all attached sources (and any ring bus)."""
        self._sources.clear()
        self._ring_bus_ohm = None
        self._touch()

    def connect_sources_with_ring_bus(
        self, segment_resistance_ohm: float
    ) -> None:
        """Join consecutive sources with a dedicated ring bus.

        Periphery VR rings share a contiguous low-impedance metal ring
        (the embedded passive/output ring of Fig. 5(a)), which
        equalizes their load sharing; under-die VRs have no such bus.
        Segments connect sources in attachment order (and close the
        loop), each with the given one-polarity resistance.
        """
        ohm = check_real(
            "segment_resistance_ohm", segment_resistance_ohm, 0.0, strict=True
        )
        if len(self._sources) < 3:
            raise ConfigError("a ring bus needs at least three sources")
        self._ring_bus_ohm = ohm
        self._touch()

    @property
    def source_names(self) -> list[str]:
        """Names of attached sources in attachment order."""
        return [s.name for s in self._sources]

    def _check_attached(self) -> None:
        if self._sink_map is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")

    def _source_arrays(self) -> tuple[np.ndarray, ...]:
        """``(attach rows, voltages, r_out, L)`` in attachment order."""
        sources = self._sources
        return (
            np.array([s.iy * self.nx + s.ix for s in sources], dtype=np.int64),
            np.array([s.voltage_v for s in sources], dtype=float),
            np.array([s.r_out_ohm for s in sources], dtype=float),
            np.array([s.inductance_h for s in sources], dtype=float),
        )

    def _ring_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ring-bus segments as ``(k, row_a, row_b)`` arrays: segment
        ``k`` joins source ``k`` to source ``k + 1`` (closing the loop);
        segments between co-located sources are skipped."""
        attach = self._source_arrays()[0]
        following = np.roll(attach, -1)
        if self._ring_bus_ohm is None:
            k = np.empty(0, dtype=np.int64)
        else:
            k = np.flatnonzero(attach != following)
        return k, attach[k], following[k]

    # -- edge resistances -------------------------------------------------------

    @property
    def edge_resistance_x_ohm(self) -> float:
        """Resistance of one x-direction edge (R_sq * dx / dy_strip)."""
        if self.nx < 2:
            raise ConfigError("a 1-wide grid has no x edges")
        dx = self.width_m / (self.nx - 1)
        strip = self.height_m / self.ny
        return self.sheet_ohm_sq * dx / strip

    @property
    def edge_resistance_y_ohm(self) -> float:
        """Resistance of one y-direction edge."""
        if self.ny < 2:
            raise ConfigError("a 1-tall grid has no y edges")
        dy = self.height_m / (self.ny - 1)
        strip = self.width_m / self.nx
        return self.sheet_ohm_sq * dy / strip

    # -- decap ------------------------------------------------------------------

    def set_decap_density(
        self,
        density,
        cap_per_unit_f: float,
        esr_per_unit_ohm: float = 0.0,
        esl_per_unit_h: float = 0.0,
    ) -> None:
        """Attach decaps as a per-node *density* of one unit cell.

        ``density`` (scalar or (ny, nx) array, >= 0) counts identical
        unit cells — C with series ESR and ESL — in parallel at each
        node, the way MIM/deep-trench decap budgets are allocated per
        tile.  A strictly positive density map (plus purely resistive
        mesh metal) unlocks the spectral impedance-map engine; a
        uniform one keeps the structured engines' corrections small.
        Decaps are open at DC, so the DC grid's solution ignores them.
        """
        alpha = check_map("density", density, (self.ny, self.nx), broadcast=True)
        if not np.any(alpha > 0):
            raise ConfigError("decap density map is all zero")
        self._decap = (
            "density",
            alpha,
            check_real("cap_per_unit_f", cap_per_unit_f, 0.0, strict=True),
            check_real("esr_per_unit_ohm", esr_per_unit_ohm, 0.0),
            check_real("esl_per_unit_h", esl_per_unit_h, 0.0),
        )
        self._touch()

    def set_decap_map(self, cap_f, esr_ohm=0.0, esl_h=0.0) -> None:
        """Attach arbitrary per-node decap maps.

        ``cap_f``/``esr_ohm``/``esl_h`` are scalars or (ny, nx)
        arrays; a node with zero capacitance carries no decap branch.
        All-scalar arguments are equivalent to a uniform unit density
        of one cell per node (and are stored that way, keeping the
        spectral engine available); array arguments go through the
        general direct engine.
        """
        if np.ndim(cap_f) == 0 and np.ndim(esr_ohm) == 0 and np.ndim(esl_h) == 0:
            self.set_decap_density(
                1.0,
                check_real("cap_f", cap_f, 0.0, strict=True),
                check_real("esr_ohm", esr_ohm, 0.0),
                check_real("esl_h", esl_h, 0.0),
            )
            return
        shape = (self.ny, self.nx)
        c = check_map("cap_f", cap_f, shape, broadcast=True)
        if not np.any(c > 0):
            raise ConfigError("capacitance map is all zero")
        self._decap = (
            "map",
            c,
            check_map("esr_ohm", esr_ohm, shape, broadcast=True),
            check_map("esl_h", esl_h, shape, broadcast=True),
        )
        self._touch()

    def scale_decap(self, factor: float) -> None:
        """Multiply the attached decap allocation by ``factor``.

        Semantically "add more unit cells in parallel": capacitance
        scales up while ESR and ESL scale down, for either decap
        representation.  The decap sizing search is built on this.
        """
        factor = check_real("factor", factor, 0.0, strict=True)
        if self._decap is None:
            raise ConfigError("no decaps attached; set a decap map first")
        if self._decap[0] == "density":
            _, alpha, c, esr, esl = self._decap
            self._decap = ("density", alpha * factor, c, esr, esl)
        else:
            _, c, esr, esl = self._decap
            self._decap = ("map", c * factor, esr / factor, esl / factor)
        self._touch()

    def decap_snapshot(self) -> tuple:
        """The exact decap state, for :meth:`restore_decap`.

        Returns ``(state, token)``: the stored representation (kind,
        arrays, unit values) and the topology key it belongs to, so a
        search that mutates the allocation —
        :func:`~repro.pdn.impedance.size_grid_decap_for_target` — can
        put the grid back bit-exactly instead of round-tripping values
        through lossy scale factors.  Equal snapshots have equal tokens.
        """
        if self._decap is None:
            state: tuple | None = None
        else:
            state = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in self._decap
            )
        return (state, self._topology_key())

    def restore_decap(self, snapshot: tuple) -> None:
        """Restore a :meth:`decap_snapshot` bit-exactly.

        The topology key returns to the snapshot's, so structures still
        cached for it match again.
        """
        state, _ = snapshot
        if state is not None:
            state = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in state
            )
        self._decap = state
        self._touch()

    @property
    def total_decap_farad(self) -> float:
        """Total attached decoupling capacitance over the mesh."""
        if self._decap is None:
            return 0.0
        return float(self._decap_arrays()[0].sum())

    def _decap_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened per-node (C, ESR, ESL) arrays; zero C = no decap."""
        cells = self.nx * self.ny
        if self._decap is None:
            zero = np.zeros(cells)
            return zero, zero.copy(), zero.copy()
        if self._decap[0] == "density":
            _, alpha, c_u, esr_u, esl_u = self._decap
            alpha = alpha.ravel()
            live = alpha > 0
            c = np.where(live, alpha * c_u, 0.0)
            with np.errstate(divide="ignore"):
                esr = np.where(live, esr_u / np.where(live, alpha, 1.0), 0.0)
                esl = np.where(live, esl_u / np.where(live, alpha, 1.0), 0.0)
            return c, esr, esl
        _, c, esr, esl = self._decap
        return c.ravel().copy(), esr.ravel().copy(), esl.ravel().copy()
