"""Sparse modified nodal analysis (MNA) DC solver.

Solves ``[G B; B^T 0] [v; j] = [i; e]`` where ``G`` is the conductance
matrix over non-ground nodes, ``B`` maps voltage sources to nodes,
``i`` collects current-source injections and ``e`` the source voltages.

The solver operates on a :class:`~repro.pdn.network.CompiledNetlist`
(array-backed, integer-indexed) and stamps the COO matrix with pure
numpy concatenation — no per-element Python loop.  Factorization is
SuperLU (``scipy.sparse.linalg.splu``) wrapped in
:class:`FactorizedPDN`, which callers with fixed topology keep around
to solve new load/source vectors at back-substitution cost
(``solve_rhs`` / ``solve_many``).

The solver also verifies the physics of the returned solution:
Kirchhoff's current law at every node (one sparse mat-vec against the
compiled netlist's cached node × element incidence) and global
power balance (source power = load power + I²R dissipation) to tight
tolerances, raising :class:`~repro.errors.SolverError` on violation
rather than returning silently wrong answers.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SolverError
from .network import GROUND_INDEX, CompiledNetlist, Netlist, NodeId

#: Default cap on memoized influence columns per factorization.  Each
#: column is a dense float64 vector of length ``size``; at the default
#: cap a 10k-node mesh holds at most ~80 MB of influence columns, and
#: long-running sweep workers (see :mod:`repro.parallel`) stay bounded
#: no matter how many distinct elements their scenarios touch.
INFLUENCE_CACHE_COLUMNS = 1024

#: Acceptance threshold for the known-solution singularity probe.
#: Shared by the DC factorization, the modified-scenario fallback, and
#: the AC sweep engine so every solve path renders the same
#: singular/non-singular verdict for the same matrix.
SINGULARITY_PROBE_TOL = 1e-3

#: A Woodbury correction is trusted while the smallest singular value
#: of its k-by-k capacitance matrix ``S`` stays above
#: ``max(1, sigma_max) / WOODBURY_COND_LIMIT``; below that the scenario
#: is refactorized (or rejected with ``method="woodbury"``).
WOODBURY_COND_LIMIT = 1e10


def singularity_probe(size: int) -> np.ndarray:
    """The known probe solution ``w`` used to detect rounded pivots.

    Recovering ``w`` from ``A @ w`` amplifies any near-null direction
    by ~1/pivot, so a large recovery error exposes an exactly singular
    system that LU happened to factor through a rounded tiny pivot —
    an error mode downstream KCL/power checks cannot see (the
    null-space offset is current-consistent).
    """
    return np.cos(np.arange(size))


def factorization_probe_error(lu: "spla.SuperLU", matrix: sp.csc_matrix) -> float:
    """Probe recovery error of a factorization (see
    :func:`singularity_probe`); compare against
    :data:`SINGULARITY_PROBE_TOL`."""
    probe = singularity_probe(matrix.shape[0])
    with np.errstate(all="ignore"):
        recovered = lu.solve(matrix @ probe)
        return float(np.abs(recovered - probe).max(initial=0.0))


class DCSolution:
    """Result of a DC operating-point solve.

    Array-backed: per-node voltages and per-element currents/losses
    are numpy arrays aligned with the compiled netlist's element
    order.  The historical name-keyed dict views (``node_voltages``,
    ``resistor_currents``, ``resistor_losses``, ``source_currents``)
    are built lazily on first access, so hot paths that consume the
    arrays never pay for dict construction.

    Attributes:
        compiled: the compiled netlist this solution belongs to.
        node_voltage_array: voltage per non-ground node (row order).
        resistor_current_array: current through each resistor,
            measured from ``node_a`` to ``node_b``.
        resistor_loss_array: I²R dissipation per resistor.
        source_current_array: current *delivered* by each voltage
            source (positive = sourcing power into the network).
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        node_voltage_array: np.ndarray,
        resistor_current_array: np.ndarray,
        resistor_loss_array: np.ndarray,
        source_current_array: np.ndarray,
    ) -> None:
        self.compiled = compiled
        self.node_voltage_array = node_voltage_array
        self.resistor_current_array = resistor_current_array
        self.resistor_loss_array = resistor_loss_array
        self.source_current_array = source_current_array

    # -- name-keyed views (lazy) ------------------------------------------------

    @cached_property
    def node_voltages(self) -> dict[NodeId, float]:
        """Voltage of every non-ground node (ground = 0 V)."""
        return dict(zip(self.compiled.nodes, self.node_voltage_array.tolist()))

    @cached_property
    def resistor_currents(self) -> dict[str, float]:
        """Current through each resistor, ``node_a`` to ``node_b``."""
        return dict(
            zip(self.compiled.res_names, self.resistor_current_array.tolist())
        )

    @cached_property
    def resistor_losses(self) -> dict[str, float]:
        """I²R dissipation per resistor."""
        return dict(
            zip(self.compiled.res_names, self.resistor_loss_array.tolist())
        )

    @cached_property
    def source_currents(self) -> dict[str, float]:
        """Current delivered by each voltage source."""
        return dict(
            zip(self.compiled.vs_names, self.source_current_array.tolist())
        )

    # -- queries -----------------------------------------------------------------

    def voltage(self, node: NodeId) -> float:
        """Voltage at a node (ground returns 0.0)."""
        index = self.compiled.node_index[node]
        if index == GROUND_INDEX:
            return 0.0
        return float(self.node_voltage_array[index])

    @property
    def total_resistive_loss_w(self) -> float:
        """Total I²R dissipation across all resistors."""
        return float(self.resistor_loss_array.sum())

    def loss_by_prefix(self, prefix: str) -> float:
        """Sum of losses over resistors whose name starts with ``prefix``.

        Power-path builders use structured names ("pcb.", "bga.", ...)
        so per-segment breakdowns are a prefix query.
        """
        names = self.compiled.res_names
        mask = np.fromiter(
            (name.startswith(prefix) for name in names), bool, len(names)
        )
        return float(self.resistor_loss_array[mask].sum())

    def min_voltage(self) -> float:
        """Smallest node voltage (worst-case droop detection)."""
        if not self.node_voltage_array.size:
            return 0.0
        return float(self.node_voltage_array.min())


class FactorizedPDN:
    """A reusable sparse LU factorization of one netlist topology.

    The MNA matrix depends only on the netlist *structure* (element
    endpoints and resistances); load currents and source voltages only
    enter the right-hand side.  Factorize once, then solve any number
    of load/source scenarios at back-substitution cost:

    * :meth:`solve` — full scenario solve returning a
      :class:`DCSolution` (optionally overriding load currents and
      source voltages),
    * :meth:`solve_rhs` / :meth:`solve_many` — raw solves of explicit
      RHS vectors / stacked RHS matrices.

    Raises :class:`~repro.errors.SolverError` at construction when the
    system is singular (floating subcircuits, missing ground
    reference), which surfaces broken topologies at factorization time
    instead of as NaNs downstream.
    """

    def __init__(
        self,
        netlist: Netlist | CompiledNetlist,
        influence_cache_columns: int | None = None,
    ) -> None:
        compiled = (
            netlist.compile() if isinstance(netlist, Netlist) else netlist
        )
        compiled.validate()
        self.compiled = compiled
        n = compiled.n_nodes
        size = compiled.size

        rows, cols, vals = compiled.mna_coo()
        matrix = sp.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsc()

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                self._lu = spla.splu(matrix)
            except RuntimeError as exc:  # SuperLU signals singularity
                raise SolverError(
                    "MNA factorization failed: the network is singular "
                    f"(floating subcircuit or missing ground?): {exc}"
                ) from exc
        self._n = n
        self._size = size
        self._conductance = 1.0 / compiled.res_ohm
        self._matrix = matrix
        # Memoized A^-1 @ u columns for low-rank modifications: the
        # update vector of "disable source j" / "remove resistor i" is
        # canonical per element, so sweeps that revisit elements (N-k
        # enumerations, repeated studies) pay each back-substitution
        # once per factorization.  Bounded LRU: each column is a dense
        # ``size`` vector, and a long-lived sweep worker enumerating
        # resistor removals over a large mesh would otherwise grow this
        # without limit.
        self._influence: "OrderedDict[tuple[str, int], np.ndarray]" = (
            OrderedDict()
        )
        if influence_cache_columns is None:
            influence_cache_columns = INFLUENCE_CACHE_COLUMNS
        if influence_cache_columns < 1:
            raise SolverError("influence cache needs at least one column")
        self._influence_cap = int(influence_cache_columns)
        self.influence_evictions = 0

        # One matvec plus one back-substitution, paid once per topology.
        error = factorization_probe_error(self._lu, matrix)
        if not np.isfinite(error) or error > SINGULARITY_PROBE_TOL:
            raise SolverError(
                "MNA factorization is numerically singular (probe error "
                f"{error:.3e}); the network likely has a floating "
                "subcircuit with a current source"
            )

    # -- RHS assembly -------------------------------------------------------------

    def _scenario_values(
        self,
        cs_amp: np.ndarray | None,
        vs_volt: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve (and shape-check) load/source overrides."""
        compiled = self.compiled
        amp = compiled.cs_amp if cs_amp is None else np.asarray(cs_amp, float)
        volt = (
            compiled.vs_volt if vs_volt is None else np.asarray(vs_volt, float)
        )
        if amp.shape != compiled.cs_amp.shape:
            raise SolverError(
                f"expected {compiled.cs_amp.shape[0]} load currents, "
                f"got shape {amp.shape}"
            )
        if volt.shape != compiled.vs_volt.shape:
            raise SolverError(
                f"expected {compiled.vs_volt.shape[0]} source voltages, "
                f"got shape {volt.shape}"
            )
        if amp.size and np.any(amp < 0):
            raise SolverError("load currents must be non-negative")
        return amp, volt

    def rhs(
        self,
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assemble the MNA right-hand side for a load/source scenario.

        Defaults to the compiled netlist's own currents and voltages.
        """
        compiled = self.compiled
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        rhs = np.zeros(self._size)
        n = self._n
        if amp.size:
            out_of = compiled.cs_from != GROUND_INDEX
            into = compiled.cs_to != GROUND_INDEX
            rhs[:n] = np.bincount(
                compiled.cs_to[into], weights=amp[into], minlength=n
            )
            rhs[:n] -= np.bincount(
                compiled.cs_from[out_of], weights=amp[out_of], minlength=n
            )
        rhs[n:] = volt
        return rhs

    # -- raw solves ----------------------------------------------------------------

    def solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one explicit RHS vector (length ``size``)."""
        solution = self._lu.solve(np.asarray(rhs, dtype=float))
        if not np.all(np.isfinite(solution)):
            raise SolverError("MNA solution contains non-finite values")
        return solution

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Back-substitute a stack of RHS columns, shape (size, k).

        One factorization amortized over k scenarios — the batched
        path for Monte-Carlo sweeps and load sweeps over a fixed
        topology.
        """
        stacked = np.asarray(rhs_matrix, dtype=float)
        if stacked.ndim != 2 or stacked.shape[0] != self._size:
            raise SolverError(
                f"rhs matrix must be shaped ({self._size}, k), "
                f"got {stacked.shape}"
            )
        solution = self._lu.solve(stacked)
        if not np.all(np.isfinite(solution)):
            raise SolverError("MNA solution contains non-finite values")
        return solution

    # -- scenario solve -------------------------------------------------------------

    def solve(
        self,
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
    ) -> DCSolution:
        """Solve one operating point, optionally overriding the loads
        (``cs_amp``, aligned with the compiled current sources) and
        source voltages (``vs_volt``).

        Raises:
            SolverError: non-finite result, KCL or power-balance
                violation (with ``check=True``).
        """
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        x = self.solve_rhs(self.rhs(amp, volt))
        return self._package(x, amp, volt, check)

    def _package(
        self,
        x: np.ndarray,
        amp: np.ndarray,
        volt: np.ndarray,
        check: bool,
        disabled: np.ndarray | None = None,
        removed: np.ndarray | None = None,
    ) -> DCSolution:
        """Post-process a raw MNA solution vector into a DCSolution.

        Branch currents use each resistor's conductance, zeroed for the
        ``removed`` ones so their reported currents and losses vanish.
        """
        conductance = self._conductance
        if removed is not None and removed.size:
            conductance = conductance.copy()
            conductance[removed] = 0.0
        return package_dc_solution(
            self.compiled, x, amp, volt, conductance, check, disabled
        )

    # -- low-rank modified solves ---------------------------------------------------

    def _modification_factors(
        self,
        disabled: np.ndarray,
        removed: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rank-k update ``A_mod = A + U @ W.T`` for a scenario.

        Disabling voltage source ``j`` replaces its constraint row
        ``v+ - v- = V_j`` with ``i_j = 0`` — a rank-1 row replacement
        ``e_r (new_row - old_row)^T`` with ``r = n + j``.  Removing
        resistor ``i`` subtracts its conductance stamp
        ``g_i d d^T`` with ``d = e_a - e_b`` (ground entries dropped).
        """
        compiled = self.compiled
        n = self._n
        k = len(disabled) + len(removed)
        u = np.zeros((self._size, k))
        w = np.zeros((self._size, k))
        for t, j in enumerate(disabled):
            row = n + j
            u[row, t] = 1.0
            w[row, t] = 1.0
            plus = compiled.vs_plus[j]
            minus = compiled.vs_minus[j]
            if plus != GROUND_INDEX:
                w[plus, t] -= 1.0
            if minus != GROUND_INDEX:
                w[minus, t] += 1.0
        offset = len(disabled)
        for t, i in enumerate(removed):
            col = offset + t
            a = compiled.res_a[i]
            b = compiled.res_b[i]
            if a != GROUND_INDEX:
                u[a, col] = 1.0
            if b != GROUND_INDEX:
                u[b, col] = -1.0
            w[:, col] = -self._conductance[i] * u[:, col]
        return u, w

    @staticmethod
    def _modification_keys(
        disabled: np.ndarray, removed: np.ndarray
    ) -> list[tuple[str, int]]:
        """Memoization keys of one scenario's update columns."""
        return [("vs", int(j)) for j in disabled] + [
            ("res", int(i)) for i in removed
        ]

    def _influence_store(self, key: tuple[str, int], column: np.ndarray) -> None:
        """Insert one influence column, evicting LRU entries over the cap."""
        self._influence[key] = column
        self._influence.move_to_end(key)
        while len(self._influence) > self._influence_cap:
            self._influence.popitem(last=False)
            self.influence_evictions += 1

    def _influence_solve(
        self,
        u: np.ndarray,
        disabled: np.ndarray,
        removed: np.ndarray,
    ) -> np.ndarray:
        """``Z = A^-1 U`` with per-element memoization (bounded LRU).

        Missing columns are back-substituted in one batched call and
        cached, so a sweep touching m distinct elements performs m
        influence solves total, not m per scenario.  The result is
        assembled from local copies, so it stays correct even when a
        scenario touches more elements than the cache holds.
        """
        keys = self._modification_keys(disabled, removed)
        columns: list[np.ndarray | None] = []
        for key in keys:
            cached = self._influence.get(key)
            if cached is not None:
                self._influence.move_to_end(key)
            columns.append(cached)
        missing = [t for t, column in enumerate(columns) if column is None]
        if missing:
            solved = self._lu.solve(u[:, missing])
            for column, t in enumerate(missing):
                columns[t] = solved[:, column]
                self._influence_store(keys[t], solved[:, column])
        return np.column_stack(columns)

    def preload_source_influence(
        self, indices: "np.ndarray | tuple[int, ...] | list[int] | None" = None
    ) -> None:
        """Batch the influence columns of many source disables.

        An N−1 sweep touches every source once; one back-substitution
        call over all missing columns is several times cheaper than 48
        single-column solves scattered across scenarios.  Defaults to
        every voltage source.
        """
        m = self.compiled.n_vsources
        if indices is None:
            indices = range(m)
        wanted = sorted({int(j) for j in indices})
        if wanted and (wanted[0] < 0 or wanted[-1] >= m):
            raise SolverError("source index out of range")
        self._preload_modification_influence(
            [
                (
                    np.asarray(wanted, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            ]
        )

    def _refactorize_modified(
        self, u: np.ndarray, w: np.ndarray
    ) -> spla.SuperLU:
        """Factorize ``A + U W^T`` explicitly (the Woodbury fallback)."""
        # U and W have at most a few nonzeros per column, so the
        # update is assembled sparsely (O(k * size), not size^2).
        delta = sp.csc_matrix(u) @ sp.csc_matrix(w).T
        matrix = (self._matrix + delta).tocsc()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                lu = spla.splu(matrix)
            except RuntimeError as exc:
                raise SolverError(
                    "modified MNA factorization failed: the scenario "
                    f"disconnects the network: {exc}"
                ) from exc
        # Same known-solution probe as the base factorization: an
        # exactly singular modified system (a removal that islands a
        # loaded subgrid) must fail loudly, not via a rounded pivot.
        error = factorization_probe_error(lu, matrix)
        if not np.isfinite(error) or error > SINGULARITY_PROBE_TOL:
            raise SolverError(
                "modified MNA system is numerically singular (probe "
                f"error {error:.3e}); the scenario likely leaves a "
                "floating subcircuit with a current source"
            )
        return lu

    def _solve_refactored(
        self,
        disabled: np.ndarray,
        removed: np.ndarray,
        amp: np.ndarray,
        volt: np.ndarray,
        check: bool,
    ) -> DCSolution:
        """One scenario on an explicit factorization of ``A + U W^T``:
        the ``method="refactor"`` oracle and the fallback for an
        ill-conditioned Woodbury correction."""
        rhs = self.rhs(amp, volt)
        if not disabled.size and not removed.size:
            x = self.solve_rhs(rhs)
        else:
            rhs[self._n + disabled] = 0.0
            u, w = self._modification_factors(disabled, removed)
            lu = self._refactorize_modified(u, w)
            x = lu.solve(rhs)
            residual = rhs - (self._matrix @ x + u @ (w.T @ x))
            x = x + lu.solve(residual)
            if not np.all(np.isfinite(x)):
                raise SolverError(
                    "modified MNA solution contains non-finite values"
                )
        return self._package(x, amp, volt, check, disabled, removed)

    def solve_modified(
        self,
        disable_sources: "np.ndarray | tuple[int, ...] | list[int]" = (),
        remove_resistors: "np.ndarray | tuple[int, ...] | list[int]" = (),
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
        method: str = "auto",
    ) -> DCSolution:
        """Solve a structurally modified scenario on the base factorization.

        A failure/ablation sweep removes a handful of elements per
        scenario; refactorizing each time costs a full LU.  Instead the
        modification is expressed as a rank-k update ``A + U W^T`` and
        solved with the Sherman–Morrison–Woodbury identity

        ``x = y - Z (I_k + W^T Z)^{-1} W^T y``

        where ``y = A^{-1} b_mod`` and ``Z = A^{-1} U`` cost k+1
        back-substitutions on the *cached* factorization.  This is the
        one-scenario case of :meth:`solve_modified_many`.

        Args:
            disable_sources: voltage-source indices whose constraint is
                replaced by ``i = 0`` (an open-circuited regulator: the
                source branch carries no current; its series elements
                stay in the matrix but go dead).
            remove_resistors: resistor indices whose conductance stamp
                is subtracted (an open lateral edge).  Removed
                resistors report zero current and loss.
            method: as for :meth:`solve_modified_many`.

        Raises:
            SolverError: invalid indices, disconnecting modification,
                or (with ``method="woodbury"``) an ill-conditioned
                correction.
        """
        return self.solve_modified_many(
            [(disable_sources, remove_resistors)],
            cs_amp=cs_amp,
            vs_volt=vs_volt,
            check=check,
            method=method,
        )[0]

    def _preload_modification_influence(
        self, scenarios: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Back-substitute every influence column a sweep needs, once.

        Collects the union of uncached update columns over all
        scenarios and solves them in a single stacked call, so a
        sweep touching m distinct elements pays one batched
        back-substitution instead of one per scenario.
        """
        compiled = self.compiled
        missing: list[tuple[str, int]] = []
        seen: set[tuple[str, int]] = set()
        for disabled, removed in scenarios:
            for key in self._modification_keys(disabled, removed):
                if key not in self._influence and key not in seen:
                    seen.add(key)
                    missing.append(key)
        if not missing:
            return
        u = np.zeros((self._size, len(missing)))
        for t, (kind, j) in enumerate(missing):
            if kind == "vs":
                u[self._n + j, t] = 1.0
            else:
                a = compiled.res_a[j]
                b = compiled.res_b[j]
                if a != GROUND_INDEX:
                    u[a, t] = 1.0
                if b != GROUND_INDEX:
                    u[b, t] = -1.0
        solved = self._lu.solve(u)
        for column, key in enumerate(missing):
            self._influence_store(key, solved[:, column])

    def solve_modified_many(
        self,
        scenarios: "list[tuple] | tuple[tuple, ...]",
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
        method: str = "auto",
    ) -> list[DCSolution]:
        """Solve many modified scenarios with batched back-substitutions.

        The batched form of :meth:`solve_modified`: every scenario is
        a ``(disable_sources, remove_resistors)`` pair sharing the same
        load/source overrides.  Where a per-scenario loop performs
        ``O(k)`` separate back-substitutions per scenario, this path
        batches the whole sweep through three stacked
        :meth:`solve_many`-style calls on the cached factorization —
        the union of influence columns ``Z = A⁻¹U``, the modified
        right-hand sides, and one iterative-refinement round — leaving
        only k×k algebra per scenario.  Exhaustive N−k enumerations
        are the intended workload.

        ``method="auto"`` uses Woodbury and falls back to an explicit
        per-scenario refactorization when the k-by-k capacitance
        matrix ``S = I + W^T Z`` is ill-conditioned (its smallest
        singular value below ``max(1, sigma_max) /``
        :data:`WOODBURY_COND_LIMIT`); ``"woodbury"`` raises
        :class:`~repro.errors.SolverError` instead of falling back;
        ``"refactor"`` solves every scenario explicitly (the parity
        oracle for the correction).

        Returns one :class:`DCSolution` per scenario, in order.
        """
        if method not in ("auto", "woodbury", "refactor"):
            raise SolverError(f"unknown solve_modified method: {method!r}")
        compiled = self.compiled
        normalized: list[tuple[np.ndarray, np.ndarray]] = []
        for scenario in scenarios:
            try:
                disable_sources, remove_resistors = scenario
            except (TypeError, ValueError):
                raise SolverError(
                    "each scenario must be a (disable_sources, "
                    "remove_resistors) pair"
                ) from None
            disabled = np.unique(np.asarray(disable_sources, dtype=np.int64))
            removed = np.unique(np.asarray(remove_resistors, dtype=np.int64))
            if disabled.size and (
                disabled.min() < 0 or disabled.max() >= compiled.n_vsources
            ):
                raise SolverError("disable_sources index out of range")
            if removed.size and (
                removed.min() < 0 or removed.max() >= len(compiled.res_ohm)
            ):
                raise SolverError("remove_resistors index out of range")
            normalized.append((disabled, removed))
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        if not normalized:
            return []
        if method == "refactor":
            return [
                self._solve_refactored(disabled, removed, amp, volt, check)
                for disabled, removed in normalized
            ]

        self._preload_modification_influence(normalized)
        count = len(normalized)
        rhs_matrix = np.repeat(self.rhs(amp, volt)[:, None], count, axis=1)
        for i, (disabled, _) in enumerate(normalized):
            rhs_matrix[self._n + disabled, i] = 0.0
        y = self.solve_many(rhs_matrix)

        x = np.empty_like(y)
        factors: list[tuple | None] = []
        conds: list[float] = []
        fallback: set[int] = set()

        def ill_conditioned(index: int, cond: float) -> None:
            if method == "woodbury":
                raise SolverError(
                    "Woodbury correction is ill-conditioned "
                    f"(cond(S) = {cond:.3e}) in scenario {index}; the "
                    "scenario likely disconnects the network"
                )
            fallback.add(index)

        for i, (disabled, removed) in enumerate(normalized):
            if not disabled.size and not removed.size:
                x[:, i] = y[:, i]
                factors.append(None)
                conds.append(1.0)
                continue
            u, w = self._modification_factors(disabled, removed)
            z = self._influence_solve(u, disabled, removed)
            s = np.eye(u.shape[1]) + w.T @ z
            # Gate on the smallest singular value against an absolute
            # floor: cond(S) alone cannot flag a uniformly tiny S (for
            # k=1 it is identically 1), but sigma_min -> 0 is exactly
            # the near-singular modified system Woodbury cannot solve.
            with np.errstate(all="ignore"):
                singular_values = np.linalg.svd(s, compute_uv=False)
            sigma_max = float(singular_values[0])
            sigma_min = float(singular_values[-1])
            cond = sigma_max / sigma_min if sigma_min > 0 else np.inf
            factors.append((u, w, z, s))
            conds.append(cond)
            if not (
                np.all(np.isfinite(singular_values))
                and sigma_min > max(1.0, sigma_max) / WOODBURY_COND_LIMIT
            ):
                ill_conditioned(i, cond)
                continue
            x[:, i] = y[:, i] - z @ np.linalg.solve(s, w.T @ y[:, i])
            if not np.all(np.isfinite(x[:, i])):
                ill_conditioned(i, cond)

        # One batched refinement round over the Woodbury-solved columns
        # tightens the correction from ~1e-9 to ~1e-12 relative.
        live = [
            i
            for i in range(count)
            if i not in fallback and factors[i] is not None
        ]
        if live:
            residual = rhs_matrix[:, live] - self._matrix @ x[:, live]
            for column, i in enumerate(live):
                u, w, _, _ = factors[i]
                residual[:, column] -= u @ (w.T @ x[:, i])
            refined = self.solve_many(residual)
            for column, i in enumerate(live):
                u, w, z, s = factors[i]
                x[:, i] += refined[:, column] - z @ np.linalg.solve(
                    s, w.T @ refined[:, column]
                )
                if not np.all(np.isfinite(x[:, i])):
                    ill_conditioned(i, conds[i])

        solutions: list[DCSolution] = []
        for i, (disabled, removed) in enumerate(normalized):
            if i in fallback:
                solutions.append(
                    self._solve_refactored(disabled, removed, amp, volt, check)
                )
                continue
            solutions.append(
                self._package(x[:, i], amp, volt, check, disabled, removed)
            )
        return solutions


def package_dc_solution(
    compiled: CompiledNetlist,
    x: np.ndarray,
    amp: np.ndarray,
    volt: np.ndarray,
    conductance: np.ndarray,
    check: bool,
    disabled_sources: np.ndarray | None = None,
) -> DCSolution:
    """Turn a raw MNA solution vector into a verified :class:`DCSolution`.

    Shared by every DC solve path — the cached-LU engine above and the
    structured fast-Poisson engine
    (:mod:`repro.pdn.fast_poisson`) — so branch-current extraction,
    disabled-source snapping, and the KCL/power verification render
    identical results regardless of how ``x`` was computed.
    """
    n = compiled.n_nodes
    voltages = x[:n]
    # Ground trick: append one 0.0 so GROUND_INDEX (-1) gathers 0 V.
    v_full = np.concatenate([voltages, [0.0]])
    drop = v_full[compiled.res_a] - v_full[compiled.res_b]
    currents = drop * conductance
    losses = currents * drop
    source_currents = -x[n:]
    if disabled_sources is not None and np.asarray(disabled_sources).size:
        # The modified constraint row forces these branch currents
        # to zero; snap away the O(eps) correction residue.
        source_currents = source_currents.copy()
        source_currents[np.asarray(disabled_sources, dtype=np.int64)] = 0.0

    solution = DCSolution(
        compiled=compiled,
        node_voltage_array=voltages,
        resistor_current_array=currents,
        resistor_loss_array=losses,
        source_current_array=source_currents,
    )
    if check:
        _verify(solution, amp, volt, v_full)
    return solution


def solve_dc(netlist: Netlist | CompiledNetlist, check: bool = True) -> DCSolution:
    """Solve the DC operating point of a netlist.

    Args:
        netlist: the circuit to solve (a builder-style
            :class:`~repro.pdn.network.Netlist` or an already-compiled
            :class:`~repro.pdn.network.CompiledNetlist`).
        check: verify KCL and power balance on the solution
            (cheap relative to the factorization; disable only in
            tight inner loops that have been validated already).

    Raises:
        SolverError: singular/disconnected system or non-finite result.
    """
    return FactorizedPDN(netlist).solve(check=check)


def _verify(
    solution: DCSolution,
    cs_amp: np.ndarray,
    vs_volt: np.ndarray,
    v_full: np.ndarray,
) -> None:
    """Check KCL at every node and overall power balance (vectorized)."""
    compiled = solution.compiled
    source_currents = solution.source_current_array
    residual = compiled.incidence @ np.concatenate(
        [solution.resistor_current_array, cs_amp, source_currents]
    )
    scale = max(
        1.0,
        float(np.abs(cs_amp).max(initial=0.0)),
        float(np.abs(source_currents).max(initial=0.0)),
    )
    worst = float(np.abs(residual).max(initial=0.0))
    if worst > 1e-6 * scale:
        raise SolverError(
            f"KCL violated: worst node residual {worst:.3e} A "
            f"(scale {scale:.3e} A)"
        )

    source_power = float(vs_volt @ source_currents)
    load_power = float(
        cs_amp @ (v_full[compiled.cs_from] - v_full[compiled.cs_to])
    )
    dissipated = float(solution.resistor_loss_array.sum())
    imbalance = abs(source_power - load_power - dissipated)
    power_scale = max(1.0, abs(source_power), abs(load_power), dissipated)
    if imbalance > 1e-6 * power_scale:
        raise SolverError(
            f"power balance violated: sources {source_power:.6e} W, "
            f"loads {load_power:.6e} W, dissipation {dissipated:.6e} W"
        )
