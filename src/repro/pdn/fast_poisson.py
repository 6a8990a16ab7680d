"""Structure-exploiting fast-Poisson solver for uniform-mesh PDNs.

The compiled grid operator of :class:`~repro.pdn.grid.GridPDN` is a
near-Poisson Laplacian: a uniform ``nx × ny`` rectangular mesh whose
x/y edge conductances are constant, plus a handful of irregularities —
VR source branches, ring-bus segments, and (optionally) per-edge metal
variation.  This module solves that system in O(n² log n) instead of
sparse-LU time by diagonalizing the uniform interior with fast
trigonometric transforms and handling everything that breaks pure
structure as a small correction:

* The free (Neumann) mesh Laplacian ``G = gx·(I ⊗ Lx) + gy·(Ly ⊗ I)``
  is diagonalized exactly by the orthonormal **DCT-II** along each
  axis.  One 2-D transform pair per solve, trivially batched over
  right-hand-side columns.
* A per-node shunt diagonal (zero for DC, the decap companion
  conductances of the transient stamp) enters as an operator shift
  equal to its most common value; the few nodes that deviate ride the
  correction as unit columns, up to
  :data:`MAX_STRUCTURED_DECAP_DEVIATIONS`.
* With a zero shift ``G`` is singular (the constant mode); the zero
  eigenvalue is deflated by a rank-1 shift ``τ·u₀u₀ᵀ`` that is
  subtracted back out through the same correction, and one
  iterative-refinement round recovers the digits the deflated solve
  loses.  A shifted operator needs neither.
* Source output conductances (rank-1 each), ring-bus segments (rank-1
  each), shunt deviations and the deflation column enter as one rank-k
  Woodbury correction ``A = M + U C Uᵀ`` on the fast operator ``M`` —
  the same identity :meth:`repro.pdn.mna.FactorizedPDN.solve_modified_many`
  uses on the cached LU, here with ``M⁻¹`` a transform pair instead of
  a back-substitution.
* Per-edge metal variation makes the interior genuinely non-uniform;
  those systems run preconditioned CG (:mod:`repro.pdn.pcg`) with the
  *exact* uniform-mean structured solve as the preconditioner.

Disabling a source (an open-circuited regulator) simply drops its
column from the correction, so N−1/N−k sweeps share every transform
and memoized influence column across scenarios.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from ..errors import ConfigError, SolverError
from .mesh import check_real
from .mna import DCSolution, package_dc_solution
from .network import CompiledNetlist
from .pcg import pcg_solve

#: Shunt-diagonal non-uniformity rides the Woodbury correction as unit
#: columns; past this many deviating nodes the correction stops being
#: "low-rank" and the sparse LU wins.
MAX_STRUCTURED_DECAP_DEVIATIONS = 64


class StructuredSolveError(SolverError):
    """The structured engine cannot solve this system accurately.

    Raised on CG non-convergence or an ill-conditioned correction;
    callers running with ``engine="auto"`` catch it and fall back to
    the factorized (sparse LU) path.
    """


def poisson_mode_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of the 1-D unit-weight free-ended path Laplacian.

    The free chain is the PDN mesh (no connection past the die edge),
    diagonalized by the DCT-II basis with eigenvalues
    ``2(1 − cos(πk/n))``, ``k = 0..n−1`` — including the zero mode.
    """
    if n < 1:
        raise ConfigError("mode count needs n >= 1")
    k = np.arange(n, dtype=float)
    return 2.0 * (1.0 - np.cos(np.pi * k / n))


def dct2_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis matrix ``B[k, j]``.

    Row ``k`` is the k-th eigenvector of the free path Laplacian;
    ``B @ B.T = I``.  Used where per-node squared eigenvector weights
    are needed (the structured AC impedance map); bulk transforms go
    through ``scipy.fft`` instead.
    """
    j = np.arange(n, dtype=float)
    basis = np.cos(
        np.pi * np.arange(n, dtype=float)[:, None] * (2.0 * j[None, :] + 1.0)
        / (2.0 * n)
    )
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def branch_columns(
    cells: int,
    attach: np.ndarray,
    ring_a: np.ndarray,
    ring_b: np.ndarray,
    deflate: bool = True,
    unit_rows: np.ndarray | None = None,
) -> np.ndarray:
    """The branch block ``U`` of a Woodbury correction ``A = M + U C Uᵀ``.

    Columns, in order: the zero-mode deflation column ``u₀ = 1/√cells``
    (when ``deflate``), a unit column per ``unit_rows`` entry, a unit
    column per source ``attach`` row, and a ±1 column per ring segment
    ``(ring_a, ring_b)``.  Shared by the structured DC, AC and
    transient engines, which pair it with their own branch values.
    """
    rows = np.asarray(attach, dtype=np.int64)
    if unit_rows is not None:
        rows = np.concatenate([np.asarray(unit_rows, dtype=np.int64), rows])
    head = int(deflate)
    cols = np.arange(head, head + rows.size + len(ring_a))
    u = np.zeros((cells, cols.size + head))
    if deflate:
        u[:, 0] = 1.0 / np.sqrt(cells)
    u[rows, cols[: rows.size]] = 1.0
    ring = cols[rows.size :]
    u[ring_a, ring] += 1.0
    u[ring_b, ring] -= 1.0
    return u


def mesh_stencil(field: np.ndarray, gx, gy) -> np.ndarray:
    """The lateral mesh Laplacian applied to a ``(k, ny, nx)`` field stack.

    ``gx``/``gy`` are the x/y edge conductances: scalars, or per-edge
    ``(ny, nx−1)`` / ``(ny−1, nx)`` maps.  No sparse matrix is ever
    assembled, so matvecs stay O(n²) with small constants.
    """
    out = np.zeros_like(field)
    dx = (field[:, :, :-1] - field[:, :, 1:]) * gx
    out[:, :, :-1] += dx
    out[:, :, 1:] -= dx
    dy = (field[:, :-1, :] - field[:, 1:, :]) * gy
    out[:, :-1, :] += dy
    out[:, 1:, :] -= dy
    return out


class FastPoissonOperator:
    """``M = gx·(I ⊗ Lx) + gy·(Ly ⊗ I) [+ shift·I]`` with O(n² log n) solves.

    Grid node ``(ix, iy)`` occupies row ``iy·nx + ix`` (the mesh row
    convention of :func:`repro.pdn.mesh.mesh_edge_rows`).  With
    ``shift == 0`` the zero (constant) mode is deflated: its
    eigenvalue is replaced by ``τ = gx + gy`` and
    :attr:`deflation_tau` reports the value so callers can subtract
    ``τ·u₀u₀ᵀ`` back out via their low-rank correction.  A nonzero
    ``shift`` needs no deflation.
    """

    def __init__(
        self, nx: int, ny: int, gx: float, gy: float, shift: float = 0.0
    ) -> None:
        if nx < 1 or ny < 1 or nx * ny < 2:
            raise ConfigError("operator needs at least two mesh nodes")
        gx = check_real("gx", gx)
        gy = check_real("gy", gy)
        shift = check_real("shift", shift)
        if (nx > 1 and gx <= 0) or (ny > 1 and gy <= 0):
            raise ConfigError("edge conductances must be positive")
        self.nx = nx
        self.ny = ny
        self.gx = gx
        self.gy = gy
        lam_x = gx * poisson_mode_eigenvalues(nx) if nx > 1 else np.zeros(1)
        lam_y = gy * poisson_mode_eigenvalues(ny) if ny > 1 else np.zeros(1)
        lam = lam_y[:, None] + lam_x[None, :] + shift
        self.deflation_tau: float | None = None
        if shift == 0.0:
            tau = float(gx + gy)
            lam[0, 0] = tau
            self.deflation_tau = tau
        self._lam = lam

    @property
    def cells(self) -> int:
        return self.nx * self.ny

    def eigenvalues(self) -> np.ndarray:
        """The (ny, nx) modal eigenvalue array (deflated at [0, 0])."""
        return self._lam

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``M⁻¹ @ rhs`` for one column ``(cells,)`` or a stack
        ``(cells, k)`` — one batched DCT-II pair regardless of k.

        The transforms run on ``(k, cells)`` rows, each viewed as a
        ``(ny, nx)`` field.  A stack that is the transpose of a
        C-contiguous row array (the transient step loop's layout) is
        therefore transformed without a copy, and the result keeps
        that layout.
        """
        arr = np.asarray(rhs)
        single = arr.ndim == 1
        rows = np.ascontiguousarray(arr[None] if single else arr.T)
        if rows.ndim != 2 or rows.shape[1] != self.cells:
            raise ConfigError(
                f"rhs must have {self.cells} rows, got shape {arr.shape}"
            )
        field = rows.reshape(-1, self.ny, self.nx)
        hat = sfft.dctn(field, type=2, axes=(1, 2), norm="ortho")
        hat /= self._lam[None, :, :]
        out = sfft.idctn(hat, type=2, axes=(1, 2), norm="ortho")
        out = out.reshape(-1, self.cells)
        return out[0] if single else out.T


class StructuredGridPDN:
    """The fast-Poisson engine behind :class:`~repro.pdn.grid.GridPDN`
    and the structured :class:`~repro.pdn.grid_transient.GridTransientPDN`.

    Solves the *reduced* (mesh-node-only) system — source branches
    eliminated into diagonal conductances and RHS injections, plus a
    per-node ``shunt_conductance`` diagonal (zeros for DC, the decap
    companion conductances for a transient step) — then reconstructs
    the full MNA vector (EMF node voltages, branch currents) so
    solutions are packaged and physics-verified through exactly the
    same :func:`repro.pdn.mna.package_dc_solution` path as the
    factorized engine.

    Two modes, chosen by the presence of per-edge variation:

    * **uniform** — exact: DCT-diagonalized interior shifted by the
      most common shunt value + rank-k Woodbury correction, plus one
      iterative-refinement round when the shift is zero (deflated).
    * **pcg** — per-edge conductance scale maps break the structure;
      CG iterates on the true sparse operator with the uniform-mean
      structured solve as preconditioner.

    Raises:
        StructuredSolveError: more than
            :data:`MAX_STRUCTURED_DECAP_DEVIATIONS` (or a quarter of
            the nodes) deviate from the most common shunt value.
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        nx: int,
        ny: int,
        edge_conductance_x: float,
        edge_conductance_y: float,
        attach_rows: np.ndarray,
        source_conductance: np.ndarray,
        shunt_conductance: np.ndarray,
        ring_a: np.ndarray,
        ring_b: np.ndarray,
        ring_conductance: np.ndarray,
        edge_scale_x: np.ndarray | None = None,
        edge_scale_y: np.ndarray | None = None,
    ) -> None:
        self.compiled = compiled
        self.nx = nx
        self.ny = ny
        self.cells = nx * ny
        self.attach = np.asarray(attach_rows, dtype=np.int64)
        self.g_src = np.asarray(source_conductance, dtype=float)
        if not self.attach.size:
            raise ConfigError("structured engine needs at least one source")
        if np.any(self.g_src <= 0):
            raise ConfigError("source conductances must be positive")
        self.ring_a = np.asarray(ring_a, dtype=np.int64)
        self.ring_b = np.asarray(ring_b, dtype=np.int64)
        self.g_ring = np.asarray(ring_conductance, dtype=float)
        self._scale_x = None if edge_scale_x is None else np.asarray(
            edge_scale_x, dtype=float
        ).ravel()
        self._scale_y = None if edge_scale_y is None else np.asarray(
            edge_scale_y, dtype=float
        ).ravel()
        self.mode = (
            "pcg" if self._scale_x is not None or self._scale_y is not None
            else "uniform"
        )

        # Conductance scale maps multiply *resistance*, so per-edge
        # conductance divides by them; the operator (and hence the CG
        # preconditioner) uses the mean per-axis conductance.
        gx = edge_conductance_x
        gy = edge_conductance_y
        gx_op = gx * float(np.mean(1.0 / self._scale_x)) if (
            self._scale_x is not None and self._scale_x.size
        ) else gx
        gy_op = gy * float(np.mean(1.0 / self._scale_y)) if (
            self._scale_y is not None and self._scale_y.size
        ) else gy
        self.gx = gx
        self.gy = gy

        # The operator shift is the most common shunt value (a uniform
        # decap density leaves no deviations); every other node's
        # offset from it becomes a unit Woodbury column.
        self.shunt = np.asarray(shunt_conductance, dtype=float)
        values, counts = np.unique(self.shunt, return_counts=True)
        shift = float(values[int(np.argmax(counts))])
        self._dev_rows = np.nonzero(self.shunt != shift)[0]
        limit = min(MAX_STRUCTURED_DECAP_DEVIATIONS, max(1, self.cells // 4))
        if self._dev_rows.size > limit:
            raise StructuredSolveError(
                f"{self._dev_rows.size} shunt deviations exceed the "
                f"rank-{limit} correction budget"
            )
        self.op = FastPoissonOperator(nx, ny, gx_op, gy_op, shift=shift)
        self._deflated = self.op.deflation_tau is not None

        # Woodbury columns of A = M + U C Uᵀ: the deflation column
        # (subtracting the τ·u₀u₀ᵀ shift back out) when the shift is
        # zero, one per shunt deviation, one per source branch, one per
        # ring segment.
        u = branch_columns(
            self.cells,
            self.attach,
            self.ring_a,
            self.ring_b,
            self._deflated,
            self._dev_rows,
        )
        self._c = np.concatenate(
            [
                [-self.op.deflation_tau] if self._deflated else [],
                self.shunt[self._dev_rows] - shift,
                self.g_src,
                self.g_ring,
            ]
        )
        # Column of the first source branch (disabling drops it).
        self._src_col = int(self._deflated) + self._dev_rows.size
        # Z = M⁻¹U: one batched transform pair, paid at construction,
        # stored C-contiguous so every correction multiplies it in place.
        self._z = np.ascontiguousarray(self.op.solve(u))
        self._t0 = u.T @ self._z  # UᵀM⁻¹U, shape (k, k)
        # Per-edge conductance fields for the stencil matvec (scalars
        # in uniform mode; (ny, nx−1)/(ny−1, nx) maps under variation).
        self._gx_edges: "float | np.ndarray" = (
            gx if self._scale_x is None
            else gx / self._scale_x.reshape(ny, nx - 1)
        )
        self._gy_edges: "float | np.ndarray" = (
            gy if self._scale_y is None
            else gy / self._scale_y.reshape(ny - 1, nx)
        )

    # -- reduced operator ---------------------------------------------------------

    def _matvec(self, v: np.ndarray, disabled: np.ndarray) -> np.ndarray:
        """``A_live @ v`` for columns ``(cells,)`` or ``(cells, k)``,
        as a stencil on the (ny, nx) field (:func:`mesh_stencil`)."""
        single = v.ndim == 1
        field = np.ascontiguousarray(
            (v[None] if single else v.T)
        ).reshape(-1, self.ny, self.nx)
        flat = mesh_stencil(field, self._gx_edges, self._gy_edges).reshape(
            -1, self.cells
        )
        vf = field.reshape(-1, self.cells)
        flat += self.shunt * vf
        batch = np.arange(flat.shape[0])[:, None]
        if self.ring_a.size:
            drop = (vf[:, self.ring_a] - vf[:, self.ring_b]) * self.g_ring
            np.add.at(flat, (batch, self.ring_a[None, :]), drop)
            np.add.at(flat, (batch, self.ring_b[None, :]), -drop)
        live = np.ones(self.attach.size, dtype=bool)
        live[disabled] = False
        rows = self.attach[live]
        np.add.at(
            flat, (batch, rows[None, :]), self.g_src[live] * vf[:, rows]
        )
        return flat[0] if single else flat.T

    # -- Woodbury correction -------------------------------------------------------

    def _live_columns(self, disabled: np.ndarray) -> np.ndarray:
        live = np.ones(self._c.size, dtype=bool)
        live[self._src_col + disabled] = False
        return np.nonzero(live)[0]

    def _u_transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """``Uᵀ y`` from the column structure — the deflation row is a
        scaled sum, shunt deviations and sources are gathers, ring
        segments differences — never a dense (cells × k) product."""
        rows = [
            y[self._dev_rows],
            y[self.attach],
            y[self.ring_a] - y[self.ring_b],
        ]
        if self._deflated:
            rows.insert(0, y.sum(axis=0, keepdims=True) / np.sqrt(self.cells))
        return np.concatenate(rows, axis=0)

    def _correct(self, y: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Apply the Woodbury identity to ``y = M⁻¹ b``.

        ``x = y − Z_c (C_c⁻¹ + UᵀZ|_c)⁻¹ U_cᵀ y`` over the live column
        subset ``columns``.  The product runs against the whole stored
        ``Z``: dropped columns get a zero coefficient, so no
        (cells × k) block is ever gathered.  The update lands in ``y``
        itself, so a transposed row stack stays one.
        """
        s = self._t0[np.ix_(columns, columns)] + np.diag(
            1.0 / self._c[columns]
        )
        rhs = self._u_transpose_dot(y)[columns]
        with np.errstate(all="ignore"):
            try:
                coeff = np.linalg.solve(s, rhs)
            except np.linalg.LinAlgError as exc:
                raise StructuredSolveError(
                    f"structured correction is singular: {exc}"
                ) from exc
        if columns.size < self._c.size:
            full = np.zeros((self._c.size,) + coeff.shape[1:])
            full[columns] = coeff
            coeff = full
        y -= self._z @ coeff
        return y

    def _uniform_solve(
        self, b: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """Exact structured solve of the uniform-mean system."""
        return self._correct(self.op.solve(b), columns)

    # -- reduced solves --------------------------------------------------------------

    def solve_reduced(
        self, b: np.ndarray, disabled: np.ndarray | None = None
    ) -> np.ndarray:
        """Mesh node voltages for reduced RHS columns.

        ``b`` is ``(cells,)`` or ``(cells, k)``; ``disabled`` indexes
        open-circuited sources (their conductance column is dropped).

        Raises:
            StructuredSolveError: CG stall (pcg mode) or a singular
                correction — auto-mode callers fall back to sparse LU.
        """
        disabled = (
            np.empty(0, dtype=np.int64)
            if disabled is None
            else np.asarray(disabled, dtype=np.int64)
        )
        return self._solve(b, disabled)

    def _solve(self, b: np.ndarray, disabled: np.ndarray) -> np.ndarray:
        """The body of :meth:`solve_reduced`, which benchmark tracing
        wraps by name; the transient step loop calls this directly,
        once per time step.  Its ``b`` there is the ``(cells, k)``
        transpose of a C-contiguous ``(k, cells)`` stack, and the
        result keeps that layout.
        """
        columns = self._live_columns(disabled)
        if self.mode == "uniform":
            x = self._uniform_solve(b, columns)
            if self._deflated:
                # The deflated solve loses digits to the τ·u₀u₀ᵀ
                # cancellation; one refinement round on the true
                # operator restores ~1e-13 relative.  A shifted
                # operator is diagonally dominant enough without it.
                residual = b - self._matvec(x, disabled)
                x = x + self._uniform_solve(residual, columns)
        else:
            result = pcg_solve(
                lambda v: self._matvec(v, disabled),
                b,
                preconditioner=lambda r: self._uniform_solve(r, columns),
            )
            if not result.converged:
                raise StructuredSolveError(
                    "preconditioned CG stalled at relative residual "
                    f"{result.residual_norm:.3e} after "
                    f"{result.iterations} iterations"
                )
            x = result.x
        if not np.all(np.isfinite(x)):
            raise StructuredSolveError(
                "structured solve produced non-finite values"
            )
        return x

    # -- full MNA solutions ----------------------------------------------------------

    def _scenario_values(
        self, cs_amp: np.ndarray, vs_volt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        amp = np.asarray(cs_amp, dtype=float).ravel()
        volt = np.asarray(vs_volt, dtype=float).ravel()
        if amp.size != self.cells:
            raise SolverError(
                f"expected {self.cells} load currents, got {amp.size}"
            )
        if volt.size != self.attach.size:
            raise SolverError(
                f"expected {self.attach.size} source voltages, "
                f"got {volt.size}"
            )
        if np.any(amp < 0):
            raise SolverError("load currents must be non-negative")
        return amp, volt

    def _reduced_rhs(
        self, amp: np.ndarray, volt: np.ndarray, disabled: np.ndarray
    ) -> np.ndarray:
        b = -amp.astype(float, copy=True)
        live = np.ones(self.attach.size, dtype=bool)
        live[disabled] = False
        np.add.at(
            b, self.attach[live], self.g_src[live] * volt[live]
        )
        return b

    def _package(
        self,
        v: np.ndarray,
        amp: np.ndarray,
        volt: np.ndarray,
        disabled: np.ndarray,
        check: bool,
    ) -> DCSolution:
        """Rebuild the full MNA vector and package it.

        EMF node voltages are exact (``V_j`` when live; the attach
        node's potential when open-circuited — no drop across a dead
        output resistor), and branch currents follow Ohm's law through
        each output resistance.
        """
        v_attach = v[self.attach]
        i_src = self.g_src * (volt - v_attach)
        v_emf = volt.copy()
        if disabled.size:
            i_src[disabled] = 0.0
            v_emf[disabled] = v_attach[disabled]
        x = np.concatenate([v, v_emf, -i_src])
        return package_dc_solution(
            self.compiled,
            x,
            amp,
            volt,
            1.0 / self.compiled.res_ohm,
            check,
            disabled if disabled.size else None,
        )

    def solve(
        self, cs_amp: np.ndarray, vs_volt: np.ndarray, check: bool = True
    ) -> DCSolution:
        """Solve one operating point: :meth:`solve_disabled_many` with
        one all-sources-live scenario."""
        return self.solve_disabled_many([()], cs_amp, vs_volt, check)[0]

    def solve_many(
        self,
        cs_amp_matrix: np.ndarray,
        vs_volt: np.ndarray,
        check: bool = True,
    ) -> list[DCSolution]:
        """Solve a stack of sink scenarios, shape ``(k, cells)`` or a
        list of flattened maps, through one batched transform pair."""
        stack = np.atleast_2d(np.asarray(cs_amp_matrix, dtype=float))
        volt = np.asarray(vs_volt, dtype=float).ravel()
        scenarios = [
            self._scenario_values(row, volt)[0] for row in stack
        ]
        none = np.empty(0, dtype=np.int64)
        b = np.column_stack(
            [self._reduced_rhs(amp, volt, none) for amp in scenarios]
        )
        v = self.solve_reduced(b, none)
        return [
            self._package(v[:, i], amp, volt, none, check)
            for i, amp in enumerate(scenarios)
        ]

    def solve_disabled_many(
        self,
        scenarios: "list | tuple",
        cs_amp: np.ndarray,
        vs_volt: np.ndarray,
        check: bool = True,
    ) -> list[DCSolution]:
        """A whole failure sweep on shared transforms.

        Each scenario is a list of source indices to open-circuit.
        Every scenario reuses the memoized influence columns ``Z``.
        Per scenario the cost is two transform pairs (the solve and
        its refinement round), two s×s dense solves and two products
        against ``Z``, where s is the live column count.
        """
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        solutions: list[DCSolution] = []
        for scenario in scenarios:
            disabled = np.unique(np.asarray(scenario, dtype=np.int64))
            if disabled.size and (
                disabled.min() < 0 or disabled.max() >= self.attach.size
            ):
                raise SolverError("disable_sources index out of range")
            if disabled.size >= self.attach.size:
                raise SolverError("cannot disable every source")
            b = self._reduced_rhs(amp, volt, disabled)
            v = self.solve_reduced(b, disabled)
            solutions.append(self._package(v, amp, volt, disabled, check))
        return solutions
