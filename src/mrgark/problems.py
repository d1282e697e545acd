"""Desk-scale partitioned test problems.

* ``LinearTwoRate``: y' = lambda_f*y + lambda_s*y with a known exponential
  solution; the workhorse for convergence and oracle tests.
* ``CoupledNonlinearScalar``: a mildly stiff scalar split whose partitions
  interact nonlinearly, for exercising the mixed error estimators.
* ``GrayScott``: the two-species reaction-diffusion model on a cell-centered
  n-by-n grid over the unit square, with either constant or state- and
  position-dependent diffusion coefficients.  Diffusion is one second-order
  flux-form kernel over both species and both axes, in contiguous passes over
  the flat state, with its exact factors (the 0.5 of a face's mean
  coefficient, and 1/h^2 for n a power of two) applied once per call and not
  per face; its zero-flux (or periodic) closure is one face rule, which
  the diffusion Jacobians are built from too.  Each instance holds the
  kernel's work buffers, so a call allocates only its result and one instance
  must not run ``diffusion`` from two threads at once; the kernels always
  return fresh arrays.  Reaction is the fast partition,
  diffusion the slow one; ``swap_roles`` flips that assignment.  Its
  Jacobians are structured (:class:`ReactionJacobian`,
  :class:`DiffusionJacobian` for linear diffusion,
  :class:`NonlinearDiffusionJacobian` for nonlinear diffusion, factored by
  block LU over the grid rows), so implicit stages solve I - a*J without a
  dense 2n^2 x 2n^2 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (InvalidInput, NewtonDivergence, NoReference, check_choice, check_count, check_real,
                     check_real_array)
from .stepping import PartitionedOde, _inverse

__all__ = [
    "LinearTwoRate",
    "CoupledNonlinearScalar",
    "GrayScott",
    "ReactionJacobian",
    "DiffusionJacobian",
    "NonlinearDiffusionJacobian",
    "reference_error",
    "make_problem",
    "PROBLEM_NAMES",
]


@dataclass(frozen=True)
class LinearTwoRate:
    lambda_fast: float = -10.0
    lambda_slow: float = -1.0
    y0: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            check_real(getattr(self, f.name), f.name)

    def initial_condition(self) -> np.ndarray:
        return np.array([self.y0])

    def f_fast(self, y):
        return self.lambda_fast * y

    def f_slow(self, y):
        return self.lambda_slow * y

    def exact(self, t: float) -> np.ndarray:
        return self.y0 * np.exp((self.lambda_fast + self.lambda_slow) * t) * np.ones(1)

    def to_ode(self) -> PartitionedOde:
        return PartitionedOde(
            dimension=1,
            f_slow=self.f_slow,
            f_fast=self.f_fast,
            jac_slow=lambda y: np.array([[self.lambda_slow]]),
            jac_fast=lambda y: np.array([[self.lambda_fast]]),
        )


@dataclass(frozen=True)
class CoupledNonlinearScalar:
    """Scalar split with genuinely interacting nonlinear partitions."""

    y0: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            check_real(getattr(self, f.name), f.name)

    def initial_condition(self) -> np.ndarray:
        return np.array([self.y0])

    def f_fast(self, y):
        return -10.0 * y + y**2

    def f_slow(self, y):
        return -y + 0.5 * np.cos(y)

    def to_ode(self) -> PartitionedOde:
        return PartitionedOde(
            dimension=1,
            f_slow=self.f_slow,
            f_fast=self.f_fast,
            jac_slow=lambda y: np.array([[-1.0 - 0.5 * math.sin(float(y[0]))]]),
            jac_fast=lambda y: np.array([[-10.0 + 2.0 * float(y[0])]]),
        )


def _line_faces(n: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Cells (a, b) of each face along a line of n cells, b after a: the n-1 interior
    faces, then the wrapped face (n-1, 0) under periodic closure; a zero-flux boundary has none."""
    a = np.arange(n if boundary == "periodic" else n - 1)
    return a, (a + 1) % n


def _check_shifted(factors: np.ndarray) -> np.ndarray:
    """The divisors of a structured shifted solve; NewtonDivergence if one is zero or non-finite."""
    if not (np.isfinite(factors).all() and factors.all()):
        raise NewtonDivergence("singular Newton matrix")
    return factors


class ReactionJacobian:
    """Jacobian of :meth:`GrayScott.reaction` at one state: a 2x2 block per cell.

    ``shifted_solver(a)`` solves (I - a*J) x = r cell by cell with Cramer's
    rule; ``np.asarray(J)`` is the dense (2n^2 x 2n^2) matrix.
    """

    def __init__(self, problem: GrayScott, y: np.ndarray):
        u, v = problem.split(np.asarray(y, dtype=float))
        uv, vv = (u * v).ravel(), (v * v).ravel()
        # the block [[du'/du, du'/dv], [dv'/du, dv'/dv]] of each cell
        self.blocks = (-vv - problem.feed, -2.0 * uv, vv, 2.0 * uv - (problem.feed + problem.kill))

    def shifted_solver(self, a: float):
        j11, j12, j21, j22 = self.blocks
        m11, m12, m21, m22 = 1.0 - a * j11, -a * j12, -a * j21, 1.0 - a * j22
        det = _check_shifted(m11 * m22 - m12 * m21)
        n2 = det.size

        def solve(r):
            ru, rv = r[:n2], r[n2:]
            return np.concatenate([(m22 * ru - m12 * rv) / det, (m11 * rv - m21 * ru) / det])

        return solve

    def __array__(self, dtype=None, copy=None):
        n2 = self.blocks[0].size
        cell = np.arange(n2)
        j = np.zeros((2 * n2, 2 * n2))
        for (row, col), entries in zip(((0, 0), (0, n2), (n2, 0), (n2, n2)), self.blocks):
            j[cell + row, cell + col] = entries
        return j if dtype is None else j.astype(dtype)


class DiffusionJacobian:
    """Constant Jacobian of linear Gray-Scott diffusion: eps_w (L (x) I + I (x) L) / h^2 per species w.

    Held as the eigendecomposition L = Q diag(mu) Q^T of the symmetric n x n
    1-D operator, so ``shifted_solver(a)`` is the fast diagonalization method
    (Lynch, Rice & Thomas, *Numer. Math.* 6, 1964): per species, Q^T R Q, a
    divide by 1 - a eps_w (mu_i + mu_j) / h^2, then Q (...) Q^T.
    ``np.asarray(J)`` is the dense (2n^2 x 2n^2) matrix.
    """

    def __init__(self, problem: GrayScott):
        if problem.diffusion_mode != "linear":
            raise InvalidInput("DiffusionJacobian needs diffusion_mode='linear'")
        n = problem.n
        a, b = _line_faces(n, problem.boundary)
        # each face couples its two cells, and each row sums to zero (no source)
        L = np.zeros((n, n))
        L[a, b] = L[b, a] = 1.0
        np.fill_diagonal(L, -L.sum(axis=1))
        mu, self.Q = np.linalg.eigh(L)
        self.L, self.h = L, problem.spacing
        self.eigenvalues = (mu[:, None] + mu[None, :]) / self.h**2  # of the 2-D operator, per (i, j)
        self.eps = problem._eps

    def shifted_solver(self, a: float):
        factors = _check_shifted(1.0 - (a * self.eps) * self.eigenvalues)
        Q = self.Q

        def solve(r):
            return (Q @ ((Q.T @ r.reshape(factors.shape) @ Q) / factors) @ Q.T).ravel()

        return solve

    def __array__(self, dtype=None, copy=None):
        eye = np.eye(self.L.shape[0])
        lap = (np.kron(self.L, eye) + np.kron(eye, self.L)) / self.h**2
        j = np.kron(np.diag(self.eps.ravel()), lap)
        return j if dtype is None else j.astype(dtype)


def _face_cells(n: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (a, b) of the two cells of each face of the n x n grid, b after a: axis-0 faces, then axis-1."""
    idx = np.arange(n * n).reshape(n, n)
    return tuple(np.concatenate([idx[c].ravel(), idx[:, c].ravel()]) for c in _line_faces(n, boundary))


class NonlinearDiffusionJacobian:
    """Jacobian of nonlinear Gray-Scott diffusion at one state, held as its per-face derivatives.

    A face between cells a and b carries the flux (e_a + e_b)/2 * (w_b - w_a)/h
    with e = eps_w exp(-w/100) sin(pi x) sin(pi y), so e' = -e/100; the two
    species do not couple.  ``d_a`` and ``d_b`` (species, face) are the
    derivatives of each face's flux/h by w_a and by w_b, for the faces
    ``faces = (a, b)`` of :func:`_face_cells`: J[a, b] = d_b, J[b, a] = -d_a,
    and each cell's diagonal entry sums its faces.

    Over the n grid rows, I - a*J is block tridiagonal: the n x n block of a
    row is (periodic-)tridiagonal, and neighbouring rows couple through
    diagonal blocks.  ``shifted_solver(a)`` factors it by block LU (Golub &
    Van Loan, *Matrix Computations*, 4.5.1) for both species at once, inverting
    each n x n Schur complement with one batched ``np.linalg.inv``: O(n^4)
    flops and O(n^3) memory per build, and O(n^3) flops per solve.  Row n-1
    is a border: periodic closure's coupling of rows 0 and n-1 is carried
    through the elimination as a spike from row 0; under Neumann closure the
    spike starts at row n-2, the neighbour of row n-1.
    Simplified Newton judges convergence on ||G||, so the factor only sets the
    contraction rate.  ``np.asarray(J)`` is the dense (2n^2 x 2n^2)
    block-diagonal matrix, for test oracles.
    """

    def __init__(self, problem: GrayScott, y: np.ndarray):
        if problem.diffusion_mode != "nonlinear":
            raise InvalidInput("NonlinearDiffusionJacobian needs diffusion_mode='nonlinear'")
        self.n = problem.n
        w = np.asarray(y, dtype=float).reshape(2, problem.n, problem.n)
        e, w = problem._eps_fields(w).reshape(2, -1), w.reshape(2, -1)
        self.faces = a, b = _face_cells(problem.n, problem.boundary)
        h2 = problem.spacing**2
        slope, mean = w[:, b] - w[:, a], 0.5 * (e[:, a] + e[:, b])
        # derivatives of flux/h by w_a and by w_b; cell a gains flux/h and cell b loses it
        self.d_a = (-0.005 * e[:, a] * slope - mean) / h2
        self.d_b = (-0.005 * e[:, b] * slope + mean) / h2

    def _diagonal(self) -> np.ndarray:
        """J's diagonal, (species, cell)."""
        n2 = self.n**2
        a, b = self.faces
        return np.stack([np.bincount(a, d_a, n2) - np.bincount(b, d_b, n2) for d_a, d_b in zip(self.d_a, self.d_b)])

    def shifted_solver(self, a: float):
        n = self.n
        line = self.d_a.shape[1] // (2 * n)  # faces per grid line; the faces across rows come first
        across = line * n
        # the entries of I - a*J: (I - a*J)[b, a] = a*d_a and (I - a*J)[a, b] = -a*d_b per face, and the diagonal
        ad_a, ad_b, diagonal = self.d_a * a, self.d_b * -a, self._diagonal() * -a + 1.0
        if not (np.isfinite(ad_a).all() and np.isfinite(ad_b).all() and np.isfinite(diagonal).all()):
            raise NewtonDivergence("singular Newton matrix")
        # I - a*J by (grid row, species): the diagonal blocks D, and the diagonal couplings up[i] of
        # row i to row i+1 and lo[i] of row i to row i-1, both wrapping, so zero at Neumann's lo[0] and up[n-1]
        up, lo = np.zeros((2, n, 2, n))
        up[:line] = ad_b[:, :across].reshape(2, line, n).swapaxes(0, 1)
        lo[np.arange(1, line + 1) % n] = ad_a[:, :across].reshape(2, line, n).swapaxes(0, 1)
        col = np.arange(n)
        nxt = (col[:line] + 1) % n
        D = np.zeros((n, 2, n, n))
        D[:, :, col[:line], nxt] = ad_b[:, across:].reshape(2, n, line).swapaxes(0, 1)
        D[:, :, nxt, col[:line]] = ad_a[:, across:].reshape(2, n, line).swapaxes(0, 1)
        D[:, :, col, col] = diagonal.reshape(2, n, n).swapaxes(0, 1)

        # Eliminating row i < n-1 leaves its Schur complement S_i in D[i], kept as P[i] = S_i^-1.
        # Row n-1 is the border: from the first row coupled to it (row 0 under periodic closure, row
        # n-2 under Neumann), row i holds the coupling spike_col to row n-1 and row n-1 the coupling
        # spike_row to row i, kept as W[i - first] = P[i] spike_col and V[i - first] = spike_row P[i].
        # diag(lo[i]) X is lo_col[i] * X, and X diag(up[i]) is X * up_row[i];
        # E[i] = diag(lo[i+1]) P[i] and F[i] = P[i] diag(up[i]).
        lo_col, up_row = lo[:, :, :, None], up[:, :, None, :]
        first = 0 if line == n else n - 2
        P = np.empty((n, 2, n, n))
        W, V = np.empty((2, n - 1 - first, 2, n, n))
        E = np.empty((n - 2, 2, n, n))
        spike_col, spike_row = np.zeros((2, 2, n, n))
        spike_col[:, col, col], spike_row[:, col, col] = lo[0], up[n - 1]
        border = D[n - 1]
        for i in range(n - 1):
            if i == n - 2:  # rows n-2 and n-1 are neighbours too
                spike_col[:, col, col] += up[i]
                spike_row[:, col, col] += lo[i + 1]
            P_i = P[i]
            P_i[...] = _inverse(D[i])
            if i >= first:
                W_i = np.matmul(P_i, spike_col, out=W[i - first])
                V_i = np.matmul(spike_row, P_i, out=V[i - first])
                border -= V_i @ spike_col
                spike_col, spike_row = W_i * -lo_col[i + 1], V_i * -up_row[i]  # of row i+1
            if i < n - 2:
                E_i = np.multiply(lo_col[i + 1], P_i, out=E[i])
                D[i + 1] -= E_i * up_row[i]
        P[n - 1] = _inverse(border)
        F = np.multiply(P[:n - 2], up_row[:n - 2], out=D[:n - 2])  # those blocks of D are spent
        forward, backward = list(E), list(F)[::-1]

        def solve(r):
            z = r.reshape(2, n, n, 1).transpose(1, 0, 2, 3).copy()  # (row, species, column, 1)
            rows = list(z)
            for E_i, z_i, z_next in zip(forward, rows, rows[1:]):
                z_next -= E_i @ z_i
            rows[-1] -= (V @ z[first:-1]).sum(axis=0)
            x = P @ z
            x[first:-1] -= W @ x[-1]
            rows = list(x)[-2::-1]
            for F_i, x_next, x_i in zip(backward, rows, rows[1:]):
                x_i -= F_i @ x_next
            return x.transpose(1, 0, 2, 3).ravel()

        return solve

    def __array__(self, dtype=None, copy=None):
        n2 = self.n**2
        a, b = self.faces
        j = np.zeros((2 * n2, 2 * n2))
        for s, block in enumerate((j[:n2, :n2], j[n2:, n2:])):
            block[a, b] = self.d_b[s]
            block[b, a] = -self.d_a[s]
        j[np.arange(2 * n2), np.arange(2 * n2)] = self._diagonal().ravel()
        return j if dtype is None else j.astype(dtype)


@dataclass(frozen=True, eq=False)
class GrayScott:
    """Gray-Scott model, reaction fast / diffusion slow (unless swapped).

    :meth:`to_ode` wires both Jacobians onto the partitions that hold their
    terms, as structured Jacobians whose shifted systems I - a*J have an exact
    cheap solve: the :class:`ReactionJacobian` at y (2x2 Cramer per cell), and
    for diffusion either the constant :class:`DiffusionJacobian` (linear mode,
    fast diagonalization; built on first use and shared by all of the
    problem's ODEs) or the :class:`NonlinearDiffusionJacobian` at y (block LU
    over the grid rows, O(n^4) per factor).  The fields are frozen, since that
    shared Jacobian and the sin(pi x) sin(pi y) grid are derived from them.

    Each instance allocates the work buffers of :meth:`diffusion` once, so a
    call allocates only its result and one instance must not run it from two
    threads at once.  :meth:`diffusion` and :meth:`reaction` always return
    fresh arrays, which later calls leave alone.
    """

    n: int = 32
    feed: float = 0.0180
    kill: float = 0.0520
    eps_u: float = 0.0625
    eps_v: float = 0.0312
    diffusion_mode: str = "nonlinear"  # or "linear"
    boundary: str = "neumann"  # or "periodic"
    swap_roles: bool = False
    _sin_grid: np.ndarray = field(init=False, repr=False)
    _eps: np.ndarray = field(init=False, repr=False)
    _cells: np.ndarray = field(init=False, repr=False)
    _faces: np.ndarray = field(init=False, repr=False)
    _diffusion_jac: DiffusionJacobian | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if check_count(self.n, "n", 8) % 8:
            raise InvalidInput(f"grid size n must be divisible by 8, got {self.n}")
        for name in ("feed", "kill", "eps_u", "eps_v"):
            check_real(getattr(self, name), name)
        if self.eps_u < 0.0 or self.eps_v < 0.0:
            raise InvalidInput(f"eps_u and eps_v must be >= 0, got {self.eps_u!r}, {self.eps_v!r}")
        if not isinstance(self.swap_roles, bool):
            raise InvalidInput(f"swap_roles must be a bool, got {self.swap_roles!r}")
        check_choice(self.diffusion_mode, "diffusion_mode", ("linear", "nonlinear"))
        check_choice(self.boundary, "boundary", ("neumann", "periodic"))
        n, x = self.n, self.cell_centers()
        object.__setattr__(self, "_sin_grid", np.sin(np.pi * x)[:, None] * np.sin(np.pi * x)[None, :])
        # (eps_u, eps_v) shaped (2, 1, 1), to broadcast over the stacked (2, n, n) state
        object.__setattr__(self, "_eps", np.array([self.eps_u, self.eps_v]).reshape(2, 1, 1))
        # work buffers of `diffusion`: cells (2n^2); faces across rows (2n^2 + n), along rows (2n^2 + 1), wrapped (2n)
        object.__setattr__(self, "_cells", np.zeros(2 * n * n))
        object.__setattr__(self, "_faces", np.zeros(4 * n * n + 3 * n + 1))

    @property
    def dimension(self) -> int:
        return 2 * self.n * self.n

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n2 = self.n * self.n
        return y[:n2].reshape(self.n, self.n), y[n2:].reshape(self.n, self.n)

    def _eps_fields(self, w: np.ndarray, out: np.ndarray | None = None, factor: float = 1.0) -> np.ndarray:
        """Nonlinear diffusion coefficient of each cell of the stacked state: eps * exp(-w/100) * sin(pi x) sin(pi y).

        ``factor`` scales eps, and so each coefficient: by 0.5 it halves them exactly while they stay normal floats.
        """
        e = np.divide(w, -100.0, out=out)  # w / -100 is -w / 100 exactly
        np.exp(e, out=e)
        for eps, e_w in zip(self._eps.ravel(), e):  # per species: a broadcast product in place copies its operand
            np.multiply(np.multiply(factor * eps, e_w, out=e_w), self._sin_grid, out=e_w)
        return e

    def reaction(self, y: np.ndarray) -> np.ndarray:
        """-u v^2 + feed (1 - u) and u v^2 - (feed + kill) v, in a fresh array."""
        u, v = self.split(y)
        uv2 = u * v
        uv2 *= v
        out = np.empty(self.dimension)
        du, dv = out.reshape(2, self.n, self.n)
        np.subtract(1.0, u, out=du)
        np.multiply(self.feed, du, out=du)
        du -= uv2  # -uv2 + feed (1 - u) bit for bit: x - a is x + (-a)
        np.multiply(self.feed + self.kill, v, out=dv)
        np.subtract(uv2, dv, out=dv)
        return out

    def diffusion(self, y: np.ndarray) -> np.ndarray:
        """Flux-form div(e grad w) of both species in a fresh array, the only allocation of a call.

        The face between cells a and b carries 0.5 * (e_a + e_b) * (w_b - w_a) / h (eps * (w_b - w_a) / h in linear
        mode), and each cell gains the difference of its two face fluxes over h, across rows plus along rows.  Faces
        are contiguous passes over the flat state, w[n:] - w[:-n] and w[1:] - w[:-1], into the slot before each cell;
        slots at row ends and at the species boundary hold zero flux, or under periodic closure the wrapped faces.
        The 0.5 rides on each cell's coefficient, (0.5 * e_a + 0.5 * e_b) being 0.5 * (e_a + e_b) exactly.  For n a
        power of two h = 1/n is exact, so the two divisions by h become one final product by n^2; for other n each
        face and each cell difference is still divided by h.  Scaling by a power of two rounds nowhere, so the result
        is the unscaled formula's bit for bit, as long as no coefficient e is subnormal (|w| near 7e4, or a subnormal
        eps) and nothing in that formula overflows (in linear mode at n = 64, |w| from about 3e305).
        """
        n, n2, w = self.n, self.n * self.n, np.asarray(y, dtype=float).reshape(-1)
        cells, faces, out = self._cells, self._faces, np.empty(self.dimension)
        linear, periodic = self.diffusion_mode == "linear", self.boundary == "periodic"
        per_face_h = n & (n - 1) != 0  # h = 1/n rounds: divide each face and each difference by h
        if not linear:
            self._eps_fields(w.reshape(2, n, n), out=cells.reshape(2, n, n), factor=0.5)
        # the faces before cell k across rows and along rows, then the wrapped face of each column
        across, along, wrapped = faces[:2 * n2 + n], faces[2 * n2 + n:-2 * n], faces[-2 * n:].reshape(2, n)

        def flux(into, hi, lo, w=w, e=cells):  # the faces from cells w[lo] to w[hi]
            if linear:
                np.subtract(w[hi], w[lo], out=into)
                mid = (len(into) + 1) // 2  # the species meet mid-way, at slots that the closure overwrites
                for eps, part in zip(self._eps.ravel(), (into[:mid], into[mid:])):
                    np.multiply(eps, part, out=part)  # 0.5 * (eps + eps) is eps exactly
            else:
                np.add(e[hi], e[lo], out=into)  # halved coefficients: 0.5 * (e_hi + e_lo)
                slope = np.subtract(w[hi], w[lo], out=out[:into.size].reshape(into.shape))
                np.multiply(into, slope, out=into)
            if per_face_h:
                np.divide(into, self.spacing, out=into)

        flux(across[n:-n], np.s_[n:], np.s_[:-n])
        flux(along[1:-1], np.s_[1:], np.s_[:-1])
        across[n2:n2 + n] = along[n:-1:n] = 0.0
        if periodic:  # each row's wrapped face goes to its row-end slot
            flux(along[n::n], np.s_[::n], np.s_[n - 1::n])
            flux(wrapped, np.s_[:, 0], np.s_[:, -1], w.reshape(2, n, n), cells.reshape(2, n, n))
        np.subtract(along[1:], along[:-1], out=cells)  # e is spent; cells take the along-row divergence
        np.subtract(across[n:], across[:-n], out=out)
        if periodic:  # the edge cells directly: 0 - a + b would lose the sign of a zero
            np.subtract(along[1::n], along[n::n], out=cells[::n])
            np.subtract(across[n:].reshape(2, n, n)[:, 0], wrapped, out=out.reshape(2, n, n)[:, 0])
            np.subtract(wrapped, across[:-n].reshape(2, n, n)[:, -1], out=out.reshape(2, n, n)[:, -1])
        if per_face_h:
            np.divide(cells, self.spacing, out=cells)
            np.divide(out, self.spacing, out=out)
        out += cells
        if not per_face_h:
            out *= n2  # both divisions by h = 1/n at once
        return out

    def f_fast(self, y):
        return self.diffusion(y) if self.swap_roles else self.reaction(y)

    def f_slow(self, y):
        return self.reaction(y) if self.swap_roles else self.diffusion(y)

    def initial_condition(self) -> np.ndarray:
        u = np.ones((self.n, self.n))
        v = np.zeros((self.n, self.n))
        lo, hi = 3 * self.n // 8, 5 * self.n // 8
        u[lo:hi, lo:hi] = 0.5
        v[lo:hi, lo:hi] = 0.25
        return np.concatenate([u.ravel(), v.ravel()])

    def diffusion_jacobian(self, y: np.ndarray | None = None) -> DiffusionJacobian | NonlinearDiffusionJacobian:
        """Jacobian of :meth:`diffusion` at y; linear diffusion's is constant, built once and shared (y optional)."""
        if self.diffusion_mode == "nonlinear":
            if y is None:
                raise InvalidInput("nonlinear diffusion has a Jacobian at a state only; pass y")
            return NonlinearDiffusionJacobian(self, y)
        if self._diffusion_jac is None:
            object.__setattr__(self, "_diffusion_jac", DiffusionJacobian(self))
        return self._diffusion_jac

    def reaction_jacobian(self, y: np.ndarray) -> ReactionJacobian:
        """Jacobian of :meth:`reaction` at y."""
        return ReactionJacobian(self, y)

    def to_ode(self) -> PartitionedOde:
        jacobians = self.diffusion_jacobian, self.reaction_jacobian
        jac_slow, jac_fast = jacobians[::-1] if self.swap_roles else jacobians
        return PartitionedOde(self.dimension, self.f_slow, self.f_fast, jac_slow=jac_slow, jac_fast=jac_fast)


def reference_error(problem, y_T: np.ndarray, T: float, reference_state: np.ndarray | None = None) -> float:
    """Relative L2 error against the exact solution or a supplied reference."""
    y_T = check_real_array(y_T, "y_T")
    if reference_state is None:
        exact = getattr(problem, "exact", None)
        if exact is None:
            raise NoReference(f"{type(problem).__name__} has no exact solution; pass reference_state")
        reference_state = exact(T)
    ref = check_real_array(reference_state, "reference_state")
    if ref.size != y_T.size:
        raise InvalidInput(f"states compared must have the same size, got {y_T.size} and {ref.size}")
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(y_T - ref) / (denom if denom > 0 else 1.0))


_PROBLEMS = {
    "linear-two-rate": LinearTwoRate,
    "coupled-scalar": CoupledNonlinearScalar,
    "gray-scott": GrayScott,
}

PROBLEM_NAMES = tuple(_PROBLEMS)


def make_problem(name: str, **params):
    cls = _PROBLEMS[check_choice(name, "problem", PROBLEM_NAMES)]
    try:
        return cls(**params)
    except TypeError as exc:
        raise InvalidInput(f"bad parameters for {name}: {exc}") from None
