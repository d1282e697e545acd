"""Desk-scale partitioned test problems.

* ``LinearTwoRate``: y' = lambda_f*y + lambda_s*y with a known exponential
  solution; the workhorse for convergence and oracle tests.
* ``CoupledNonlinearScalar``: a mildly stiff scalar split whose partitions
  interact nonlinearly, for exercising the mixed error estimators.
* ``GrayScott``: the two-species reaction-diffusion model on a cell-centered
  n-by-n grid over the unit square, with either constant or state- and
  position-dependent diffusion coefficients.  Diffusion is one second-order
  flux-form kernel over both species and both axes; its zero-flux (or
  periodic) closure is one face rule, which the diffusion Jacobians are built
  from too.  Each instance holds the work buffers of its diffusion kernel, so
  one instance must not run ``diffusion`` from two threads at once; the
  kernels always return fresh arrays.  Reaction is the fast partition,
  diffusion the slow one; ``swap_roles`` flips that assignment.  Its
  Jacobians are structured (:class:`ReactionJacobian`,
  :class:`DiffusionJacobian` for linear diffusion,
  :class:`NonlinearDiffusionJacobian` for nonlinear diffusion), so implicit
  stages solve I - a*J without a dense 2n^2 x 2n^2 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (InvalidInput, NewtonDivergence, NoReference, check_choice, check_count, check_real,
                     check_real_array)
from .stepping import PartitionedOde

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
    """Jacobian of nonlinear Gray-Scott diffusion at one state: one n^2 x n^2 5-point block per species.

    A face between cells a and b carries the flux (e_a + e_b)/2 * (w_b - w_a)/h
    with e = eps_w exp(-w/100) sin(pi x) sin(pi y), so e' = -e/100; the two
    species do not couple.  ``shifted_solver(a)`` inverts I - a*J_w for both
    species in one batched ``np.linalg.inv``, so each solve is a batched
    matvec; simplified Newton judges convergence on ||G||, so the inverse only
    sets the contraction rate.  ``np.asarray(J)`` is the dense
    (2n^2 x 2n^2) block-diagonal matrix.
    """

    def __init__(self, problem: GrayScott, y: np.ndarray):
        if problem.diffusion_mode != "nonlinear":
            raise InvalidInput("NonlinearDiffusionJacobian needs diffusion_mode='nonlinear'")
        w = np.asarray(y, dtype=float).reshape(2, problem.n, problem.n)
        e, w = problem._eps_fields(w).reshape(2, -1), w.reshape(2, -1)
        a, b = _face_cells(problem.n, problem.boundary)
        h2 = problem.spacing**2
        slope, mean = w[:, b] - w[:, a], 0.5 * (e[:, a] + e[:, b])
        # derivatives of flux/h by w_a and by w_b; cell a gains flux/h and cell b loses it
        d_a = (-0.005 * e[:, a] * slope - mean) / h2
        d_b = (-0.005 * e[:, b] * slope + mean) / h2
        n2 = problem.n**2
        self.blocks = np.zeros((2, n2, n2))
        self.blocks[:, a, b] = d_b
        self.blocks[:, b, a] = -d_a
        for s in range(2):
            self.blocks[s].flat[:: n2 + 1] = np.bincount(a, d_a[s], n2) - np.bincount(b, d_b[s], n2)

    def shifted_solver(self, a: float):
        m = self.blocks * -a
        cell = np.arange(m.shape[1])
        m[:, cell, cell] += 1.0
        if not np.isfinite(m).all():
            raise NewtonDivergence("singular Newton matrix")
        try:
            inverse = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise NewtonDivergence("singular Newton matrix") from None

        def solve(r):
            return (inverse @ r.reshape(2, -1, 1)).ravel()

        return solve

    def __array__(self, dtype=None, copy=None):
        n2 = self.blocks.shape[1]
        j = np.zeros((2 * n2, 2 * n2))
        j[:n2, :n2], j[n2:, n2:] = self.blocks
        return j if dtype is None else j.astype(dtype)


@dataclass(frozen=True, eq=False)
class GrayScott:
    """Gray-Scott model, reaction fast / diffusion slow (unless swapped).

    :meth:`to_ode` wires both Jacobians onto the partitions that hold their
    terms, as structured Jacobians whose shifted systems I - a*J have an exact
    cheap solve: the :class:`ReactionJacobian` at y (2x2 Cramer per cell), and
    for diffusion either the constant :class:`DiffusionJacobian` (linear mode,
    fast diagonalization; built on first use and shared by all of the
    problem's ODEs) or the :class:`NonlinearDiffusionJacobian` at y (one
    inverted 5-point block per species).  The fields are frozen, since that
    shared Jacobian and the sin(pi x) sin(pi y) grid are derived from them.

    Each instance allocates the work buffers of :meth:`diffusion` once, so
    one instance must not run it from two threads at once.  :meth:`diffusion`
    and :meth:`reaction` always return fresh arrays, which later calls leave
    alone.
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
        # work buffers of `diffusion`: w, and e in nonlinear mode, each as (axis, species, row, column),
        # where axis 1 holds the transposes; under periodic closure a last row repeats row 0
        rows = n + (self.boundary == "periodic")
        object.__setattr__(self, "_cells", np.zeros((1 + (self.diffusion_mode == "nonlinear"), 2, 2, rows, n)))
        # (axis, species, face, column): faces 0 and n stay zero, the closed boundary's zero flux
        object.__setattr__(self, "_faces", np.zeros((2, 2, n + 1, n)))

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

    def _eps_fields(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Nonlinear diffusion coefficient of each cell of the stacked state: eps * exp(-w/100) * sin(pi x) sin(pi y)."""
        e = np.divide(w, -100.0, out=out)  # w / -100 is -w / 100 exactly
        np.exp(e, out=e)
        np.multiply(self._eps, e, out=e)
        return np.multiply(e, self._sin_grid, out=e)

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
        """Flux-form div(e grad w) of both species, in a fresh array.

        Both axes run as one stacked pass in the instance's work buffers: the face
        between cells a and b carries 0.5 * (e_a + e_b) * (w_b - w_a) / h, or
        eps * (w_b - w_a) / h in linear mode, and each cell gains the difference of
        its two face fluxes over h.
        """
        n, h = self.n, self.spacing
        cells, faces = self._cells, self._faces
        linear, periodic = self.diffusion_mode == "linear", self.boundary == "periodic"
        # x / h in place; for n a power of two h is exact, so x * n is the same number at a product's cost
        over_h, by = (np.multiply, float(n)) if n & (n - 1) == 0 else (np.divide, h)
        np.copyto(cells[0, 0, :, :n], y.reshape(2, n, n))
        if not linear:
            self._eps_fields(cells[0, 0, :, :n], out=cells[1, 0, :, :n])
        # faces along axis 2 are faces along the rows of the transposes
        np.copyto(cells[:, 1, :, :n], cells[:, 0, :, :n].swapaxes(-1, -2))
        if periodic:  # the face between row n-1 and the copy of row 0 is the wrapped face
            cells[..., n, :] = cells[..., 0, :]
        lo, hi, flux = cells[..., :-1, :], cells[..., 1:, :], faces[:, :, 1:n + periodic]
        if linear:
            np.subtract(hi[0], lo[0], out=flux)
            np.multiply(self._eps, flux, out=flux)  # 0.5 * (eps + eps) is eps exactly
        else:
            np.add(hi[1], lo[1], out=flux)
            np.multiply(0.5, flux, out=flux)
            slope = lo[1]  # e is spent
            np.subtract(hi[0], lo[0], out=slope)
            np.multiply(flux, slope, out=flux)
        over_h(flux, by, out=flux)
        if periodic:
            faces[:, :, 0] = faces[:, :, n]
        div = cells[0, :, :, :n]  # w is spent
        np.subtract(faces[:, :, 1:], faces[:, :, :-1], out=div)
        over_h(div, by, out=div)
        out = np.empty(self.dimension)
        np.add(div[0], div[1].swapaxes(-1, -2), out=out.reshape(2, n, n))
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
        jac_slow, jac_fast = self.diffusion_jacobian, self.reaction_jacobian
        if self.swap_roles:
            jac_slow, jac_fast = jac_fast, jac_slow
        return PartitionedOde(
            dimension=self.dimension,
            f_slow=self.f_slow,
            f_fast=self.f_fast,
            jac_slow=jac_slow,
            jac_fast=jac_fast,
        )


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
