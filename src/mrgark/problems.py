"""Desk-scale partitioned test problems.

* ``LinearTwoRate``: y' = lambda_f*y + lambda_s*y with a known exponential
  solution; the workhorse for convergence and oracle tests.
* ``CoupledNonlinearScalar``: a mildly stiff scalar split whose partitions
  interact nonlinearly, for exercising the mixed error estimators.
* ``GrayScott``: the two-species reaction-diffusion model on a cell-centered
  n-by-n grid over the unit square, second-order flux-form diffusion with
  zero-flux (or periodic) closure, with either constant or state- and
  position-dependent diffusion coefficients.  Reaction is the fast partition,
  diffusion the slow one; ``swap_roles`` flips that assignment.  Its
  Jacobians are structured (:class:`ReactionJacobian`,
  :class:`DiffusionJacobian`), so implicit stages solve I - a*J exactly
  without forming it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInput, NewtonDivergence, NoReference
from .stepping import PartitionedOde
from .tableaux import _check_count

__all__ = [
    "LinearTwoRate",
    "CoupledNonlinearScalar",
    "GrayScott",
    "ReactionJacobian",
    "DiffusionJacobian",
    "reference_error",
    "make_problem",
    "PROBLEM_NAMES",
]


def _check_reals(problem, names) -> None:
    """InvalidInput unless each named parameter of ``problem`` is a finite real (bools are not)."""
    for name in names:
        value = getattr(problem, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise InvalidInput(f"{type(problem).__name__}: {name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class LinearTwoRate:
    lambda_fast: float = -10.0
    lambda_slow: float = -1.0
    y0: float = 1.0

    def __post_init__(self):
        _check_reals(self, (f.name for f in fields(self)))

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
        _check_reals(self, (f.name for f in fields(self)))

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


def _neumann_div_flux(field: np.ndarray, eps: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Flux-form d/dx(eps * du/dx) with zero-flux boundaries along ``axis``."""
    f = np.moveaxis(field, axis, 0)
    e = np.moveaxis(eps, axis, 0)
    face = 0.5 * (e[1:] + e[:-1]) * (f[1:] - f[:-1]) / h
    out = np.zeros_like(f)
    out[:-1] += face
    out[1:] -= face
    return np.moveaxis(out, 0, axis) / h


def _periodic_div_flux(field: np.ndarray, eps: np.ndarray, h: float, axis: int) -> np.ndarray:
    fp = np.roll(field, -1, axis=axis)
    ep = np.roll(eps, -1, axis=axis)
    face = 0.5 * (eps + ep) * (fp - field) / h  # flux through the "right" face of each cell
    return (face - np.roll(face, 1, axis=axis)) / h


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
        n = problem.n
        L = np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1)
        if problem.boundary == "neumann":
            L -= np.diag(np.concatenate([[1.0], np.full(n - 2, 2.0), [1.0]]))
        else:
            L -= 2.0 * np.eye(n)
            L[0, -1] += 1.0
            L[-1, 0] += 1.0
        mu, self.Q = np.linalg.eigh(L)
        self.L, self.h = L, problem.spacing
        self.eigenvalues = (mu[:, None] + mu[None, :]) / self.h**2  # of the 2-D operator, per (i, j)
        self.eps = np.array([problem.eps_u, problem.eps_v])[:, None, None]

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


@dataclass(eq=False)
class GrayScott:
    """Gray-Scott model, reaction fast / diffusion slow (unless swapped).

    :meth:`to_ode` wires every Jacobian the model has onto the partition that
    holds its term, as a structured Jacobian whose shifted systems
    I - a*J have an exact cheap solve: the :class:`ReactionJacobian` at y
    always (2x2 Cramer per cell), and in linear mode the constant
    :class:`DiffusionJacobian` (fast diagonalization), built on first use and
    shared by all of the problem's ODEs.  Nonlinear diffusion has none, so
    implicit stages there finite-difference a dense matrix.
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
    _diffusion_jac: DiffusionJacobian | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if _check_count(self.n, "n", 8) % 8:
            raise InvalidInput(f"grid size n must be divisible by 8, got {self.n}")
        _check_reals(self, ("feed", "kill", "eps_u", "eps_v"))
        if not isinstance(self.swap_roles, bool):
            raise InvalidInput(f"swap_roles must be a bool, got {self.swap_roles!r}")
        if self.diffusion_mode not in ("linear", "nonlinear"):
            raise InvalidInput("diffusion_mode must be 'linear' or 'nonlinear'")
        if self.boundary not in ("neumann", "periodic"):
            raise InvalidInput("boundary must be 'neumann' or 'periodic'")
        x = self.cell_centers()
        self._sin_grid = np.sin(np.pi * x)[:, None] * np.sin(np.pi * x)[None, :]

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

    def _eps_fields(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """Diffusion coefficients per cell: eps, or eps * exp(-w/100) * sin(pi x) sin(pi y)."""
        if self.diffusion_mode == "linear":
            shape = np.ones_like(u)
            return self.eps_u * shape, self.eps_v * shape
        return (
            self.eps_u * np.exp(-u / 100.0) * self._sin_grid,
            self.eps_v * np.exp(-v / 100.0) * self._sin_grid,
        )

    def reaction(self, y: np.ndarray) -> np.ndarray:
        u, v = self.split(y)
        uv2 = u * v * v
        du = -uv2 + self.feed * (1.0 - u)
        dv = uv2 - (self.feed + self.kill) * v
        return np.concatenate([du.ravel(), dv.ravel()])

    def diffusion(self, y: np.ndarray) -> np.ndarray:
        u, v = self.split(y)
        eu, ev = self._eps_fields(u, v)
        h = self.spacing
        div = _neumann_div_flux if self.boundary == "neumann" else _periodic_div_flux
        du = div(u, eu, h, 0) + div(u, eu, h, 1)
        dv = div(v, ev, h, 0) + div(v, ev, h, 1)
        return np.concatenate([du.ravel(), dv.ravel()])

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

    def diffusion_jacobian(self) -> DiffusionJacobian:
        """Jacobian of :meth:`diffusion`, linear mode only; built once and shared."""
        if self.diffusion_mode != "linear":
            raise NotImplementedError("analytic Jacobian is provided for linear diffusion only")
        if self._diffusion_jac is None:
            self._diffusion_jac = DiffusionJacobian(self)
        return self._diffusion_jac

    def reaction_jacobian(self, y: np.ndarray) -> ReactionJacobian:
        """Jacobian of :meth:`reaction` at y."""
        return ReactionJacobian(self, y)

    def to_ode(self) -> PartitionedOde:
        jac_diffusion = (lambda y: self.diffusion_jacobian()) if self.diffusion_mode == "linear" else None
        jac_slow, jac_fast = jac_diffusion, self.reaction_jacobian
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
    y_T = np.asarray(y_T, dtype=float)
    if reference_state is None:
        exact = getattr(problem, "exact", None)
        if exact is None:
            raise NoReference(f"{type(problem).__name__} has no exact solution; pass reference_state")
        reference_state = exact(T)
    ref = np.asarray(reference_state, dtype=float)
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(y_T - ref) / (denom if denom > 0 else 1.0))


_PROBLEMS = {
    "linear-two-rate": LinearTwoRate,
    "coupled-scalar": CoupledNonlinearScalar,
    "gray-scott": GrayScott,
}

PROBLEM_NAMES = tuple(_PROBLEMS)


def make_problem(name: str, **params):
    try:
        cls = _PROBLEMS[name]
    except KeyError:
        raise InvalidInput(f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise InvalidInput(f"bad parameters for {name}: {exc}") from None
