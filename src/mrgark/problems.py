"""Desk-scale partitioned test problems.

* ``LinearTwoRate``: y' = lambda_f*y + lambda_s*y with a known exponential
  solution; the workhorse for convergence and oracle tests.
* ``CoupledNonlinearScalar``: a mildly stiff scalar split whose partitions
  interact nonlinearly, for exercising the mixed error estimators.
* ``GrayScott``: the two-species reaction-diffusion model on a cell-centered
  n-by-n grid over the unit square, second-order flux-form diffusion with
  zero-flux (or periodic) closure, with either constant or state- and
  position-dependent diffusion coefficients.  Reaction is the fast partition,
  diffusion the slow one; ``swap_roles`` flips that assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoReference, NonFiniteInput
from .stepping import PartitionedOde

__all__ = [
    "LinearTwoRate",
    "CoupledNonlinearScalar",
    "GrayScott",
    "rhs_parts",
    "reference_error",
    "make_problem",
    "PROBLEM_NAMES",
]


@dataclass(frozen=True)
class LinearTwoRate:
    lambda_fast: float = -10.0
    lambda_slow: float = -1.0
    y0: float = 1.0

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


@dataclass(eq=False)
class GrayScott:
    """Gray-Scott model, reaction fast / diffusion slow (unless swapped)."""

    n: int = 32
    feed: float = 0.0180
    kill: float = 0.0520
    eps_u: float = 0.0625
    eps_v: float = 0.0312
    diffusion_mode: str = "nonlinear"  # or "linear"
    boundary: str = "neumann"  # or "periodic"
    swap_roles: bool = False
    _sin_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n % 8:
            raise InvalidInput("grid size must be divisible by 8")
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

    def diffusion_jacobian(self) -> np.ndarray:
        """Dense Jacobian of the diffusion part; linear mode only.

        Built from the 1-D flux-form operator via Kronecker products, so it is
        exactly the matrix applied by :meth:`diffusion`.  Dense storage: meant
        for modest grids (tests, implicit experiments), not production sizes.
        """
        if self.diffusion_mode != "linear":
            raise NotImplementedError("analytic Jacobian is provided for linear diffusion only")
        n, h = self.n, self.spacing
        L = np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1)
        if self.boundary == "neumann":
            L -= np.diag(np.concatenate([[1.0], np.full(n - 2, 2.0), [1.0]]))
        else:
            L -= 2.0 * np.eye(n)
            L[0, -1] += 1.0
            L[-1, 0] += 1.0
        eye = np.eye(n)
        lap = (np.kron(L, eye) + np.kron(eye, L)) / h**2
        z = np.zeros_like(lap)
        top = np.concatenate([self.eps_u * lap, z], axis=1)
        bot = np.concatenate([z, self.eps_v * lap], axis=1)
        return np.concatenate([top, bot], axis=0)

    def to_ode(self) -> PartitionedOde:
        jac_slow = None
        if self.diffusion_mode == "linear" and not self.swap_roles:
            j = self.diffusion_jacobian()
            jac_slow = lambda y: j
        return PartitionedOde(
            dimension=self.dimension,
            f_slow=self.f_slow,
            f_fast=self.f_fast,
            jac_slow=jac_slow,
        )


def rhs_parts(problem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_slow(y), f_fast(y)); rejects non-finite input states."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("state contains NaN/Inf")
    return np.asarray(problem.f_slow(y), dtype=float), np.asarray(problem.f_fast(y), dtype=float)


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
