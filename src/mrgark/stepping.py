"""One macro-step of a multirate GARK method, streamed micro-step by micro-step.

The engine never materializes the assembled tableau.  The first step at a
given (method, M) compiles a plan, cached from then on: the stacked blocks
A^{fs,lambda} of :meth:`MrGarkMethod.couplings`, and per fast stage the slow
stages to compute right before it and the (slow stage, A^{sf,lambda} weight)
pairs its right-hand side feeds.
It is the stage order of :func:`assembly.derive_schedule` (both come from
:func:`assembly.place_slow_stages`), so a cyclic method is rejected before any
right-hand side runs.  Each fast-stage value is folded into the running fast
solution and into one accumulator per weight vector, so all four solutions
(main, embedded, and both mixed pairs used to split the error estimate) come
from the same stage evaluations at no extra cost.

Implicit (SDIRK) stages are solved by simplified Newton, :func:`newton_solve`.
Every implicit stage of a partition has the same Newton matrix I - a*J, with
a = h*gamma fast or H*gamma slow, so one matrix per partition is built at its
first implicit stage and reused by the later stages and micro-steps of the
step.  It is rebuilt only after an update that cuts the residual norm by less
than :data:`NEWTON_RATE`, and dropped when the step ends.  Size-1 systems
rebuild it every iteration.  A partition's ``jac`` returns J either as a dense
array, from which I - a*J is formed and solved by LU, or as a
:class:`StructuredJacobian`, whose ``shifted_solver(a)`` is the exact solve of
(I - a*J) x = r; that solver is then what is built, reused and rebuilt.

For methods with the first-same-as-last property the value of the last fast
stage of each micro-step equals the first stage of the next one, so its
right-hand side is reused across micro-steps and across accepted macro-steps.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .assembly import place_slow_stages
from .errors import InvalidInput, NewtonDivergence, NonFiniteState
from .tableaux import MethodFlag, MrGarkMethod, _check_count

__all__ = [
    "PartitionedOde",
    "StructuredJacobian",
    "Tolerances",
    "WorkCounters",
    "StepResult",
    "FsalCarry",
    "newton_solve",
    "NewtonResult",
    "NEWTON_RATE",
    "step",
    "integrate_fixed",
    "error_norm",
    "error_estimates",
]

#: forward-difference Jacobian increment, relative to 1 + |y_i|
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
#: a reused Newton matrix is rebuilt after an update that cuts ||G|| by less than this factor
NEWTON_RATE = 0.1
#: Newton converges when ||G|| <= NEWTON_TOL * (1 + ||y||), and fails after NEWTON_MAX_ITER updates
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class StructuredJacobian(Protocol):
    """A Jacobian J held in a form with an exact solve of its shifted systems."""

    def shifted_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """The solve r -> x of (I - a*J) x = r; raises NewtonDivergence if that system is singular."""


@dataclass(frozen=True, eq=False)
class PartitionedOde:
    """Additively partitioned autonomous ODE y' = f_slow(y) + f_fast(y).

    ``jac_slow``/``jac_fast`` return the partition's Jacobian at y: a dense
    (dimension x dimension) array, or, for systems of size > 1, a
    :class:`StructuredJacobian`.  Omitted, implicit stages finite-difference it.
    """

    dimension: int
    f_slow: Callable[[np.ndarray], np.ndarray]
    f_fast: Callable[[np.ndarray], np.ndarray]
    jac_slow: Callable[[np.ndarray], np.ndarray | StructuredJacobian] | None = None
    jac_fast: Callable[[np.ndarray], np.ndarray | StructuredJacobian] | None = None


@dataclass(frozen=True)
class Tolerances:
    """Componentwise tolerances entering the scaled error norm."""

    abs_tol: float | np.ndarray = 1e-6
    rel_tol: float | np.ndarray = 1e-6

    def __post_init__(self):
        try:
            abs_tol, rel_tol = np.asarray(self.abs_tol, dtype=float), np.asarray(self.rel_tol, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput(f"abs_tol and rel_tol must be real, got {self.abs_tol!r}, {self.rel_tol!r}") from None
        if not (np.all(abs_tol >= 0.0) and np.all(rel_tol >= 0.0)):
            raise InvalidInput("abs_tol and rel_tol must be >= 0 and not NaN")


@dataclass
class WorkCounters:
    fast_evals: int = 0
    slow_evals: int = 0
    newton_iterations: int = 0
    jacobians: int = 0  # Newton matrices or solvers built, analytic or finite-difference (FD RHS calls are in *_evals)


@dataclass(frozen=True, eq=False)
class FsalCarry:
    """Last fast-stage RHS of a finished step, reusable when states match."""

    y_next: np.ndarray
    f_fast_last: np.ndarray


@dataclass(eq=False)
class StepResult:
    y_next: np.ndarray
    y_hat: np.ndarray
    y_hat_slow: np.ndarray  # weights (b_f, b_hat_s)
    y_hat_fast: np.ndarray  # weights (b_hat_f, b_s)
    t: float
    H: float
    M: int
    t_slow: float
    t_fast: float
    counters: WorkCounters
    fsal_carry: FsalCarry | None = None


class NewtonResult(NamedTuple):
    y: np.ndarray
    iterations: int
    matrix: np.ndarray | Callable[[np.ndarray], np.ndarray] | None  # dG/dy last used, or the one passed in
    jacobians: int  # Newton matrices or solvers built, analytic or finite-difference


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    y_guess: np.ndarray,
    jac: Callable[[np.ndarray], np.ndarray | Callable[[np.ndarray], np.ndarray]] | None = None,
    matrix: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None,
) -> NewtonResult:
    """Solve G(y) = 0 for 1-D y; converged when ||G|| <= :data:`NEWTON_TOL` * (1 + ||y||).

    Simplified Newton (Hairer & Wanner, *Solving ODEs II*, IV.8): the Newton
    matrix dG/dy is ``matrix`` when given (one an earlier solve returned), or
    is built at the first iterate, and is reused while each update cuts ||G||
    by the factor :data:`NEWTON_RATE`.  After an update that does not, it is
    rebuilt at the new iterate.  An update through a reused matrix that makes
    ||G|| grow, or the iterate or residual non-finite, is discarded and
    retried with a matrix built at the iterate it started from; with such a
    fresh matrix the update is a full Newton step, and only then does a
    non-finite result raise :class:`NewtonDivergence`.  Size-1 systems rebuild
    on every iteration: there a rebuild costs less than the residual call a
    reused matrix would add.  Affine systems converge in a single update with
    an exact matrix.

    ``jac`` returns dG/dy, held in one of two ways: a dense array, solved by
    LU (by division at size 1), or, for systems of size > 1, a *solve*
    callable, so that the update is ``solve(-g)``; a solve of a singular
    system raises :class:`NewtonDivergence`.  Omitted, dG/dy is a dense
    forward-difference approximation with increment sqrt(eps) * (1 + |y_i|),
    at one residual call per column.  ``matrix`` and the returned matrix are
    held the same way.  The result carries the matrix last used, for the next
    solve with the same dG/dy, and the number of matrices built.
    """
    y = np.array(y_guess, dtype=float)
    y_norm = math.sqrt(y.dot(y))
    g = np.asarray(residual(y), dtype=float)
    g_norm = math.sqrt(g.dot(g))
    if _non_finite(g, g_norm):
        raise NewtonDivergence("residual is non-finite")
    rebuild, fresh, builds = matrix is None, False, 0
    for iteration in range(NEWTON_MAX_ITER + 1):
        if g_norm <= NEWTON_TOL * (1.0 + y_norm):
            return NewtonResult(y, iteration, matrix, builds)
        if iteration == NEWTON_MAX_ITER:
            break
        if rebuild or y.size == 1:
            matrix = _newton_matrix(residual, y, g, jac)
            rebuild, fresh, builds = False, True, builds + 1
        if y.size == 1:
            # what the LU solve computes for a 1x1 system, without its overhead
            if matrix[0, 0] == 0.0:
                raise NewtonDivergence("singular Newton matrix")
            delta = -g / matrix[0, 0]
        elif callable(matrix):
            delta = matrix(-g)
        else:
            try:
                delta = np.linalg.solve(matrix, -g)
            except np.linalg.LinAlgError as exc:
                # a reused matrix has solved before, so this one is fresh
                raise NewtonDivergence(f"singular Newton matrix: {exc}") from None
        y_new = y + delta
        y_new_norm = math.sqrt(y_new.dot(y_new))
        if _non_finite(y_new, y_new_norm):
            if fresh:
                raise NewtonDivergence("iterate is non-finite")
            rebuild = True
            continue
        g_new = np.asarray(residual(y_new), dtype=float)
        g_new_norm = math.sqrt(g_new.dot(g_new))
        if not fresh and not g_new_norm < g_norm:
            rebuild = True
            continue
        if _non_finite(g_new, g_new_norm):
            raise NewtonDivergence("residual is non-finite")
        rebuild = g_new_norm > NEWTON_RATE * g_norm
        y, y_norm, g, g_norm, fresh = y_new, y_new_norm, g_new, g_new_norm, False
    raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _non_finite(v: np.ndarray, v_norm: float) -> bool:
    # a non-finite norm is a non-finite entry or an overflowing square sum
    return not math.isfinite(v_norm) and not np.isfinite(v).all()


def _newton_matrix(residual, y: np.ndarray, g: np.ndarray, jac):
    """dG/dy at y from ``jac``, or by forward differences of the residual (g = G(y))."""
    if jac is not None:
        m = jac(y)
        if not callable(m):
            return np.asarray(m, dtype=float)
        if y.size == 1:
            raise InvalidInput("a solve callable for dG/dy needs a system of size > 1")
        return m
    j = np.empty((y.size, y.size))
    for i in range(y.size):
        dy = _SQRT_EPS * (1.0 + abs(y[i]))
        yp = y.copy()
        yp[i] += dy
        j[:, i] = (np.asarray(residual(yp)) - g) / dy
    return j


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """Stage order and coupling data of one (method, M); see the module docstring."""

    fs: np.ndarray  # (M, s_f, s_s): fs[lambda-1] = A^{fs,lambda}
    before: tuple[tuple[tuple[int, ...], ...], ...]  # [lambda-1][i]: slow stages to compute first
    scatter: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]  # [lambda-1][i]: (j, a_sf)
    trailing: tuple[int, ...]  # slow stages after the last micro-step


@lru_cache(maxsize=4096)
def _step_plan(method: MrGarkMethod, M: int) -> _StepPlan:
    s_f = method.fast.stage_count
    fs, sf = method.couplings(M)
    before, trailing = place_slow_stages(method, fs, sf)
    scatter = tuple(tuple(tuple((int(j), float(a[j, i])) for j in np.flatnonzero(a[:, i]))
                          for i in range(s_f)) for a in sf)
    return _StepPlan(fs, tuple(before[k:k + s_f] for k in range(0, M * s_f, s_f)), scatter, trailing)


def step(
    method: MrGarkMethod,
    ode: PartitionedOde,
    y_n: np.ndarray,
    t_n: float,
    H: float,
    M: int,
    *,
    fsal_carry: FsalCarry | None = None,
) -> StepResult:
    """Advance one macro-step of size H with M fast micro-steps.

    Methods with the first-same-as-last flag reuse the last fast-stage RHS,
    within the step and from ``fsal_carry`` when it belongs to ``y_n``.
    """
    M = _check_count(M)
    if not (isinstance(H, numbers.Real) and 0 < H < math.inf):
        raise InvalidInput(f"H must be finite and > 0, got {H!r}")
    plan = _step_plan(method, M)
    y_n = np.asarray(y_n, dtype=float)
    n = y_n.size
    s_f, s_s = method.stage_counts
    h = H / M
    Aff, Ass = method.fast.A, method.slow.A
    fast_implicit, slow_implicit = method.fast.is_implicit, method.slow.is_implicit

    calls, seconds = [0, 0], [0.0, 0.0]  # RHS calls and time per partition: [slow, fast]
    newton_iterations = jacobians = 0
    # per partition [slow, fast]: I - a*J or its solver, built at its first implicit
    # stage and reused by the later ones, since a = h*gamma is the same for all of them
    matrices: list[np.ndarray | Callable | None] = [None, None]

    def timed(fn, part):
        def call(y):
            calls[part] += 1
            t0 = time.perf_counter()
            out = np.asarray(fn(y), dtype=float)
            seconds[part] += time.perf_counter() - t0
            return out
        return call

    f_slow, f_fast = timed(ode.f_slow, 0), timed(ode.f_fast, 1)

    def solve_stage(rhs_known, a_diag, part, f, jac_fn):
        nonlocal newton_iterations, jacobians

        def jac(y):
            J = jac_fn(y)
            shifted_solver = getattr(J, "shifted_solver", None)
            if shifted_solver is not None:
                return shifted_solver(a_diag)
            m = np.asarray(J, dtype=float) * -a_diag  # a copy: the problem may share its J
            m.flat[:: y.size + 1] += 1.0
            return m

        res = newton_solve(lambda y: y - a_diag * f(y) - rhs_known, rhs_known,
                           None if jac_fn is None else jac, matrix=matrices[part])
        matrices[part] = res.matrix
        newton_iterations += res.iterations
        jacobians += res.jacobians
        return res.y

    # slow-stage RHS values, and per slow stage the sum of a_sf * F over fast stages so far
    slow_F, sf_acc = np.zeros((s_s, n)), np.zeros((s_s, n))

    def compute_slow(j):
        rhs = y_n + H * (slow_F[:j].T @ Ass[j, :j]) + h * sf_acc[j]
        Y = solve_stage(rhs, H * method.slow.gamma, 0, f_slow, ode.jac_slow) if slow_implicit else rhs
        slow_F[j] = f_slow(Y)

    fsal = method.has_flag(MethodFlag.FSAL)
    f_prev_last: np.ndarray | None = None
    if fsal and fsal_carry is not None and np.array_equal(fsal_carry.y_next, y_n):
        f_prev_last = fsal_carry.f_fast_last

    ytilde = y_n.copy()
    acc_bf, acc_bf_hat = np.zeros(n), np.zeros(n)
    # unstable step sizes overflow before the explicit finiteness checks fire;
    # silence the intermediate warnings, NonFiniteState is the real signal
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, (Afs, before, scatter) in enumerate(zip(plan.fs, plan.before, plan.scatter), 1):
            fast_F = np.zeros((s_f, n))
            for i in range(s_f):
                for j in before[i]:
                    compute_slow(j)
                rhs = ytilde + H * (slow_F.T @ Afs[i]) + h * (fast_F[:i].T @ Aff[i, :i])
                if fast_implicit:
                    Y = solve_stage(rhs, h * method.fast.gamma, 1, f_fast, ode.jac_fast)
                    F = f_fast(Y)
                else:
                    Y = rhs
                    F = f_prev_last if i == 0 and f_prev_last is not None else f_fast(Y)
                fast_F[i] = F
                for j, a in scatter[i]:
                    sf_acc[j] += a * F
            if fsal:
                f_prev_last = fast_F[s_f - 1]
            increment = fast_F.T @ method.fast.b
            acc_bf += increment
            acc_bf_hat += fast_F.T @ method.fast.b_hat
            ytilde = ytilde + h * increment
            if not np.isfinite(ytilde).all():
                raise NonFiniteState(f"fast solution non-finite in micro-step {lam}")
        for j in plan.trailing:
            compute_slow(j)

    # the four solutions share their fast (h * ...) and slow (H * ...) parts
    with_bf, with_bf_hat = y_n + h * acc_bf, y_n + h * acc_bf_hat
    slow_b, slow_b_hat = H * (slow_F.T @ method.slow.b), H * (slow_F.T @ method.slow.b_hat)
    y_next = with_bf + slow_b
    if not np.isfinite(y_next).all():
        raise NonFiniteState("macro-step produced non-finite state")

    carry = FsalCarry(y_next=y_next, f_fast_last=f_prev_last) if fsal and f_prev_last is not None else None
    return StepResult(
        y_next=y_next,
        y_hat=with_bf_hat + slow_b_hat,
        y_hat_slow=with_bf + slow_b_hat,
        y_hat_fast=with_bf_hat + slow_b,
        t=t_n + H,
        H=H,
        M=M,
        t_slow=seconds[0],
        t_fast=seconds[1],
        counters=WorkCounters(calls[1], calls[0], newton_iterations, jacobians),
        fsal_carry=carry,
    )


def integrate_fixed(method: MrGarkMethod, ode: PartitionedOde, y0: np.ndarray, t0: float, t_end: float,
                    H: float, M: int, on_step: Callable[[StepResult], None] | None = None) -> StepResult:
    """Take max(1, round((t_end - t0) / H)) equal steps, so t_end is hit exactly.

    ``on_step`` sees each step's result; the last one is returned.
    """
    span = t_end - t0
    if not (0 < span < math.inf and 0 < H < math.inf):
        raise InvalidInput(f"need finite t0 < t_end and H > 0, got t0={t0!r}, t_end={t_end!r}, H={H!r}")
    n = max(1, int(round(span / H)))
    y, t, carry = np.array(y0, dtype=float), t0, None
    for _ in range(n):
        result = step(method, ode, y, t, span / n, M, fsal_carry=carry)
        y, t, carry = result.y_next, result.t, result.fsal_carry
        if on_step is not None:
            on_step(result)
    return result


def error_norm(x: np.ndarray, y: np.ndarray, tolerances: Tolerances) -> float:
    """Scaled RMS deviation: values <= 1 mean "within tolerance"; never NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    abs_tol, rel_tol = np.asarray(tolerances.abs_tol, dtype=float), np.asarray(tolerances.rel_tol, dtype=float)
    scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(y))
    value = float(np.sqrt(np.mean(((x - y) / scale) ** 2)))
    if math.isnan(value):
        # 0/0 where states and tolerance all vanish is no deviation; a NaN state is no estimate
        with np.errstate(invalid="ignore", divide="ignore"):
            value = float(np.sqrt(np.mean(np.where(x == y, 0.0, (x - y) / scale) ** 2)))
        value = math.inf if math.isnan(value) else value
    return value


def error_estimates(result: StepResult, tolerances: Tolerances) -> tuple[float, float, float]:
    """(total, slow, fast) local error estimates from the embedded solutions."""
    eps_total = error_norm(result.y_next, result.y_hat, tolerances)
    eps_slow = error_norm(result.y_next, result.y_hat_slow, tolerances)
    eps_fast = error_norm(result.y_next, result.y_hat_fast, tolerances)
    return eps_total, eps_slow, eps_fast
