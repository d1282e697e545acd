"""One macro-step of a multirate GARK method, streamed micro-step by micro-step.

The engine never materializes the assembled tableau.  The first step at a
given (method, M) compiles a plan, cached from then on: the blocks
A^{fs,lambda}, and per fast stage the slow stages to compute right before it
and the (slow stage, A^{sf,lambda} weight) pairs its right-hand side feeds.
It is the stage order of :func:`assembly.derive_schedule` (both come from
:func:`assembly.place_slow_stages`), so a cyclic method is rejected before any
right-hand side runs.  Each fast-stage value is folded into the running fast
solution and into one accumulator per weight vector, so all four solutions
(main, embedded, and both mixed pairs used to split the error estimate) come
from the same stage evaluations at no extra cost.

For methods with the first-same-as-last property the value of the last fast
stage of each micro-step equals the first stage of the next one, so its
right-hand side is reused across micro-steps and across accepted macro-steps.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .assembly import place_slow_stages
from .errors import InvalidInput, NewtonDivergence, NonFiniteState
from .tableaux import MethodFlag, MrGarkMethod

__all__ = [
    "PartitionedOde",
    "Tolerances",
    "WorkCounters",
    "StepResult",
    "FsalCarry",
    "newton_solve",
    "NewtonResult",
    "step",
    "integrate_fixed",
    "error_norm",
    "error_estimates",
]

#: forward-difference Jacobian increment, relative to 1 + |y_i|
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class PartitionedOde:
    """Additively partitioned autonomous ODE y' = f_slow(y) + f_fast(y)."""

    dimension: int
    f_slow: Callable[[np.ndarray], np.ndarray]
    f_fast: Callable[[np.ndarray], np.ndarray]
    jac_slow: Callable[[np.ndarray], np.ndarray] | None = None
    jac_fast: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class Tolerances:
    """Componentwise tolerances entering the scaled error norm."""

    abs_tol: float | np.ndarray = 1e-6
    rel_tol: float | np.ndarray = 1e-6


@dataclass
class WorkCounters:
    fast_evals: int = 0
    slow_evals: int = 0
    newton_iterations: int = 0


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


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    y_guess: np.ndarray,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> NewtonResult:
    """Solve G(y) = 0 for 1-D y; converged when ||G|| <= tol * (1 + ||y||).

    ``jac`` returns dG/dy; omitted, a forward-difference approximation with
    increment sqrt(eps) * (1 + |y_i|) is used.  Affine systems converge in a
    single update.
    """
    y = np.array(y_guess, dtype=float)
    y_norm = math.sqrt(y.dot(y))
    for iteration in range(max_iter + 1):
        g = np.asarray(residual(y), dtype=float)
        g_norm = math.sqrt(g.dot(g))
        # a non-finite norm is a non-finite entry or an overflowing square sum
        if not math.isfinite(g_norm) and not np.isfinite(g).all():
            raise NewtonDivergence("residual is non-finite")
        if g_norm <= tol * (1.0 + y_norm):
            return NewtonResult(y, iteration)
        if iteration == max_iter:
            break
        if jac is not None:
            j = np.asarray(jac(y), dtype=float)
        else:
            j = np.empty((y.size, y.size))
            for i in range(y.size):
                dy = _SQRT_EPS * (1.0 + abs(y[i]))
                yp = y.copy()
                yp[i] += dy
                j[:, i] = (np.asarray(residual(yp)) - g) / dy
        if y.size == 1:
            # what the LU solve computes for a 1x1 system, without its overhead
            if j[0, 0] == 0.0:
                raise NewtonDivergence("singular Newton matrix")
            delta = -g / j[0, 0]
        else:
            try:
                delta = np.linalg.solve(j, -g)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergence(f"singular Newton matrix: {exc}") from None
        y = y + delta
        y_norm = math.sqrt(y.dot(y))
        if not math.isfinite(y_norm) and not np.isfinite(y).all():
            raise NewtonDivergence("iterate is non-finite")
    raise NewtonDivergence(f"no convergence in {max_iter} iterations")


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """Stage order and coupling data of one (method, M); see the module docstring."""

    fs: tuple[np.ndarray, ...]  # A^{fs,lambda}, lambda = 1..M
    before: tuple[tuple[tuple[int, ...], ...], ...]  # [lambda-1][i]: slow stages to compute first
    scatter: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]  # [lambda-1][i]: (j, a_sf)
    trailing: tuple[int, ...]  # slow stages after the last micro-step


@lru_cache(maxsize=4096)
def _step_plan(method: MrGarkMethod, M: int) -> _StepPlan:
    s_f = method.fast.stage_count
    fs = tuple(method.coupling("fs", lam, M) for lam in range(1, M + 1))
    sf = [method.coupling("sf", lam, M) for lam in range(1, M + 1)]
    before, trailing = place_slow_stages(method, fs, sf)
    scatter = tuple(tuple(tuple((int(j), float(a[j, i])) for j in np.flatnonzero(a[:, i]))
                          for i in range(s_f)) for a in sf)
    return _StepPlan(fs, tuple(before[k:k + s_f] for k in range(0, M * s_f, s_f)), scatter, trailing)


def _check_step_size(H: float, M: int) -> int:
    """Return M as an int; InvalidInput unless M is an integer >= 1 and 0 < H < inf."""
    M_int = operator.index(M) if isinstance(M, numbers.Integral) and not isinstance(M, bool) else 0
    if M_int < 1:
        raise InvalidInput(f"M must be an integer >= 1, got {M!r}")
    if not (isinstance(H, numbers.Real) and 0 < H < math.inf):
        raise InvalidInput(f"H must be finite and > 0, got {H!r}")
    return M_int


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
    M = _check_step_size(H, M)
    plan = _step_plan(method, M)
    y_n = np.asarray(y_n, dtype=float)
    n = y_n.size
    s_f, s_s = method.stage_counts
    h = H / M
    Aff, Ass = method.fast.A, method.slow.A
    fast_implicit, slow_implicit = method.fast.is_implicit, method.slow.is_implicit

    calls, seconds = [0, 0], [0.0, 0.0]  # RHS calls and time per partition: [slow, fast]
    newton_iterations = 0

    def timed(fn, part):
        def call(y):
            calls[part] += 1
            t0 = time.perf_counter()
            out = np.asarray(fn(y), dtype=float)
            seconds[part] += time.perf_counter() - t0
            return out
        return call

    f_slow, f_fast = timed(ode.f_slow, 0), timed(ode.f_fast, 1)

    def solve_stage(rhs_known, a_diag, f, jac_fn):
        nonlocal newton_iterations
        jac = None if jac_fn is None else lambda y: np.eye(y.size) - a_diag * np.asarray(jac_fn(y), dtype=float)
        res = newton_solve(lambda y: y - a_diag * f(y) - rhs_known, rhs_known, jac)
        newton_iterations += res.iterations
        return res.y

    # slow-stage RHS values, and per slow stage the sum of a_sf * F over fast stages so far
    slow_F, sf_acc = np.zeros((s_s, n)), np.zeros((s_s, n))

    def compute_slow(j):
        rhs = y_n + H * (slow_F[:j].T @ Ass[j, :j]) + h * sf_acc[j]
        Y = solve_stage(rhs, H * method.slow.gamma, f_slow, ode.jac_slow) if slow_implicit else rhs
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
                    Y = solve_stage(rhs, h * method.fast.gamma, f_fast, ode.jac_fast)
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
        counters=WorkCounters(calls[1], calls[0], newton_iterations),
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
    scale = np.asarray(tolerances.abs_tol) + np.asarray(tolerances.rel_tol) * np.maximum(
        np.abs(x), np.abs(y)
    )
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
