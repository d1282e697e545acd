"""One macro-step of a multirate GARK method, streamed micro-step by micro-step.

The engine never materializes the assembled tableau.  The first step at a
given (method, M) compiles a plan, cached from then on: per fast stage its
coefficient row [A^{fs,lambda}_i | tril(A_ff, -1)_i] over the stacked stage
values and the slow stages to compute right before it; per slow stage its row
[tril(A_ss, -1)_j | A^{sf,lambda}_j] for the micro-step lambda whose fast
stages it is computed after; and per micro-step the slow stages computed
later that its fast stages feed.
It is the stage order of :func:`assembly.derive_schedule` (both come from
:func:`assembly.place_slow_stages`), so a cyclic method is rejected before any
right-hand side runs.

The stage right-hand sides live in one array K: the s_s slow stages, then the
s_f fast stages of the current micro-step.  Scaled once per step by H on the
slow columns and h = H/M on the fast ones, a row gives fast stage i the input
ytilde + row @ K; entries for slow stages not yet computed and for fast
stages >= i are zero.  A slow stage's input is formed the same way when it
is due, y_n + row @ K with its own row, plus a running sum of the earlier
micro-steps that feed it: a micro-step whose fast stages feed slow stages
computed after it folds them into their sums with one product at its end.
So no fast-stage value outlives its micro-step, and a step holds 2*s_s + s_f
state-sized rows at any M.  Each micro-step folds its stages into the b_f
and b_hat_f sums with one weight product, so all four solutions (main,
embedded, and both mixed pairs used to split the error estimate) come from
the same stage evaluations at no extra cost.

Implicit (SDIRK) stages are solved by simplified Newton, :func:`newton_solve`.
Every implicit stage of a partition has the same Newton matrix I - a*J, with
a = h*gamma fast or H*gamma slow, so one matrix per partition is built at its
first implicit stage and reused by the later stages and micro-steps of the
step.  It is rebuilt only after an update that cuts the residual norm by less
than :data:`NEWTON_RATE`, and dropped when the step ends.  Size-1 systems
rebuild it every iteration, on floats: there the stage residual returns a
float and the Jacobian closure the slope 1 - a*J, which Newton takes as they
come; only a forward difference goes through arrays.  Each implicit
partition's residual and Jacobian closures are built once per step, not once
per stage.  A partition's ``jac`` returns J either as a dense array, from
which I - a*J is formed and kept as its inverse, or as a
:class:`StructuredJacobian`, whose ``shifted_solver(a)`` is the exact solve of
(I - a*J) x = r; either way a solve is what is built, reused and rebuilt.
An implicit stage's right-hand side is the f(Y) that Newton's last residual
call evaluated at the returned Y, so a converged stage costs no extra call.

For methods with the first-same-as-last property the value of the last fast
stage of each micro-step equals the first stage of the next one, so its
right-hand side is reused across micro-steps and across accepted macro-steps.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .assembly import place_slow_stages
from .errors import (InvalidInput, NewtonDivergence, NonFiniteState, check_count, check_real, check_real_array,
                     check_span, check_state, check_tolerance_shapes)
from .tableaux import MethodFlag, MrGarkMethod

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

    ``jac_slow``/``jac_fast`` return the partition's Jacobian at y: a real
    (dimension x dimension) array, a float at size 1 or a
    :class:`StructuredJacobian` above; anything else raises InvalidInput.
    Omitted, implicit stages finite-difference it.
    """

    dimension: int
    f_slow: Callable[[np.ndarray], np.ndarray]
    f_fast: Callable[[np.ndarray], np.ndarray]
    jac_slow: Callable[[np.ndarray], np.ndarray | StructuredJacobian] | None = None
    jac_fast: Callable[[np.ndarray], np.ndarray | StructuredJacobian] | None = None

    def __post_init__(self):
        check_count(self.dimension, "dimension")


@dataclass(frozen=True)
class Tolerances:
    """Componentwise tolerances entering the scaled error norm."""

    abs_tol: float | np.ndarray = 1e-6
    rel_tol: float | np.ndarray = 1e-6

    def __post_init__(self):
        abs_tol, rel_tol = check_real_array(self.abs_tol, "abs_tol"), check_real_array(self.rel_tol, "rel_tol")
        if not (np.all(abs_tol >= 0.0) and np.all(rel_tol >= 0.0)):
            raise InvalidInput("abs_tol and rel_tol must be >= 0 and not NaN")


@dataclass
class WorkCounters:
    fast_evals: int = 0
    slow_evals: int = 0
    newton_iterations: int = 0
    jacobians: int = 0  # Newton matrices built, analytic or finite-difference (FD RHS calls are in *_evals)
    # *_evals count every RHS call: explicit stages, Newton residuals (whose last
    # one also yields the implicit stage's value) and forward differences


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
    t_slow: float  # seconds in slow stages: RHS calls, or whole Newton solves with their linear algebra
    t_fast: float
    counters: WorkCounters
    fsal_carry: FsalCarry | None = None


class NewtonResult(NamedTuple):
    y: np.ndarray
    iterations: int
    # dG/dy last used, or the one passed in: a float slope at size 1, a solve callable above
    matrix: Callable[[np.ndarray], np.ndarray] | float | None
    jacobians: int  # Newton matrices built, analytic or finite-difference


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray | float],
    y_guess: np.ndarray,
    jac: Callable[[np.ndarray], np.ndarray | float | Callable[[np.ndarray], np.ndarray]] | None = None,
    matrix: np.ndarray | float | Callable[[np.ndarray], np.ndarray] | None = None,
) -> NewtonResult:
    """Solve G(y) = 0 for 1-D y; converged when ||G|| <= :data:`NEWTON_TOL` * (1 + ||y||).

    Simplified Newton (Hairer & Wanner, *Solving ODEs II*, IV.8): the Newton
    matrix dG/dy is ``matrix`` when given (one an earlier solve returned), or
    is built at the first iterate, and is reused while each update cuts ||G||
    by the factor :data:`NEWTON_RATE`; after an update that does not, it is
    rebuilt at the new iterate.  An update through a reused matrix that makes
    ||G|| grow, or the iterate or residual non-finite, is retried with a
    matrix built at the iterate it started from; only a non-finite result of
    such a fresh matrix raises :class:`NewtonDivergence`.  Size-1 systems
    rebuild on every iteration, which costs less there than the residual call
    a reused matrix would add, and run on Python floats (a residual may return
    one).  The returned ``y`` is the very array of the last ``residual`` call.

    ``jac`` returns dG/dy as a real (n, n) array, a float (size 1 only) or a
    *solve* callable r -> x of dG/dy x = r (size > 1 only); anything else
    raises :class:`InvalidInput`.  Omitted, dG/dy is a forward-difference
    array with increment sqrt(eps) * (1 + |y_i|), one residual call per
    column.  A matrix is held as a float slope at size 1 and as a solve above:
    an array is kept as its inverse, one inversion per build and one product
    per update, and a singular one raises :class:`NewtonDivergence` when it is
    built.  A ``matrix`` passed in is converted once, on entry.  The result
    carries the matrix last used and the number built.
    """
    y = np.array(y_guess, dtype=float)
    builds = 0
    if y.size == 1:
        # full Newton on floats: the same IEEE operations as the 1x1 LU solve, and
        # |v| is sqrt(v*v) without its overflow; only the residual sees arrays
        y_f, one_d = y.item(), y.ndim == 1
        if matrix is not None and type(matrix) is not float:
            matrix = _slope(matrix)
        for iteration in range(NEWTON_MAX_ITER + 1):
            g = residual(y)
            g_f = g if type(g) is float else float(np.asarray(g, dtype=float).item())
            if not math.isfinite(g_f):
                raise NewtonDivergence("residual is non-finite")
            if abs(g_f) <= NEWTON_TOL * (1.0 + abs(y_f)):
                return NewtonResult(y, iteration, matrix, builds)
            if iteration == NEWTON_MAX_ITER:
                break
            matrix = _forward_difference(residual, y, g_f) if jac is None else jac(y)
            if type(matrix) is not float:
                matrix = _slope(matrix)
            builds += 1
            if matrix == 0.0:
                raise NewtonDivergence("singular Newton matrix")
            y_f = y_f + -g_f / matrix
            if not math.isfinite(y_f):
                raise NewtonDivergence("iterate is non-finite")
            y = np.array([y_f]) if one_d else np.full_like(y, y_f)  # the guess's shape
        raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITER} iterations")
    if matrix is not None:
        matrix = _newton_matrix(matrix, y.size)
    g = np.asarray(residual(y), dtype=float)
    y_norm, g_norm = _norm(y), _norm(g)
    if not math.isfinite(g_norm):
        raise NewtonDivergence("residual is non-finite")
    rebuild, fresh = matrix is None, False
    for iteration in range(NEWTON_MAX_ITER + 1):
        if g_norm <= NEWTON_TOL * (1.0 + y_norm):
            return NewtonResult(y, iteration, matrix, builds)
        if iteration == NEWTON_MAX_ITER:
            break
        if rebuild:
            matrix = _newton_matrix(_forward_difference(residual, y, g) if jac is None else jac(y), y.size)
            rebuild, fresh, builds = False, True, builds + 1
        y_new = y + matrix(-g)
        y_new_norm = _norm(y_new)
        if not math.isfinite(y_new_norm):
            if fresh:
                raise NewtonDivergence("iterate is non-finite")
            rebuild = True
            continue
        g_new = np.asarray(residual(y_new), dtype=float)
        g_new_norm = _norm(g_new)
        if not fresh and not g_new_norm < g_norm:
            rebuild = True
            continue
        if not math.isfinite(g_new_norm):
            raise NewtonDivergence("residual is non-finite")
        rebuild = g_new_norm > NEWTON_RATE * g_norm
        y, y_norm, g, g_norm, fresh = y_new, y_new_norm, g_new, g_new_norm, False
    raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, finite exactly when every entry is.

    Rescaled by max|v_i| only where the square sum overflows, so other norms
    keep their bits; a norm beyond the largest float is held at it.
    """
    square_sum = np.vdot(v, v)  # the same sum as v.dot(v), without its overflow warning
    if square_sum == math.inf:
        peak = float(np.abs(v).max())
        if peak < math.inf:
            unit = v / peak
            return min(peak * math.sqrt(np.vdot(unit, unit)), sys.float_info.max)
    return math.sqrt(square_sum)


def _forward_difference(residual, y: np.ndarray, g: np.ndarray | float) -> np.ndarray:
    """dG/dy at y by forward differences of the residual (g = G(y)), one call per column."""
    j = np.empty((y.size, y.size))
    for i in range(y.size):
        dy = _SQRT_EPS * (1.0 + abs(y[i]))
        yp = y.copy()
        yp[i] += dy
        j[:, i] = (np.asarray(residual(yp)) - g) / dy
    return j


def _dense(m, n: int) -> np.ndarray:
    """``m`` as a float array; InvalidInput unless it is a real (n, n) array."""
    m = check_real_array(m, "a Jacobian or Newton matrix")
    if m.shape != (n, n):
        raise InvalidInput(f"a Jacobian or Newton matrix of a size-{n} system must be ({n}, {n}), got {m.shape}")
    return m


def _slope(m) -> float:
    """A size-1 Jacobian or Newton matrix, given as a float or a real (1, 1) array, as a float."""
    if type(m) is np.ndarray and m.shape == (1, 1) and m.dtype.kind in "iuf":  # the common case, checked cheaply
        return float(m.item())
    if callable(m):
        raise InvalidInput("a solve callable for dG/dy needs a system of size > 1")
    return float(m) if isinstance(m, float) else float(_dense(m, 1)[0, 0])


def _newton_matrix(m, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A size-n Newton matrix, n > 1, as its solve: a callable as it comes, a real (n, n) array by its inverse."""
    return m if callable(m) else _inverse(_dense(m, n)).dot


def _inverse(m: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` of a matrix or a batch of them; NewtonDivergence if one is singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise NewtonDivergence("singular Newton matrix") from None


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """Stage order and stage coefficients of one (method, M); see the module docstring."""

    rows: np.ndarray  # (M, s_f, s_s + s_f): rows[lambda-1][i] = [A^{fs,lambda}_i | tril(A_ff, -1)_i]
    before: tuple[tuple[tuple[int, ...], ...], ...]  # [lambda-1][i]: slow stages to compute first
    trailing: tuple[int, ...]  # slow stages after the last micro-step
    sf: np.ndarray  # (M, s_s, s_f): sf[lambda-1] = A^{sf,lambda}
    # (s_s, s_s + s_f): slow_rows[j] = [tril(A_ss, -1)_j | A^{sf,lambda}_j], lambda the micro-step
    # whose fast stages K holds when slow stage j is computed
    slow_rows: np.ndarray
    # [lambda-1]: the first slow stage computed after micro-step lambda that its fast stages feed;
    # s_s if none. At its end, micro-step lambda folds into the running sums from there on.
    folds: tuple[int, ...]
    fast_weights: np.ndarray  # (2, s_f): b_f, b_hat_f
    slow_weights: np.ndarray  # (2, s_s): b_s, b_hat_s


@lru_cache(maxsize=4096)
def _step_plan(method: MrGarkMethod, M: int) -> _StepPlan:
    s_f, s_s = method.stage_counts
    fs, sf = method.couplings(M)
    before, trailing = place_slow_stages(method, fs, sf)
    rows = np.concatenate([fs, np.broadcast_to(np.tril(method.fast.A, -1), (M, s_f, s_f))], axis=2)
    # per slow stage, the micro-step (0-based) of the last fast stage computed before it; nothing feeds
    # a slow stage computed before fast stage 0, so micro-step 0's zero row serves it
    reads = [max(k - 1, 0) // s_f for k, stages in enumerate(before) for _ in stages] + [M - 1] * len(trailing)
    slow_rows = np.concatenate([np.tril(method.slow.A, -1), sf[reads, range(s_s)]], axis=1)
    # micro-step lambda feeds the slow stages from starts[lambda] on only through their running sums
    starts = np.searchsorted(reads, range(M), side="right").tolist()
    folds = tuple(start if sf[lam, start:].any() else s_s for lam, start in enumerate(starts))
    return _StepPlan(rows, tuple(before[k:k + s_f] for k in range(0, M * s_f, s_f)), trailing, sf, slow_rows, folds,
                     np.array([method.fast.b, method.fast.b_hat]), np.array([method.slow.b, method.slow.b_hat]))


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
    M = check_count(M)
    check_real(H, "H", positive=True)
    check_real(t_n, "t_n")
    plan = _step_plan(method, M)
    y_n = check_state(y_n, ode.dimension)
    n = y_n.size
    s_f, s_s = method.stage_counts
    h = H / M
    fast_implicit = method.fast.is_implicit

    calls, seconds = [0, 0], [0.0, 0.0]  # RHS calls and stage time per partition: [slow, fast]
    newton_iterations = jacobians = 0
    # per partition [slow, fast]: the slope or solve of I - a*J, built at its first implicit
    # stage and reused by the later ones, since a = h*gamma is the same for all of them
    matrices: list[Callable | float | None] = [None, None]

    def counted(fn, part):
        def call(y):
            calls[part] += 1
            return np.asarray(fn(y), dtype=float)
        return call

    f_slow, f_fast = counted(ode.f_slow, 0), counted(ode.f_fast, 1)

    def stage_solver(a_diag, part, f, jac_fn):
        """The solve rhs_known -> f(Y) at the solution Y of Y = rhs_known + a_diag * f(Y), for one partition.

        Its residual and Jacobian closures are built once per step, not once per stage.
        """
        known = [None]  # the current stage's rhs_known; at size 1, its float
        last = [None, None]  # the residual's last (y, f(y))

        if n == 1:
            def residual(y):  # a float, by the same IEEE operations as the 1-element array expression
                last[0], last[1] = y, f(y)
                return y.item() - a_diag * last[1].item() - known[0]
        else:
            def residual(y):
                last[0], last[1] = y, f(y)
                return y - a_diag * last[1] - known[0]

        def jac(y):
            J = jac_fn(y)
            if not isinstance(J, np.ndarray):
                shifted_solver = getattr(J, "shifted_solver", None)
                if shifted_solver is not None:
                    return shifted_solver(a_diag)
            if n == 1:  # the slope 1 - a*J
                return 1.0 - _slope(J) * a_diag
            m = _dense(J, n) * -a_diag  # a copy: the problem may share its J
            m.flat[:: n + 1] += 1.0
            return m

        def solve(rhs_known):
            nonlocal newton_iterations, jacobians
            known[0] = rhs_known.item() if n == 1 else rhs_known
            res = newton_solve(residual, rhs_known, None if jac_fn is None else jac, matrix=matrices[part])
            matrices[part] = res.matrix
            newton_iterations += res.iterations
            jacobians += res.jacobians
            # Newton's last residual call has evaluated f at the solution already
            return last[1] if res.y is last[0] else f(res.y)

        return solve

    slow_stage = stage_solver(H * method.slow.gamma, 0, f_slow, ode.jac_slow) if method.slow.is_implicit else f_slow
    solve_fast = stage_solver(h * method.fast.gamma, 1, f_fast, ode.jac_fast) if fast_implicit else None

    # stage RHS values: the slow stages, then the fast stages of the current micro-step;
    # per slow stage, its h * A^{sf} terms of the micro-steps folded so far
    K, sf_acc = np.zeros((s_s + s_f, n)), np.zeros((s_s, n))
    # per fast stage, its input is ytilde + coef[lambda-1, i] @ K; per slow stage, y_n + slow_coef[j] @ K
    scale = np.array([H] * s_s + [h] * s_f)
    coef, slow_coef = plan.rows * scale, plan.slow_rows * scale
    summed = min(plan.folds)  # the first slow stage with a running sum

    def compute_slow(j):
        rhs = y_n + slow_coef[j] @ K  # zero weights on the slow stages >= j and the fast stages not yet computed
        if j >= summed:
            rhs += sf_acc[j]
        t0 = time.perf_counter()
        K[j] = slow_stage(rhs)
        seconds[0] += time.perf_counter() - t0

    fsal = method.has_flag(MethodFlag.FSAL)
    f_prev_last: np.ndarray | None = None
    if fsal and fsal_carry is not None and np.array_equal(fsal_carry.y_next, y_n):
        f_prev_last = fsal_carry.f_fast_last

    ytilde = y_n.copy()
    acc = np.zeros((2, n))  # sums of b_f- and b_hat_f-weighted fast stages over micro-steps
    # unstable step sizes overflow before the explicit finiteness checks fire;
    # silence the intermediate warnings, NonFiniteState is the real signal
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, (rows, before, fold) in enumerate(zip(coef, plan.before, plan.folds), 1):
            for i, row in enumerate(rows):
                for j in before[i]:
                    compute_slow(j)
                rhs = ytilde + row @ K  # zero weights on the slow stages not yet computed and fast stages >= i
                t0 = time.perf_counter()
                if fast_implicit:
                    F = solve_fast(rhs)
                elif i == 0 and f_prev_last is not None:
                    F = f_prev_last
                else:
                    F = f_fast(rhs)
                seconds[1] += time.perf_counter() - t0
                K[s_s + i] = F
            if fold < s_s:
                sf_acc[fold:] += (h * plan.sf[lam - 1, fold:]) @ K[s_s:]
            if fsal:
                f_prev_last = K[-1]  # read at the next micro-step's first stage, before it is overwritten
            increments = plan.fast_weights @ K[s_s:]
            acc += increments
            ytilde = ytilde + h * increments[0]
            if not np.logical_and.reduce(np.isfinite(ytilde)):  # ndarray.all without its Python-level wrapper
                raise NonFiniteState(f"fast solution non-finite in micro-step {lam}")
        for j in plan.trailing:
            compute_slow(j)

    # the four solutions share their fast (h * ...) and slow (H * ...) parts
    with_bf, with_bf_hat = y_n + h * acc
    slow_b, slow_b_hat = H * (plan.slow_weights @ K[:s_s])
    y_next = with_bf + slow_b
    if not np.logical_and.reduce(np.isfinite(y_next)):
        raise NonFiniteState("macro-step produced non-finite state")

    carry = FsalCarry(y_next=y_next, f_fast_last=f_prev_last.copy()) if fsal and f_prev_last is not None else None
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
    span = check_span(t0, t_end)
    n = max(1, int(round(span / check_real(H, "H", positive=True))))
    y, t, carry = check_state(y0, ode.dimension), t0, None
    for _ in range(n):
        result = step(method, ode, y, t, span / n, M, fsal_carry=carry)
        y, t, carry = result.y_next, result.t, result.fsal_carry
        if on_step is not None:
            on_step(result)
    return result


def error_norm(x: np.ndarray, y: np.ndarray, tolerances: Tolerances) -> float:
    """Scaled RMS deviation: values <= 1 mean "within tolerance"; never NaN."""
    return _scaled_rms(np.ravel(check_real_array(x, "x")), np.ravel(check_real_array(y, "y"))[None], tolerances)[0]


def error_estimates(result: StepResult, tolerances: Tolerances) -> tuple[float, float, float]:
    """(total, slow, fast) local error estimates from the embedded solutions.

    Each equals :func:`error_norm` of ``y_next`` against ``y_hat``, ``y_hat_slow``
    and ``y_hat_fast``; the three come from one pass over the stacked deviations.
    """
    hats = np.array([result.y_hat, result.y_hat_slow, result.y_hat_fast], dtype=float)
    eps_total, eps_slow, eps_fast = _scaled_rms(result.y_next, hats, tolerances)
    return eps_total, eps_slow, eps_fast


def _scaled_rms(x: np.ndarray, ys: np.ndarray, tolerances: Tolerances) -> list[float]:
    """:func:`error_norm` of x against each row of ys."""
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    if ys.shape[-1] != x.size:
        raise InvalidInput(f"states compared must have the same size, got {x.size} and {ys.shape[-1]}")
    if x.size == 0:
        raise InvalidInput("states compared must not be empty")
    abs_tol, rel_tol = np.asarray(tolerances.abs_tol, dtype=float), np.asarray(tolerances.rel_tol, dtype=float)
    check_tolerance_shapes((abs_tol, rel_tol), x.size)
    # a zero scale or a non-finite state is settled below, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(ys))
        # np.mean's own reduction and division, bit for bit, without its Python-level wrapper
        values = np.sqrt(np.add.reduce(((x - ys) / scale) ** 2, axis=-1) / x.size).tolist()
        if any(map(math.isnan, values)):
            # 0/0 where states and tolerance all vanish is no deviation (rows
            # without a NaN keep their floats); a NaN state is no estimate
            values = np.sqrt(np.add.reduce(np.where(x == ys, 0.0, (x - ys) / scale) ** 2, axis=-1) / x.size).tolist()
            values = [math.inf if math.isnan(v) else v for v in values]
    return values
