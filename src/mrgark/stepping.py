"""One macro-step of a multirate GARK method, streamed micro-step by micro-step.

The engine never materializes the assembled tableau.  The first step at a
given (method, M) compiles a plan, cached from then on: per fast stage its
coefficient row [A^{fs,lambda}_i | tril(A_ff, -1)_i] over the stacked stage
values, the slow stages to compute right before it, and the column of
A^{sf,lambda} its right-hand side feeds into the slow stages.
It is the stage order of :func:`assembly.derive_schedule` (both come from
:func:`assembly.place_slow_stages`), so a cyclic method is rejected before any
right-hand side runs.

The stage right-hand sides live in one array K: the s_s slow stages, then the
s_f fast stages of the current micro-step.  Scaled once per step by H on the
slow columns and h = H/M on the fast ones, a row gives fast stage i the input
ytilde + row @ K; entries for slow stages not yet computed and for fast
stages >= i are zero.  Each fast-stage value is scattered into one running
sum per slow stage (a broadcast of its A^{sf,lambda} column), and each
micro-step folds its stages into the b_f and b_hat_f sums with one weight
product, so all four solutions (main, embedded, and both mixed pairs used to
split the error estimate) come from the same stage evaluations at no extra
cost.

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
An implicit stage's right-hand side is the f(Y) that Newton's last residual
call evaluated at the returned Y, so a converged stage costs no extra call.

For methods with the first-same-as-last property the value of the last fast
stage of each micro-step equals the first stage of the next one, so its
right-hand side is reused across micro-steps and across accepted macro-steps.
"""

from __future__ import annotations

import math
import numbers
import sys
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
    matrix: np.ndarray | Callable[[np.ndarray], np.ndarray] | float | None  # dG/dy last used, or the one passed in
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
    on every iteration, so theirs is full Newton: there a rebuild costs less
    than the residual call a reused matrix would add.  It runs on Python
    floats, the same IEEE operations as the 1x1 LU solve; only the residual
    sees (1-element) arrays.  Affine systems converge in a single update with
    an exact matrix.  The norms do not overflow on finite entries.  The
    returned ``y`` is the very array of the last ``residual`` call, so a
    caller can reuse what that call computed.

    ``jac`` returns dG/dy, held in one of two ways: a dense array, solved by
    LU (by division at size 1, where a float also does), or, for systems of
    size > 1, a *solve* callable, so that the update is ``solve(-g)``; a
    solve of a singular system raises :class:`NewtonDivergence`.  Omitted,
    dG/dy is a dense forward-difference approximation with increment
    sqrt(eps) * (1 + |y_i|), at one residual call per column.  ``matrix`` and the returned matrix are
    held the same way.  The result carries the matrix last used, for the next
    solve with the same dG/dy, and the number of matrices built.
    """
    y = np.array(y_guess, dtype=float)
    g = np.asarray(residual(y), dtype=float)
    builds = 0
    if y.size == 1:
        # full Newton on floats: the same IEEE operations as the 1x1 LU solve, and
        # |v| is sqrt(v*v) without its overflow; only the residual sees arrays
        y_f, g_f = y.item(), float(g.item())
        if not math.isfinite(g_f):
            raise NewtonDivergence("residual is non-finite")
        for iteration in range(NEWTON_MAX_ITER + 1):
            if abs(g_f) <= NEWTON_TOL * (1.0 + abs(y_f)):
                return NewtonResult(y, iteration, matrix, builds)
            if iteration == NEWTON_MAX_ITER:
                break
            matrix = _newton_matrix(residual, y, g, jac)
            builds += 1
            slope = float(matrix) if isinstance(matrix, float) else float(matrix[0, 0])
            if slope == 0.0:
                raise NewtonDivergence("singular Newton matrix")
            y_f = y_f + -g_f / slope
            if not math.isfinite(y_f):
                raise NewtonDivergence("iterate is non-finite")
            y = np.full_like(y, y_f)  # the guess's shape
            g = np.asarray(residual(y), dtype=float)
            g_f = float(g.item())
            if not math.isfinite(g_f):
                raise NewtonDivergence("residual is non-finite")
        raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITER} iterations")
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
            matrix = _newton_matrix(residual, y, g, jac)
            rebuild, fresh, builds = False, True, builds + 1
        if callable(matrix):
            delta = matrix(-g)
        else:
            try:
                delta = np.linalg.solve(matrix, -g)
            except np.linalg.LinAlgError as exc:
                # a reused matrix has solved before, so this one is fresh
                raise NewtonDivergence(f"singular Newton matrix: {exc}") from None
        y_new = y + delta
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


def _newton_matrix(residual, y: np.ndarray, g: np.ndarray, jac):
    """dG/dy at y from ``jac``, or by forward differences of the residual (g = G(y))."""
    if jac is not None:
        m = jac(y)
        if not callable(m):
            return m if isinstance(m, float) else np.asarray(m, dtype=float)
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
    """Stage order and stage coefficients of one (method, M); see the module docstring."""

    rows: np.ndarray  # (M, s_f, s_s + s_f): rows[lambda-1][i] = [A^{fs,lambda}_i | tril(A_ff, -1)_i]
    before: tuple[tuple[tuple[int, ...], ...], ...]  # [lambda-1][i]: slow stages to compute first
    scatter: tuple[tuple[np.ndarray | None, ...], ...]  # [lambda-1][i]: column i of A^{sf,lambda}, (s_s, 1); None if 0
    trailing: tuple[int, ...]  # slow stages after the last micro-step
    fast_weights: np.ndarray  # (2, s_f): b_f, b_hat_f
    slow_weights: np.ndarray  # (2, s_s): b_s, b_hat_s


@lru_cache(maxsize=4096)
def _step_plan(method: MrGarkMethod, M: int) -> _StepPlan:
    s_f = method.fast.stage_count
    fs, sf = method.couplings(M)
    before, trailing = place_slow_stages(method, fs, sf)
    rows = np.concatenate([fs, np.broadcast_to(np.tril(method.fast.A, -1), (M, s_f, s_f))], axis=2)
    scatter = tuple(tuple(a[:, i:i + 1] if a[:, i].any() else None for i in range(s_f)) for a in sf)
    return _StepPlan(rows, tuple(before[k:k + s_f] for k in range(0, M * s_f, s_f)), scatter, trailing,
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
    M = _check_count(M)
    if not (isinstance(H, numbers.Real) and 0 < H < math.inf):
        raise InvalidInput(f"H must be finite and > 0, got {H!r}")
    plan = _step_plan(method, M)
    y_n = np.asarray(y_n, dtype=float)
    n = y_n.size
    s_f, s_s = method.stage_counts
    h = H / M
    Ass = method.slow.A
    fast_implicit, slow_implicit = method.fast.is_implicit, method.slow.is_implicit

    calls, seconds = [0, 0], [0.0, 0.0]  # RHS calls and stage time per partition: [slow, fast]
    newton_iterations = jacobians = 0
    # per partition [slow, fast]: I - a*J or its solver, built at its first implicit
    # stage and reused by the later ones, since a = h*gamma is the same for all of them
    matrices: list[np.ndarray | Callable | float | None] = [None, None]

    def counted(fn, part):
        def call(y):
            calls[part] += 1
            return np.asarray(fn(y), dtype=float)
        return call

    f_slow, f_fast = counted(ode.f_slow, 0), counted(ode.f_fast, 1)

    def solve_stage(rhs_known, a_diag, part, f, jac_fn):
        """f(Y) at the solution Y of Y = rhs_known + a_diag * f(Y)."""
        nonlocal newton_iterations, jacobians
        last = [None, None]  # the residual's last (y, f(y))

        def residual(y):
            last[0], last[1] = y, f(y)
            return y - a_diag * last[1] - rhs_known

        def jac(y):
            J = jac_fn(y)
            shifted_solver = getattr(J, "shifted_solver", None)
            if shifted_solver is not None:
                return shifted_solver(a_diag)
            J = np.asarray(J, dtype=float)
            if y.size == 1:
                return 1.0 - float(J[0, 0]) * a_diag
            m = J * -a_diag  # a copy: the problem may share its J
            m.flat[:: y.size + 1] += 1.0
            return m

        res = newton_solve(residual, rhs_known, None if jac_fn is None else jac, matrix=matrices[part])
        matrices[part] = res.matrix
        newton_iterations += res.iterations
        jacobians += res.jacobians
        # Newton's last residual call has evaluated f at the solution already
        return last[1] if res.y is last[0] else f(res.y)

    # stage RHS values: the slow stages, then the fast stages of the current micro-step;
    # per slow stage, the sum of a_sf * F over the fast stages so far
    K, sf_acc = np.zeros((s_s + s_f, n)), np.zeros((s_s, n))
    # per fast stage, its input is ytilde + coef[lambda-1, i] @ K
    scale = np.full(s_s + s_f, H)
    scale[s_s:] = h
    coef = plan.rows * scale

    def compute_slow(j):
        rhs = y_n + H * (K[:j].T @ Ass[j, :j]) + h * sf_acc[j]
        t0 = time.perf_counter()
        K[j] = solve_stage(rhs, H * method.slow.gamma, 0, f_slow, ode.jac_slow) if slow_implicit else f_slow(rhs)
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
        for lam, (rows, before, scatter) in enumerate(zip(coef, plan.before, plan.scatter), 1):
            for i, row in enumerate(rows):
                for j in before[i]:
                    compute_slow(j)
                rhs = ytilde + row @ K  # zero weights on the slow stages not yet computed and fast stages >= i
                t0 = time.perf_counter()
                if fast_implicit:
                    F = solve_stage(rhs, h * method.fast.gamma, 1, f_fast, ode.jac_fast)
                elif i == 0 and f_prev_last is not None:
                    F = f_prev_last
                else:
                    F = f_fast(rhs)
                seconds[1] += time.perf_counter() - t0
                K[s_s + i] = F
                if scatter[i] is not None:
                    sf_acc += scatter[i] * F
            if fsal:
                f_prev_last = K[-1]  # read at the next micro-step's first stage, before it is overwritten
            increments = plan.fast_weights @ K[s_s:]
            acc += increments
            ytilde = ytilde + h * increments[0]
            if not np.isfinite(ytilde).all():
                raise NonFiniteState(f"fast solution non-finite in micro-step {lam}")
        for j in plan.trailing:
            compute_slow(j)

    # the four solutions share their fast (h * ...) and slow (H * ...) parts
    with_bf, with_bf_hat = y_n + h * acc
    slow_b, slow_b_hat = H * (plan.slow_weights @ K[:s_s])
    y_next = with_bf + slow_b
    if not np.isfinite(y_next).all():
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
    return _scaled_rms(np.ravel(x), np.ravel(y)[None], tolerances)[0]


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
    x = np.asarray(x, dtype=float)
    abs_tol, rel_tol = np.asarray(tolerances.abs_tol, dtype=float), np.asarray(tolerances.rel_tol, dtype=float)
    # a zero scale or a non-finite state is settled below, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(ys))
        values = np.sqrt(np.mean(((x - ys) / scale) ** 2, axis=-1)).tolist()
        if any(map(math.isnan, values)):
            # 0/0 where states and tolerance all vanish is no deviation (rows
            # without a NaN keep their floats); a NaN state is no estimate
            values = np.sqrt(np.mean(np.where(x == ys, 0.0, (x - ys) / scale) ** 2, axis=-1)).tolist()
            values = [math.inf if math.isnan(v) else v for v in values]
    return values
