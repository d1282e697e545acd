"""One macro-step of a multirate GARK method, streamed micro-step by micro-step.

The engine never materializes the assembled tableau.  The first step at a
given (method, M) compiles a plan, cached from then on: per fast stage its
coefficient row over the stage array and the slow stages to compute right
before it; per slow stage its row for the micro-step lambda whose fast stages
it is computed after; and per micro-step the slow stages computed later that
its fast stages feed.
It is the stage order of :func:`assembly.derive_schedule` (both come from
:func:`assembly.place_slow_stages`), so a method with cyclic coupling
dependencies is rejected before any right-hand side runs; its base tableaus
and coupling blocks were checked when they were built.

The stage array is [y_n | ytilde | d_f | K]: the step's start, the fast
solution so far and the fast deviation so far, and the stage values K, each
right-hand side times its step size: H*f for the s_s slow stages, then h*f,
h = H/M, for the s_f fast stages of the current micro-step.  So the plan's
rows are the method's coefficients as they are, and a stage input is one
product row . [y_n | ytilde | d_f | K]: a fast stage's row is
[0, 1, 0 | A^{fs,lambda}_i | tril(A_ff, -1)_i] and a slow stage's
[1, 0, 0 | tril(A_ss, -1)_j | A^{sf,lambda}_j], with zero entries for slow
stages not yet computed and for fast stages >= i.  The product runs over the
row's span only, row[lo:hi] . [...][lo:hi] on views: the plan records per
fast stage, over all micro-steps, and per slow stage the columns from its
first nonzero weight to its last, so the zero weights past the stages a
stage reads cost nothing.  A slow stage's input also
takes a running sum of the earlier micro-steps that feed it: a micro-step
whose fast stages feed slow stages computed after it folds them into their
sums with one product at its end, and only slow stages that some micro-step
folds into have a sum.  So no fast-stage value outlives its micro-step, and a
step holds at most 3 + 2*s_s + s_f state-sized rows at any M, one more for
an FSAL pair, and returns three: y_next and its deviations from two embedded
solutions, each sum_i (b_i - b_hat_i) k_i (Hairer, Norsett and Wanner,
*Solving ODEs I*, II.4).  With the plan's weight rows [b, b - b_hat], one
product per micro-step adds the b_f and b_f - b_hat_f sums to ytilde and d_f,
and one over the slow stages gives y_next's b_s sum and the slow deviation.
The products go through ``ndarray.dot``, which costs less per call than ``@``
on small states.

Each partition is one stage routine, built once per step: rhs_known -> f(Y)
at its stage value Y = rhs_known + a*f(Y).  An explicit partition's is its
counted right-hand side (a = 0).  An SDIRK partition's is a stage solver, with
a = h*gamma fast or H*gamma slow, that solves by simplified Newton,
:func:`newton_solve`, and owns its residual and Jacobian closures and its
Newton matrix I - a*J: built at the first stage, reused by the later stages
and micro-steps, rebuilt only after an update that cuts the residual norm by
less than :data:`NEWTON_RATE`, and dropped when the step ends.  Size-1
systems rebuild it every iteration, on floats: there the stage residual
returns a float and the Jacobian closure the slope 1 - a*J, which Newton
takes as they come; only a forward difference goes through arrays.  A
partition's ``jac`` returns J either as a dense array, from which I - a*J is
formed and kept as its inverse, or as a :class:`StructuredJacobian`, whose
``shifted_solver(a)`` is the exact solve of (I - a*J) x = r; either way a
solve is what is built, reused and rebuilt.  Newton returns the very array
its last residual call evaluated f at, so that f(Y) is the stage's
right-hand side, and a converged stage costs no extra call.

Each right-hand side result is checked where it is counted: anything but a
real array of shape (dimension,) raises :class:`InvalidInput` naming
``f_slow`` or ``f_fast``; so does a Newton solve's result, at the update.
``integrate_fixed`` and ``adaptivity.drive`` reject a non-finite y0 up
front; ``step`` does not check its y_n for that.

For methods with the first-same-as-last property (an explicit fast base, see
:class:`MrGarkMethod`) the value of the last fast stage of each micro-step
equals the first stage of the next one, so its right-hand side is reused
across micro-steps and across accepted macro-steps; the step keeps it
unscaled, as h may change between steps.
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
                     check_span, check_state, check_tolerance_shapes, check_type)
from .tableaux import MethodFlag, MrGarkMethod, _freeze

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
#: a value of this dtype and the expected shape (an RHS result, a residual, a solve) is used as it comes
_FLOAT = np.dtype(float)


class StructuredJacobian(Protocol):
    """A Jacobian J held in a form with an exact solve of its shifted systems."""

    def shifted_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """The solve r -> x of (I - a*J) x = r, x a real array of r's shape; NewtonDivergence if it is singular."""


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
        for name in ("f_slow", "f_fast", "jac_slow", "jac_fast"):
            check_type(getattr(self, name), name, Callable, optional=name.startswith("jac"))


@dataclass(frozen=True)
class Tolerances:
    """Componentwise tolerances entering the scaled error norm."""

    abs_tol: float | np.ndarray = 1e-6
    rel_tol: float | np.ndarray = 1e-6

    def __post_init__(self):
        abs_tol, rel_tol = check_real_array(self.abs_tol, "abs_tol"), check_real_array(self.rel_tol, "rel_tol")
        if not (np.all(abs_tol >= 0.0) and np.all(rel_tol >= 0.0)):
            raise InvalidInput("abs_tol and rel_tol must be >= 0 and not NaN")
        object.__setattr__(self, "_floats", (abs_tol, rel_tol))  # as float arrays, once, for every error norm


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
    slow_deviation: np.ndarray  # y_next less the embedded solution of weights (b_f, b_hat_s)
    fast_deviation: np.ndarray  # y_next less the embedded solution of weights (b_hat_f, b_s)
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

    ``y_guess`` is a real array, 1-D above size 1, and each residual a real
    value of its size at size 1 and of y's shape above; ``jac`` returns dG/dy
    as a real (n, n) array, a float (size 1 only) or a *solve* callable
    r -> x of dG/dy x = r (size > 1 only); anything else, or a solve whose x
    is not a real array of y's shape, raises :class:`InvalidInput`.  Omitted,
    dG/dy is a forward-difference array with increment sqrt(eps) * (1 + |y_i|),
    one residual call per column.  A matrix is held as a float slope at size 1
    and as a solve above: an array is kept as its inverse, one inversion per
    build and one product per update, and a singular one raises
    :class:`NewtonDivergence` when it is built.  A ``matrix`` passed in is
    converted once, on entry.  The result carries the matrix last used and the
    number built.
    """
    if not (type(y_guess) is np.ndarray and y_guess.dtype is _FLOAT):  # the common case passes as it comes
        y_guess = check_real_array(y_guess, "the Newton guess")  # cast, unless complex, bool or not numeric
    if y_guess.ndim != 1 and y_guess.size != 1:
        raise InvalidInput(f"the Newton guess must be a 1-D array above size 1, got shape {y_guess.shape}")
    y = y_guess.copy()
    builds = 0
    if y.size == 1:
        # full Newton on floats: the same IEEE operations as the 1x1 LU solve, and
        # |v| is sqrt(v*v) without its overflow; only the residual sees arrays
        y_f, one_d = y.item(), y.ndim == 1
        if matrix is not None and type(matrix) is not float:
            matrix = _slope(matrix)
        for iteration in range(NEWTON_MAX_ITER + 1):
            g = residual(y)
            g_f = g if type(g) is float else _residual_value(g, y)
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
    g = _real_of_shape(residual(y), y.shape, "a Newton residual")
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
        y_new = y + _real_of_shape(matrix(-g), y.shape, "the result of a Newton solve")
        y_new_norm = _norm(y_new)
        if not math.isfinite(y_new_norm):
            if fresh:
                raise NewtonDivergence("iterate is non-finite")
            rebuild = True
            continue
        g_new = _real_of_shape(residual(y_new), y.shape, "a Newton residual")
        g_new_norm = _norm(g_new)
        if not fresh and not g_new_norm < g_norm:
            rebuild = True
            continue
        if not math.isfinite(g_new_norm):
            raise NewtonDivergence("residual is non-finite")
        rebuild = g_new_norm > NEWTON_RATE * g_norm
        y, y_norm, g, g_norm, fresh = y_new, y_new_norm, g_new, g_new_norm, False
    raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _real_of_shape(v, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``v`` as a float array; InvalidInput unless it is a real array of ``shape``."""
    if not (type(v) is np.ndarray and v.dtype is _FLOAT and v.shape == shape):  # the common case, cheaply
        v = check_real_array(v, name)  # cast, unless complex, bool or not numeric
        if v.shape != shape:
            raise InvalidInput(f"{name} must be a real array of shape {shape}, got {v.shape}")
    return v


def _residual_value(g, y: np.ndarray) -> np.ndarray | float:
    """A Newton residual at y as a float at size 1, above as a float array of y's shape; InvalidInput unless real."""
    if y.size != 1:
        return _real_of_shape(g, y.shape, "a Newton residual")
    g = check_real_array(g, "a Newton residual")
    if g.size != 1:
        raise InvalidInput(f"a Newton residual of a size-1 system must have size 1, got shape {g.shape}")
    return float(g.item())


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
        j[:, i] = (_residual_value(residual(yp), y) - g) / dy
    return j


def _slope(m) -> float:
    """A size-1 Jacobian or Newton matrix, given as a float or a real (1, 1) array, as a float."""
    if callable(m):
        raise InvalidInput("a solve callable for dG/dy needs a system of size > 1")
    return float(m) if isinstance(m, float) else float(_real_of_shape(m, (1, 1), "a Jacobian or Newton matrix").item())


def _newton_matrix(m, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A size-n Newton matrix, n > 1, as its solve: a callable as it comes, a real (n, n) array by its inverse."""
    return m if callable(m) else _inverse(_real_of_shape(m, (n, n), "a Jacobian or Newton matrix")).dot


def _inverse(m: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` of a matrix or a batch of them; NewtonDivergence if one is singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise NewtonDivergence("singular Newton matrix") from None


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """Stage order and stage coefficients of one (method, M), arrays read-only; see the module docstring."""

    # (M, s_f, 3 + s_s + s_f) over [y_n | ytilde | d_f | K]:
    # rows[lambda-1][i] = [0, 1, 0 | A^{fs,lambda}_i | tril(A_ff, -1)_i]
    rows: np.ndarray
    before: tuple[tuple[tuple[int, ...], ...], ...]  # [lambda-1][i]: slow stages to compute first
    trailing: tuple[int, ...]  # slow stages after the last micro-step
    sf: np.ndarray  # (M, s_s, s_f): sf[lambda-1] = A^{sf,lambda}
    # (s_s, 3 + s_s + s_f): slow_rows[j] = [1, 0, 0 | tril(A_ss, -1)_j | A^{sf,lambda}_j], lambda the
    # micro-step whose fast stages K holds when slow stage j is computed
    slow_rows: np.ndarray
    # per fast stage i, then per slow stage j, its span: the columns of the stage array from the first nonzero
    # of its rows to their last, over all micro-steps (column 1, ytilde, or 0, y_n, to the last stage value it
    # reads); its rows weight no column outside it
    fast_spans: tuple[slice, ...]
    slow_spans: tuple[slice, ...]
    fast_span_rows: tuple[np.ndarray, ...]  # [i]: rows[:, i, fast_spans[i]], a view
    slow_span_rows: tuple[np.ndarray, ...]  # [j]: slow_rows[j, slow_spans[j]], a view
    # [lambda-1]: the first slow stage computed after micro-step lambda that its fast stages feed;
    # s_s if none. At its end, micro-step lambda folds into the running sums from there on.
    folds: tuple[int, ...]
    summed: int  # min(folds): the first slow stage with a running sum; s_s if none
    fast_weights: np.ndarray  # (2, s_f): b_f, b_f - b_hat_f
    slow_weights: np.ndarray  # (2, s_s): b_s, b_s - b_hat_s


@lru_cache(maxsize=4096)
def _step_plan(method: MrGarkMethod, M: int) -> _StepPlan:
    s_f, s_s = method.stage_counts
    fs, sf = method.couplings(M)
    before, trailing = place_slow_stages(method, fs, sf)
    rows = np.concatenate([np.broadcast_to([0.0, 1.0, 0.0], (M, s_f, 3)), fs,
                           np.broadcast_to(np.tril(method.fast.A, -1), (M, s_f, s_f))], axis=2)
    # per slow stage, the micro-step (0-based) of the last fast stage computed before it; nothing feeds
    # a slow stage computed before fast stage 0, so micro-step 0's zero row serves it
    reads = [max(k - 1, 0) // s_f for k, stages in enumerate(before) for _ in stages] + [M - 1] * len(trailing)
    slow_rows = np.concatenate([np.broadcast_to([1.0, 0.0, 0.0], (s_s, 3)), np.tril(method.slow.A, -1),
                                sf[reads, range(s_s)]], axis=1)
    # micro-step lambda feeds the slow stages from starts[lambda] on only through their running sums
    starts = np.searchsorted(reads, range(M), side="right").tolist()
    folds = tuple(start if sf[lam, start:].any() else s_s for lam, start in enumerate(starts))
    rows, slow_rows = _freeze(rows), _freeze(slow_rows)
    fast_spans, slow_spans = _spans(rows.any(axis=0)), _spans(slow_rows != 0.0)
    # micro-steps with the same slow stages to compute first share one tuple of them: at large M that saves
    # far more than the spans and their row views hold
    shared = {}
    before = tuple(shared.setdefault(b, b) for b in (before[k:k + s_f] for k in range(0, M * s_f, s_f)))
    return _StepPlan(rows, before, trailing, sf, slow_rows, fast_spans, slow_spans,
                     tuple(rows[:, i, span] for i, span in enumerate(fast_spans)),
                     tuple(slow_rows[j, span] for j, span in enumerate(slow_spans)), folds, min(folds),
                     *(_freeze([tab.b, tab.b - tab.b_hat]) for tab in (method.fast, method.slow)))


def _spans(nonzero: np.ndarray) -> tuple[slice, ...]:
    """Per row of a boolean array, the slice from its first True to its last; each row has one."""
    first, last = nonzero.argmax(axis=1), nonzero.shape[1] - nonzero[:, ::-1].argmax(axis=1)
    return tuple(slice(lo, hi) for lo, hi in zip(first.tolist(), last.tolist()))


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

    Fast stages are evaluated as slow ones are, each partition by its stage
    routine.  Methods with the first-same-as-last flag reuse the last
    fast-stage RHS, within the step and from ``fsal_carry`` when it belongs to
    ``y_n``.  An RHS result that is not a real array of shape (dimension,)
    raises InvalidInput.  ``y_n`` is not checked for NaN or inf, which would
    cost every step a pass over it: a non-finite one ends in NonFiniteState,
    or in NewtonDivergence where an implicit stage meets it first.
    """
    M = check_count(M)
    check_real(H, "H", positive=True)
    check_real(t_n, "t_n")
    check_type(method, "method", MrGarkMethod)
    check_type(ode, "ode", PartitionedOde)
    check_type(fsal_carry, "fsal_carry", FsalCarry, optional=True)
    plan = _step_plan(method, M)
    y_n = check_state(y_n, ode.dimension)
    n = y_n.size
    s_f, s_s = method.stage_counts
    h = H / M

    calls, seconds = [0, 0], [0.0, 0.0]  # RHS calls and stage time per partition: [slow, fast]
    newton_iterations = jacobians = 0

    def counted(fn, part, name):
        shape, label = (n,), f"the result of {name}"

        def call(y):
            calls[part] += 1
            return _real_of_shape(fn(y), shape, label)
        return call

    f_slow, f_fast = counted(ode.f_slow, 0, "f_slow"), counted(ode.f_fast, 1, "f_fast")

    def stage_solver(a_diag, f, jac_fn):
        """The solve rhs_known -> f(Y) at the solution Y of Y = rhs_known + a_diag * f(Y), for one partition.

        Its residual and Jacobian closures are built once per step, not once per stage.  It owns its Newton
        matrix, the slope or solve of I - a_diag*J: built at its first stage and reused by the later ones.
        """
        known = f_y = matrix = None  # the current stage's rhs_known (at size 1, its float); the last f(y)

        if n == 1:
            def residual(y):  # a float, by the same IEEE operations as the 1-element array expression
                nonlocal f_y
                f_y = f(y)
                return y.item() - a_diag * f_y.item() - known
        else:
            def residual(y):
                nonlocal f_y
                f_y = f(y)
                return y - a_diag * f_y - known

        def jac(y):
            J = jac_fn(y)
            if not isinstance(J, np.ndarray):
                shifted_solver = getattr(J, "shifted_solver", None)
                if shifted_solver is not None:
                    return shifted_solver(a_diag)
            if n == 1:  # the slope 1 - a*J
                return 1.0 - _slope(J) * a_diag
            m = _real_of_shape(J, (n, n), "a Jacobian") * -a_diag  # a copy: the problem may share its J
            m.flat[:: n + 1] += 1.0
            return m

        def solve(rhs_known):
            nonlocal known, matrix, newton_iterations, jacobians
            known = rhs_known.item() if n == 1 else rhs_known
            res = newton_solve(residual, rhs_known, None if jac_fn is None else jac, matrix=matrix)
            matrix = res.matrix
            newton_iterations += res.iterations
            jacobians += res.jacobians
            return f_y  # Newton returns the y of its last residual call, which has evaluated f there

        return solve

    slow_stage = stage_solver(H * method.slow.gamma, f_slow, ode.jac_slow) if method.slow.is_implicit else f_slow
    fast_stage = stage_solver(h * method.fast.gamma, f_fast, ode.jac_fast) if method.fast.is_implicit else f_fast

    # the stage array [y_n | ytilde | d_f | K]: the step's start, the fast solution and fast deviation so far,
    # and the stage values H*f slow, then h*f for the fast stages of the current micro-step; every stage input
    # is one product of its plan row with it
    Kx = np.zeros((3 + s_s + s_f, n))
    Kx[:2] = y_n
    K_slow, K_fast = Kx[3:3 + s_s], Kx[3 + s_s:]
    fast_in = list(map(Kx.__getitem__, plan.fast_spans))  # per fast stage, the stage array over its span
    summed = plan.summed  # the first slow stage with a running sum
    # per slow stage from there, its A^{sf} terms folded so far; none if no micro-step folds
    sf_acc = np.zeros((s_s - summed, n)) if summed < s_s else None

    def compute_slow(j):
        rhs = plan.slow_span_rows[j].dot(Kx[plan.slow_spans[j]])  # past its span: stages not yet computed
        if j >= summed:
            rhs += sf_acc[j - summed]
        t0 = time.perf_counter()
        f = slow_stage(rhs)
        seconds[0] += time.perf_counter() - t0
        np.multiply(f, H, out=K_slow[j])

    fsal = method.has_flag(MethodFlag.FSAL)  # the carry's f_fast_last is f at y_n if its y_next is y_n
    f_prev_last = fsal_carry.f_fast_last if fsal and fsal_carry and np.array_equal(fsal_carry.y_next, y_n) else None

    # unstable step sizes overflow before the explicit finiteness checks fire, a huge H already in the
    # stage values; silence the intermediate warnings, NonFiniteState is the real signal
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, (before, fold) in enumerate(zip(plan.before, plan.folds), 1):
            for i, (rows, stage_in, slow_first) in enumerate(zip(plan.fast_span_rows, fast_in, before)):
                for j in slow_first:
                    compute_slow(j)
                reuse = i == 0 and f_prev_last is not None  # FSAL: the stage input would go unused
                if not reuse:
                    rhs = rows[lam - 1].dot(stage_in)  # past ytilde, the slow stages computed and fast stages < i
                t0 = time.perf_counter()
                F = f_prev_last if reuse else fast_stage(rhs)
                seconds[1] += time.perf_counter() - t0
                np.multiply(F, h, out=K_fast[i])
            if fold < s_s:
                sf_acc[fold - summed:] += plan.sf[lam - 1, fold:].dot(K_fast)
            if fsal:
                f_prev_last = F.copy()  # unscaled and private: an RHS may reuse its result array
            Kx[1:3] += plan.fast_weights.dot(K_fast)  # ytilde and d_f take their b_f and b_f - b_hat_f sums
            if not np.logical_and.reduce(np.isfinite(Kx[1])):  # ndarray.all without its Python-level wrapper
                raise NonFiniteState(f"fast solution non-finite in micro-step {lam}")
        for j in plan.trailing:
            compute_slow(j)

        # the b_s sum, to which y_next adds ytilde, and the slow deviation: rows of one array apart from Kx
        y_next, slow_deviation = plan.slow_weights.dot(K_slow)
        y_next += Kx[1]
        if not np.logical_and.reduce(np.isfinite(y_next)):
            raise NonFiniteState("macro-step produced non-finite state")

    carry = FsalCarry(y_next, f_prev_last) if fsal and f_prev_last is not None else None
    return StepResult(y_next, slow_deviation, Kx[2].copy(), t_n + H, H, M, *seconds,
                      WorkCounters(calls[1], calls[0], newton_iterations, jacobians), carry)


def integrate_fixed(method: MrGarkMethod, ode: PartitionedOde, y0: np.ndarray, t0: float, t_end: float,
                    H: float, M: int, on_step: Callable[[StepResult], None] | None = None) -> StepResult:
    """Take max(1, round((t_end - t0) / H)) equal steps, so t_end is hit exactly.

    ``on_step`` sees each step's result; the last one is returned.
    """
    span = check_span(t0, t_end)
    n = max(1, int(round(span / check_real(H, "H", positive=True))))
    check_type(method, "method", MrGarkMethod)
    check_type(ode, "ode", PartitionedOde)
    check_type(on_step, "on_step", Callable, optional=True)
    y, t, carry = check_state(y0, ode.dimension), t0, None
    if not np.isfinite(y).all():  # step itself checks only the states it produces
        raise InvalidInput("y0 must be finite")
    for _ in range(n):
        result = step(method, ode, y, t, span / n, M, fsal_carry=carry)
        y, t, carry = result.y_next, result.t, result.fsal_carry
        if on_step is not None:
            on_step(result)
    return result


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # _scaled_rms settles a 0/0 or non-finite state
def error_norm(x: np.ndarray, y: np.ndarray, tolerances: Tolerances) -> float:
    """Scaled RMS deviation: values <= 1 mean "within tolerance"; never NaN."""
    x = np.ravel(check_real_array(x, "x"))
    y = _real_of_shape(np.ravel(check_real_array(y, "y")), x.shape, "y")  # not broadcast against x
    return _scaled_rms(x, np.array([y]), np.subtract(x, y)[None], tolerances)[0]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def error_estimates(result: StepResult, tolerances: Tolerances) -> tuple[float, float, float]:
    """(total, slow, fast) local error estimates: for d the slow plus the fast deviation, the slow one and the fast
    one, :func:`error_norm` of ``y_next`` against its embedded solution y_next - d, with d itself as the deviation."""
    check_type(result, "result", StepResult)
    shape = (np.size(result.y_next),)  # each 1-D, none broadcast against another
    x = _real_of_shape(result.y_next, shape, "y_next")
    slow = _real_of_shape(result.slow_deviation, shape, "slow_deviation")
    fast = _real_of_shape(result.fast_deviation, shape, "fast_deviation")
    deviations = np.array([slow + fast, slow, fast])
    return tuple(_scaled_rms(x, x - deviations, deviations, tolerances))


def _scaled_rms(x: np.ndarray, states: np.ndarray, deviations: np.ndarray, tolerances: Tolerances) -> list[float]:
    """Scaled RMS of each row of ``deviations``, x's deviation from that row of ``states`` (overwritten), with the
    scale abs_tol + rel_tol * max(|x|, |state|); call with divide, invalid and over errors ignored."""
    check_type(tolerances, "tolerances", Tolerances)
    if x.size == 0:
        raise InvalidInput("states compared must not be empty")
    abs_tol, rel_tol = tolerances._floats
    check_tolerance_shapes((abs_tol, rel_tol), x.size)
    peaks = np.maximum(np.abs(x), np.abs(states, out=states), out=states)
    # the entries where x or a state compared with it is not finite, or False for none
    unknown = False if math.isfinite(np.maximum.reduce(peaks, None)) else ~np.isfinite(peaks)
    scale = np.add(abs_tol, np.multiply(rel_tol, peaks, out=peaks), out=peaks)
    scaled = np.divide(deviations, scale)
    sums = np.add.reduce(np.square(scaled, out=scaled), axis=-1).tolist()
    if unknown is not False or any(map(math.isnan, sums)):
        # 0/0 where a deviation, its states and the tolerance all vanish is no deviation (rows without a NaN
        # keep their floats); a non-finite state is no estimate, even where its deviation is 0
        scaled = np.where(unknown, math.nan, np.where(deviations == 0.0, 0.0, deviations / scale))
        sums = [math.inf if math.isnan(v) else v for v in np.add.reduce(scaled**2, axis=-1).tolist()]
    # np.mean's own reduction and division, bit for bit, without its Python-level wrapper
    return [math.sqrt(v / x.size) for v in sums]
