"""Controllers that adapt the macro-step H and the multirate ratio M.

Three strategies are provided:

* ``balancing``: H follows the classical embedded-error rule
  H_new = fac * H * eps_total**(-1/p) with fac = 0.9; M is then rescaled so
  the projected slow and fast error contributions balance,
  M_new = round(M * (eps_fast/eps_slow)**(1/q)) with q = min(p, p_hat).
* ``efficiency``: M_new minimizes the projected cost per unit progress,
  (t_s + M'*t_f) * (eps_slow + eps_fast*(M/M')**q)**(1/(q+1)), over
  M' in M-1..M+2; H_new then activates the accuracy constraint for that M.
* ``classic-h``: M stays fixed and only H is controlled.

M stays within [2, 10] under ``balancing`` and within [1, 100] otherwise.

A step is accepted when the total scaled error estimate is at most one.  The
controller is also re-run after a rejection, using the failing step's
estimates.  A step that fails outright (non-finite state, Newton divergence,
non-finite estimate) is rejected too, but H is halved and M kept.  Each update
keeps H_new / H within [0.5, 2].  Costs t_s (per slow stage set) and t_f (per
micro-step) are measured online around the right-hand-side evaluations, or
pinned to a synthetic ratio for reproducible experiments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .errors import InvalidInput, NewtonDivergence, NonFiniteState, StepSizeUnderflow
from .stepping import PartitionedOde, Tolerances, error_estimates, step
from .tableaux import MrGarkMethod

__all__ = [
    "ControllerConfig",
    "AdaptivityState",
    "TraceRecord",
    "DriveResult",
    "balancing_update",
    "efficiency_update",
    "drive",
]

Strategy = Literal["balancing", "efficiency", "classic-h"]

#: bounds on H_new / H per update; a failed step shrinks H by the lower one
_STEP_SCALE_LIMITS = (0.5, 2.0)
#: safety factor on the H that the error model predicts
_FAC = 0.9
#: inclusive bounds on M for each strategy
_M_BOUNDS = {"balancing": (2, 10), "efficiency": (1, 100), "classic-h": (1, 100)}
#: the efficiency controller's candidate M, relative to the current M
_EFFICIENCY_WINDOW = (-1, 2)


@dataclass(frozen=True)
class ControllerConfig:
    strategy: Strategy = "efficiency"
    abs_tol: float | np.ndarray = 1e-6
    rel_tol: float | np.ndarray = 1e-6
    synthetic_cost_ratio: float | None = None  # t_slow / t_fast; None = measure online
    max_rejects_per_step: int = 20

    def __post_init__(self):
        if self.strategy not in get_args(Strategy):
            raise InvalidInput(f"unknown strategy {self.strategy!r}")
        if self.synthetic_cost_ratio is not None and not 0 < self.synthetic_cost_ratio < math.inf:
            raise InvalidInput(f"synthetic_cost_ratio must be finite and > 0, got {self.synthetic_cost_ratio!r}")
        if not (np.all(np.asarray(self.abs_tol) >= 0.0) and np.all(np.asarray(self.rel_tol) >= 0.0)):
            raise InvalidInput("abs_tol and rel_tol must be >= 0 and not NaN")

    def tolerances(self) -> Tolerances:
        return Tolerances(abs_tol=self.abs_tol, rel_tol=self.rel_tol)


@dataclass
class AdaptivityState:
    H: float
    M: int
    eps_total: float = 0.0
    eps_slow: float = 0.0
    eps_fast: float = 0.0
    # ratio-neutral seeds until real measurements exist
    t_slow: float = 1.0
    t_fast: float = 1.0
    accepted: int = 0
    rejected: int = 0
    trace: list["TraceRecord"] = field(default_factory=list)


@dataclass(frozen=True)
class TraceRecord:
    t: float
    H: float
    M: int
    eps_total: float
    eps_slow: float
    eps_fast: float
    accepted: bool


@dataclass(eq=False)
class DriveResult:
    ts: np.ndarray
    ys: np.ndarray
    state: AdaptivityState


def _clamp_h(H: float, H_new: float) -> float:
    lo, hi = _STEP_SCALE_LIMITS
    return float(min(max(H_new, lo * H), hi * H))


def _check_estimates(state: AdaptivityState) -> None:
    if math.isnan(state.eps_total + state.eps_slow + state.eps_fast):
        raise InvalidInput(f"NaN error estimate: {(state.eps_total, state.eps_slow, state.eps_fast)}")


def _total_error_h(state: AdaptivityState, p: int) -> float:
    """fac * H * eps_total**(-1/p), clamped; top growth if eps_total <= 0."""
    _check_estimates(state)
    if state.eps_total <= 0.0:
        return _clamp_h(state.H, math.inf)
    # a subnormal estimate would overflow the power; the clamp caps the growth anyway
    eps = max(state.eps_total, sys.float_info.min)
    return _clamp_h(state.H, _FAC * state.H * eps ** (-1.0 / p))


def balancing_update(state: AdaptivityState, p: int, q: int, config: ControllerConfig) -> tuple[float, int]:
    """Macro-step from the total estimate, M from the fast/slow balance.

    An infinite or overflowing fast/slow ratio sends M to the upper bound;
    both estimates infinite leave M as it is.
    """
    H_new = _total_error_h(state, p)
    if state.eps_total <= 0.0:
        return H_new, state.M
    lo, hi = _M_BOUNDS[config.strategy]
    if state.eps_slow <= 0.0:
        M_new = hi if state.eps_fast > 0.0 else state.M
    else:
        scaled = state.M * (state.eps_fast / state.eps_slow) ** (1.0 / q)
        M_new = state.M if math.isnan(scaled) else hi if scaled == math.inf else round(scaled)
    return H_new, int(min(max(M_new, lo), hi))


def efficiency_update(state: AdaptivityState, q: int, config: ControllerConfig) -> tuple[float, int]:
    """Pick M in a window to minimize projected cost, then solve for H."""
    _check_estimates(state)
    lo, hi = _M_BOUNDS[config.strategy]
    wlo, whi = _EFFICIENCY_WINDOW
    window = [m for m in range(max(1, state.M + wlo), state.M + whi + 1) if lo <= m <= hi]
    if not window:
        window = [min(max(state.M, lo), hi)]
    if state.eps_total <= 0.0:
        return _clamp_h(state.H, math.inf), state.M

    def projected_eps(m_new: int) -> float:
        return state.eps_slow + state.eps_fast * (state.M / m_new) ** q

    def objective(m_new: int) -> float:
        return (state.t_slow + m_new * state.t_fast) * projected_eps(m_new) ** (1.0 / (q + 1))

    M_new = min(window, key=lambda m: (objective(m), m))
    eps_proj = projected_eps(M_new)
    if eps_proj <= 0.0:
        return _clamp_h(state.H, math.inf), M_new
    H_new = _FAC * state.H * eps_proj ** (-1.0 / (q + 1))
    return _clamp_h(state.H, H_new), M_new


def _controller(state: AdaptivityState, method: MrGarkMethod, config: ControllerConfig) -> tuple[float, int]:
    p = method.order
    q = min(method.order, method.embedded_order)
    if config.strategy == "balancing":
        return balancing_update(state, p, q, config)
    if config.strategy == "efficiency":
        return efficiency_update(state, q, config)
    return _total_error_h(state, p), state.M


def drive(
    method: MrGarkMethod,
    ode: PartitionedOde,
    y0: np.ndarray,
    t0: float,
    t_end: float,
    config: ControllerConfig,
    H0: float | None = None,
    M0: int | None = None,
) -> DriveResult:
    """Integrate adaptively from t0 to t_end; the final time is hit exactly."""
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise InvalidInput(f"need finite t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    span = t_end - t0
    lo, hi = _M_BOUNDS[config.strategy]
    state = AdaptivityState(
        H=H0 if H0 is not None else span / 100.0,
        M=int(min(max(M0 if M0 is not None else lo, lo), hi)),
    )
    tolerances = config.tolerances()

    t = float(t0)
    y = np.array(y0, dtype=float)
    ts = [t]
    ys = [y.copy()]
    carry = None
    rejects_in_a_row = 0
    t_last = t_end - 1e-14 * span  # a step reaching past this ends the run

    while t < t_last:
        if state.H < 1e-14 * span:
            raise StepSizeUnderflow(f"H={state.H} at t={t}")
        H_eff = min(state.H, t_end - t)
        try:
            result = step(method, ode, y, t, H_eff, state.M, fsal_carry=carry)
            estimates = error_estimates(result, tolerances)
        except (NonFiniteState, NewtonDivergence):
            estimates = None
        # a blow-up inside the step, or no finite estimate of it, is a failed step
        failed = estimates is None or not math.isfinite(sum(estimates))
        eps_total, eps_slow, eps_fast = (math.inf,) * 3 if failed else estimates
        accepted = eps_total <= 1.0
        state.trace.append(TraceRecord(t, H_eff, state.M, eps_total, eps_slow, eps_fast, accepted))
        if accepted:
            state.accepted += 1
            rejects_in_a_row = 0
            # t + (t_end - t) can round an ulp away from t_end
            t = t_end if t + H_eff >= t_last else t + H_eff
            y = result.y_next
            carry = result.fsal_carry
            ts.append(t)
            ys.append(y.copy())
        else:
            state.rejected += 1
            rejects_in_a_row += 1
            carry = None
            if rejects_in_a_row > config.max_rejects_per_step:
                raise StepSizeUnderflow(f"{rejects_in_a_row} consecutive rejections at t={t}")
        if failed:
            # no estimate to feed the controller: shrink H, keep M
            state.H = H_eff * _STEP_SCALE_LIMITS[0]
            continue
        # the estimates belong to the step actually taken
        state.H = H_eff
        state.eps_total, state.eps_slow, state.eps_fast = eps_total, eps_slow, eps_fast
        if config.synthetic_cost_ratio is not None:
            state.t_slow, state.t_fast = config.synthetic_cost_ratio, 1.0
        elif result.t_fast > 0.0 and result.t_slow > 0.0:
            state.t_slow = result.t_slow
            state.t_fast = result.t_fast / state.M
        state.H, state.M = _controller(state, method, config)

    return DriveResult(ts=np.array(ts), ys=np.array(ys), state=state)
