"""Property-based checks of the stepper, the controller updates and `drive`."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import mrgark as mg  # noqa: E402
from mrgark import adaptivity  # noqa: E402
from mrgark.adaptivity import (  # noqa: E402
    _M_BOUNDS,
    AdaptivityState,
    ControllerConfig,
    balancing_update,
    drive,
    efficiency_update,
)
from mrgark.errors import InvalidInput, MrGarkError  # noqa: E402
from mrgark.problems import LinearTwoRate  # noqa: E402

from conftest import exact_stability_value, relative_distance  # noqa: E402


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(mg.METHOD_NAMES),
    M=st.integers(min_value=1, max_value=16),
    z_fast=st.floats(min_value=-8.0, max_value=0.5),
    z_slow=st.floats(min_value=-2.0, max_value=0.5),
)
def test_step_matches_stability_function(name, M, z_fast, z_slow):
    # one macro-step of H = 1 from y = 1 on y' = z_f y + z_s y is R(z_f, z_s), and so is stability_value
    method = mg.registry_lookup(name)
    R = exact_stability_value(method, M, z_fast, z_slow)
    y = mg.step(method, LinearTwoRate(z_fast, z_slow).to_ode(), np.array([1.0]), 0.0, 1.0, M).y_next[0]
    assert relative_distance(y, R) <= 1e-13
    assert relative_distance(mg.stability_value(mg.assemble(method, M), z_fast, z_slow), R) <= 1e-13


ESTIMATES = st.one_of(st.just(0.0), st.just(np.inf), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    strategy=st.sampled_from(["balancing", "efficiency", "classic-h"]),
    M_offset=st.integers(0, 120),
    H=st.floats(min_value=1e-12, max_value=1e6),
    eps=st.tuples(ESTIMATES, ESTIMATES, ESTIMATES),
    costs=st.tuples(st.floats(1e-9, 1e3), st.floats(1e-9, 1e3)),
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    m_max=st.one_of(st.none(), st.integers(1, 12)),
)
@example("balancing", 2, 0.1, (np.inf, np.inf, np.inf), (1.0, 1.0), 2, 2, None)
@example("balancing", 2, 0.1, (np.inf, 0.5, np.inf), (1.0, 1.0), 2, 2, None)
@example("balancing", 2, 0.1, (1e-300, 1e-300, 1e300), (1.0, 1.0), 2, 1, None)
@example("efficiency", 3, 0.1, (5e-324, 5e-324, 0.0), (1.0, 1.0), 1, 1, None)
@example("efficiency", 0, 1.0, (0.0, 0.0, 0.0), (1.0, 1.0), 1, 1, None)  # M = 1 is below balancing's bounds
@example("balancing", 8, 0.1, (0.5, 1e-6, 0.5), (1.0, 1.0), 2, 1, 1)  # a ceiling below balancing's floor
@example("efficiency", 9, 0.1, (0.5, 0.1, 0.4), (1.0, 1e-9), 4, 4, 2)  # M above the ceiling
def test_controller_updates_are_total(strategy, M_offset, H, eps, costs, p, q, m_max):
    # estimates from 0 to inf, subnormals and overflowing fast/slow ratios included; the state's M
    # starts inside the bounds of ``strategy`` (a pair's ceiling may lie below it), and each update
    # keeps M inside its own bounds cut to the ceiling, never below the floor
    lo, hi = _M_BOUNDS[strategy]
    state = AdaptivityState(H=H, M=min(lo + M_offset, hi))
    state.eps_total, state.eps_slow, state.eps_fast = eps
    state.t_slow, state.t_fast = costs
    updates = {"balancing": balancing_update(state, p, q, m_max), "efficiency": efficiency_update(state, q, m_max)}
    for rule, (H_new, M_new) in updates.items():
        lo, hi = _M_BOUNDS[rule]
        if m_max is not None:
            hi = max(lo, min(hi, m_max))
        assert 0.5 * H <= H_new <= 2.0 * H and math.isfinite(H_new)
        assert lo <= M_new <= hi and isinstance(M_new, int), rule
    # H is the one solved for the M returned: balancing's H does not depend on M, and
    # efficiency's activates the accuracy constraint at its M
    assert updates["balancing"][0] == balancing_update(state, p, q)[0]
    H_new, M_new = updates["efficiency"]
    eps_proj = state.eps_slow + state.eps_fast * (state.M / M_new) ** q
    H_solved = 0.9 * H * eps_proj ** (-1.0 / (q + 1)) if state.eps_total > 0.0 and eps_proj > 0.0 else math.inf
    assert H_new == min(max(H_solved, 0.5 * H), 2.0 * H)


@pytest.mark.parametrize("update", [lambda s: balancing_update(s, 2, 2), lambda s: efficiency_update(s, 2)],
                         ids=["balancing", "efficiency"])
@pytest.mark.parametrize("eps", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.nan)])
def test_controller_updates_reject_nan_estimates(update, eps):
    state = AdaptivityState(H=0.1, M=4)
    state.eps_total, state.eps_slow, state.eps_fast = eps
    with pytest.raises(InvalidInput):
        update(state)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(mg.METHOD_NAMES),
    strategy=st.sampled_from(["balancing", "efficiency", "classic-h"]),
    lambdas=st.tuples(st.floats(-200.0, 2.0), st.floats(-20.0, 2.0)),
    t0=st.floats(-1.0, 1.0),
    span=st.floats(1e-3, 2.0),
    H0=st.floats(1e-4, 10.0),
    M0=st.integers(1, 12),
    tol=st.floats(1e-9, 1e-2),
)
def test_drive_lands_on_t_end_or_raises(name, strategy, lambdas, t0, span, H0, M0, tol):
    t_end = t0 + span
    cfg = ControllerConfig(strategy=strategy, abs_tol=tol, rel_tol=tol, synthetic_cost_ratio=5.0)
    try:
        with mock.patch.object(adaptivity, "_MAX_REJECTS_PER_STEP", 8):
            res = drive(mg.registry_lookup(name), LinearTwoRate(*lambdas).to_ode(), np.array([1.0]),
                        t0, t_end, cfg, H0=H0, M0=M0)
    except MrGarkError:
        return
    assert res.ts[-1] == t_end
    assert np.all(np.diff(res.ts) > 0) and np.isfinite(res.ys).all()
