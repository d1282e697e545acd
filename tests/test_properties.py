"""Property-based checks of the stepper, the controller updates and `drive`."""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import mrgark as mg  # noqa: E402
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


def exact_stability_value(method, M, z_fast, z_slow):
    """R(z_f, z_s) = 1 + b^T Z (I - A Z)^{-1} 1 of the float coefficients, in exact arithmetic.

    The stage equations Y_i (1 - a_ii z_i) = 1 + sum_{j != i} a_ij z_j Y_j are
    solved by substitution in schedule order, where A is lower triangular.
    """
    g = mg.assemble(method, M)
    n_fast = M * g.s_f
    z = [Fraction(z_fast) if i < n_fast else Fraction(z_slow) for i in range(g.stage_count)]
    A = [[Fraction(a) if a != 0.0 else None for a in row] for row in g.A.tolist()]
    zY = {}  # z_j Y_j of the stages solved so far
    for i in mg.derive_schedule(g, method).order:
        known = 1 + sum(A[i][j] * zY[j] for j in zY if A[i][j] is not None)
        zY[i] = z[i] * known / (1 - (A[i][i] or 0) * z[i])
    return 1 + sum(Fraction(g.b[i]) * zY[i] for i in zY)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(mg.METHOD_NAMES),
    M=st.integers(min_value=1, max_value=16),
    z_fast=st.floats(min_value=-8.0, max_value=0.5),
    z_slow=st.floats(min_value=-2.0, max_value=0.5),
)
def test_step_matches_stability_function(name, M, z_fast, z_slow):
    # one macro-step of H = 1 from y = 1 on y' = z_f y + z_s y is R(z_f, z_s)
    method = mg.registry_lookup(name)
    R = exact_stability_value(method, M, z_fast, z_slow)
    y = mg.step(method, LinearTwoRate(z_fast, z_slow).to_ode(), np.array([1.0]), 0.0, 1.0, M).y_next[0]
    assert abs(Fraction(y) - R) <= Fraction(1e-13) * (1 + abs(R))


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
)
@example("balancing", 2, 0.1, (np.inf, np.inf, np.inf), (1.0, 1.0), 2, 2)
@example("balancing", 2, 0.1, (np.inf, 0.5, np.inf), (1.0, 1.0), 2, 2)
@example("balancing", 2, 0.1, (1e-300, 1e-300, 1e300), (1.0, 1.0), 2, 1)
@example("efficiency", 3, 0.1, (5e-324, 5e-324, 0.0), (1.0, 1.0), 1, 1)
def test_controller_updates_are_total(strategy, M_offset, H, eps, costs, p, q):
    # estimates from 0 to inf, subnormals and overflowing fast/slow ratios included
    cfg = ControllerConfig(strategy=strategy)
    lo, hi = _M_BOUNDS[strategy]
    state = AdaptivityState(H=H, M=min(lo + M_offset, hi))
    state.eps_total, state.eps_slow, state.eps_fast = eps
    state.t_slow, state.t_fast = costs
    for H_new, M_new in (balancing_update(state, p, q, cfg), efficiency_update(state, q, cfg)):
        assert 0.5 * H <= H_new <= 2.0 * H and math.isfinite(H_new)
        assert lo <= M_new <= hi and isinstance(M_new, int)


@pytest.mark.parametrize("update", [lambda s, c: balancing_update(s, 2, 2, c), lambda s, c: efficiency_update(s, 2, c)],
                         ids=["balancing", "efficiency"])
@pytest.mark.parametrize("eps", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.nan)])
def test_controller_updates_reject_nan_estimates(update, eps):
    state = AdaptivityState(H=0.1, M=4)
    state.eps_total, state.eps_slow, state.eps_fast = eps
    with pytest.raises(InvalidInput):
        update(state, ControllerConfig(strategy="balancing"))


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
    cfg = ControllerConfig(strategy=strategy, abs_tol=tol, rel_tol=tol, synthetic_cost_ratio=5.0,
                           max_rejects_per_step=8)
    try:
        res = drive(mg.registry_lookup(name), LinearTwoRate(*lambdas).to_ode(), np.array([1.0]),
                    t0, t_end, cfg, H0=H0, M0=M0)
    except MrGarkError:
        return
    assert res.ts[-1] == t_end
    assert np.all(np.diff(res.ts) > 0) and np.isfinite(res.ys).all()
