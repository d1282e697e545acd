from unittest import mock

import numpy as np
import pytest

import mrgark as mg
from mrgark import adaptivity
from mrgark.adaptivity import (
    _M_BOUNDS,
    AdaptivityState,
    ControllerConfig,
    balancing_update,
    drive,
    efficiency_update,
)
from mrgark.errors import InvalidInput, StepSizeUnderflow
from mrgark.problems import CoupledNonlinearScalar, GrayScott, LinearTwoRate


def make_state(H=0.1, M=4, eps=(0.5, 0.3, 0.3), costs=(1.0, 1.0)):
    s = AdaptivityState(H=H, M=M)
    s.eps_total, s.eps_slow, s.eps_fast = eps
    s.t_slow, s.t_fast = costs
    return s


def test_balancing_keeps_m_when_errors_balance():
    state = make_state(eps=(0.5, 0.2, 0.2))
    _, M_new = balancing_update(state, p=2, q=1)
    assert M_new == state.M


def test_balancing_m_formula():
    state = make_state(M=4, eps=(0.5, 0.4, 0.1))  # eps_fast/eps_slow = 1/4
    _, M_new = balancing_update(state, p=2, q=2)
    assert M_new == round(4 * (0.25) ** 0.5) == 2


def test_balancing_h_formula():
    state = make_state(H=1.0, eps=(1.0, 0.5, 0.5))
    H_new, _ = balancing_update(state, p=2, q=1)
    assert H_new == pytest.approx(0.9)


def test_zero_error_estimate_grows_h_keeps_m():
    state = make_state(H=0.2, eps=(0.0, 0.0, 0.0))
    H_new, M_new = balancing_update(state, p=2, q=1)
    assert H_new == pytest.approx(0.4)  # clamp-max growth
    assert M_new == state.M


def test_balancing_default_m_bounds():
    assert _M_BOUNDS == {"balancing": (2, 10), "efficiency": (1, 100), "classic-h": (1, 100)}
    # a lopsided fast/slow split pushes M to either bound, and no further
    assert balancing_update(make_state(M=4, eps=(0.5, 1e-6, 0.5)), p=2, q=1)[1] == 10
    assert balancing_update(make_state(M=4, eps=(0.5, 0.5, 1e-6)), p=2, q=1)[1] == 2
    assert efficiency_update(make_state(M=100, costs=(1.0, 1e-12)), q=2)[1] == 100
    assert efficiency_update(make_state(M=1, costs=(1e-12, 1.0)), q=2)[1] == 1


def test_efficiency_h_constraint_active():
    # t_s = 8 t_f makes M = 4 the cheapest of the window 3..6
    state = make_state(H=0.3, M=4, eps=(1.0, 0.5, 0.5), costs=(8.0, 1.0))
    H_new, M_new = efficiency_update(state, q=2)
    assert M_new == 4
    assert H_new == pytest.approx(0.9 * 0.3)  # eps_slow + eps_fast*(M/M)^q = 1 already


def test_efficiency_free_fast_cost_pushes_window_cap():
    state = make_state(M=4, eps=(0.6, 0.1, 0.5), costs=(1.0, 1e-12))
    _, M_new = efficiency_update(state, q=2)
    assert M_new == 4 + 2


def test_efficiency_argmin_matches_exhaustive_oracle():
    state = make_state(M=4, eps=(0.6, 0.3, 0.3), costs=(1.0, 1.0))
    q = 2
    _, M_new = efficiency_update(state, q=q)
    window = [3, 4, 5, 6]
    oracle = min(
        window,
        key=lambda m: ((state.t_slow + m * state.t_fast)
                       * (state.eps_slow + state.eps_fast * (state.M / m) ** q) ** (1 / (q + 1)), m),
    )
    assert M_new == oracle


@pytest.mark.parametrize("eps_f", [0.05, 0.2, 0.8])
@pytest.mark.parametrize("ts", [0.5, 1.0, 20.0])
def test_efficiency_m_always_in_window_and_optimal(eps_f, ts):
    state = make_state(M=6, eps=(0.5, 0.3, eps_f), costs=(ts, 1.0))
    q = 2
    _, M_new = efficiency_update(state, q=q)
    window = list(range(5, 9))
    assert M_new in window
    obj = lambda m: (state.t_slow + m * state.t_fast) * (
        state.eps_slow + state.eps_fast * (state.M / m) ** q
    ) ** (1 / (q + 1))
    assert all(obj(M_new) <= obj(m) + 1e-15 for m in window)


def test_balancing_and_efficiency_near_neutral_when_balanced():
    state = make_state(M=4, eps=(0.5, 0.3, 0.3), costs=(1.0, 1.0))
    _, M_bal = balancing_update(state, p=2, q=2)
    _, M_eff = efficiency_update(state, q=2)
    assert abs(M_bal - M_eff) <= 1


def test_config_validation():
    for bad in (dict(strategy="bogus"), dict(synthetic_cost_ratio=-1.0),
                dict(synthetic_cost_ratio=np.nan), dict(synthetic_cost_ratio=np.inf)):
        with pytest.raises(InvalidInput):
            ControllerConfig(**bad)
    ControllerConfig(synthetic_cost_ratio=0.5)
    for fixed in ("fac", "m_bounds", "efficiency_window", "exponent_mode", "max_rejects_per_step"):
        with pytest.raises(TypeError):
            ControllerConfig(**{fixed: None})


def test_drive_smoke_loose_tolerance():
    # mild rates and a short horizon: the controller never hits the stability
    # wall, so a loose-tolerance run finishes without a single rejection
    prob = LinearTwoRate(-2.0, -0.5)
    cfg = ControllerConfig(strategy="efficiency", abs_tol=1e-3, rel_tol=1e-3)
    res = drive(mg.registry_lookup("EX-EX 2(1)A"), prob.to_ode(), np.array([1.0]),
                0.0, 1.0, cfg, H0=0.02, M0=2)
    assert res.state.rejected == 0
    assert np.all(np.diff(res.ts) > 0)
    assert res.ts[-1] == pytest.approx(1.0, abs=1e-14)


def test_drive_accept_rule_and_trace():
    prob = CoupledNonlinearScalar()
    cfg = ControllerConfig(strategy="balancing", abs_tol=1e-5, rel_tol=1e-5)
    res = drive(mg.registry_lookup("EX-EX 3(2)3s-A"), prob.to_ode(),
                prob.initial_condition(), 0.0, 2.0, cfg, H0=0.05, M0=3)
    accepted = [r for r in res.state.trace if r.accepted]
    rejected = [r for r in res.state.trace if not r.accepted]
    assert all(r.eps_total <= 1.0 for r in accepted)
    assert all(r.eps_total > 1.0 for r in rejected)
    assert len(accepted) == res.state.accepted
    ts = [r.t for r in accepted]
    assert ts == sorted(ts)
    # bounds respected throughout
    lo, hi = _M_BOUNDS["balancing"]
    assert all(lo <= r.M <= hi for r in res.state.trace)


@pytest.mark.parametrize("M0", [2.7, True, 0, -1, "2"])
def test_drive_rejects_non_integer_or_non_positive_m0(M0):
    with pytest.raises(InvalidInput):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), 0.0, 1.0, ControllerConfig(), M0=M0)


@pytest.mark.parametrize("H0", [-1.0, 0.0, np.nan, np.inf, "0.1"])
def test_drive_rejects_non_finite_or_non_positive_h0(H0):
    with pytest.raises(InvalidInput):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), 0.0, 1.0, ControllerConfig(), H0=H0)


def test_drive_clamps_integer_m0_into_bounds():
    cfg = ControllerConfig(strategy="balancing", abs_tol=1e-2, rel_tol=1e-2)
    lo, hi = _M_BOUNDS["balancing"]
    for M0, first in ((1, lo), (np.int64(50), hi)):
        res = drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
                    np.array([1.0]), 0.0, 0.1, cfg, M0=M0)
        assert res.state.trace[0].M == first and type(res.state.trace[0].M) is int


@pytest.mark.parametrize("strategy", ["balancing", "efficiency", "classic-h"])
def test_drive_keeps_m_under_the_pair_ceiling(strategy):
    # IM-EX 4(2)A's fast error grows with M, so the M-adapting controllers stop at its
    # m_max; the ceiling narrows the efficiency window before H is solved (a ceiling put
    # on the M returned, with H solved for the uncapped M, is rejected 21 times at t = 0).
    # classic-h keeps the caller's M
    method = mg.registry_lookup("IM-EX 4(2)A")
    assert method.m_max == 2
    cfg = ControllerConfig(strategy=strategy, abs_tol=1e-6, rel_tol=1e-6, synthetic_cost_ratio=5.0)
    res = drive(method, LinearTwoRate(-10.0, -1.0).to_ode(), np.array([1.0]), 0.0, 0.1, cfg, H0=0.02, M0=10)
    assert res.ts[-1] == 0.1
    Ms = {r.M for r in res.state.trace}
    assert Ms == {10} if strategy == "classic-h" else max(Ms) <= method.m_max


def test_drive_keeps_the_fsal_carry_across_a_rejection():
    # y is unchanged after a rejected step, so its retry reuses the last accepted
    # step's fast RHS: one fast call fewer than a retry without the carry
    method = mg.registry_lookup("EX-EX 4(3)A")
    s_f = method.stage_counts[0]
    real = adaptivity.error_estimates
    calls = []

    def reject_third(result, tolerances):
        calls.append(None)
        return (2.0, 1.0, 1.0) if len(calls) == 3 else real(result, tolerances)

    base = LinearTwoRate(-10.0, -1.0).to_ode()
    fast_calls = []
    ode = mg.PartitionedOde(1, f_slow=base.f_slow, f_fast=lambda y: fast_calls.append(None) or base.f_fast(y))
    cfg = ControllerConfig(strategy="classic-h", abs_tol=1e-6, rel_tol=1e-6)
    with mock.patch.object(adaptivity, "error_estimates", reject_third):
        res = drive(method, ode, np.array([1.0]), 0.0, 0.1, cfg, H0=0.01, M0=2)
    trace = res.state.trace
    assert [r.accepted for r in trace[:4]] == [True, True, False, True]
    # FSAL: M * s_f calls per step, less one per micro-step after the first,
    # less one more in every step after the first accepted one
    assert len(fast_calls) == sum(r.M * (s_f - 1) + 1 for r in trace) - (len(trace) - 1)


def test_drive_tolerance_ordering():
    prob = CoupledNonlinearScalar()
    method = mg.registry_lookup("EX-EX 3(2)3s-A")
    finals = {}
    for tol in (1e-2, 1e-8):
        cfg = ControllerConfig(strategy="classic-h", abs_tol=tol, rel_tol=tol)
        res = drive(method, prob.to_ode(), prob.initial_condition(), 0.0, 1.0, cfg,
                    H0=0.05, M0=2)
        finals[tol] = res
    ref_cfg = ControllerConfig(strategy="classic-h", abs_tol=1e-11, rel_tol=1e-11)
    ref = drive(method, prob.to_ode(), prob.initial_condition(), 0.0, 1.0, ref_cfg,
                H0=0.01, M0=2).ys[-1]
    err_loose = abs(finals[1e-2].ys[-1] - ref)[0]
    err_tight = abs(finals[1e-8].ys[-1] - ref)[0]
    assert err_tight < err_loose
    assert finals[1e-8].state.accepted > finals[1e-2].state.accepted


def test_drive_classic_h_keeps_m_fixed():
    prob = LinearTwoRate(-10.0, -1.0)
    cfg = ControllerConfig(strategy="classic-h", abs_tol=1e-6, rel_tol=1e-6)
    res = drive(mg.registry_lookup("EX-EX 2(1)A"), prob.to_ode(), np.array([1.0]),
                0.0, 0.5, cfg, H0=0.01, M0=3)
    assert all(r.M == 3 for r in res.state.trace)
    assert all(r.eps_total <= 1.0 for r in res.state.trace if r.accepted)


def test_drive_step_size_underflow():
    # a right-hand side that always blows up forces endless shrinking
    from mrgark.stepping import PartitionedOde

    ode = PartitionedOde(1, f_slow=lambda y: y * 0.0,
                         f_fast=lambda y: np.array([np.inf]))
    cfg = ControllerConfig(strategy="classic-h")
    with pytest.raises(StepSizeUnderflow):
        drive(mg.registry_lookup("EX-EX 2(1)A"), ode, np.array([1.0]), 0.0, 1.0, cfg,
              H0=0.1, M0=2)


def test_drive_rejects_then_recovers():
    # start with a wildly large H; the controller must reject, shrink, finish
    prob = CoupledNonlinearScalar()
    cfg = ControllerConfig(strategy="classic-h", abs_tol=1e-6, rel_tol=1e-6)
    res = drive(mg.registry_lookup("EX-EX 2(1)A"), prob.to_ode(),
                prob.initial_condition(), 0.0, 0.5, cfg, H0=0.5, M0=2)
    assert res.state.rejected >= 1
    assert res.ts[-1] == pytest.approx(0.5, abs=1e-14)


def test_drive_lands_exactly_on_t_end():
    # t0 + (t_end - t0) rounds one ulp below t_end for these values
    t0, t_end = 0.2927830460426045, 1.7500340857016023
    cfg = ControllerConfig(strategy="classic-h", abs_tol=1e-2, rel_tol=1e-2)
    res = drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate(-1e-3, -1e-4).to_ode(),
                np.array([1.0]), t0, t_end, cfg, H0=10.0, M0=2)
    assert res.state.accepted == 1
    assert res.ts[-1] == t_end


def test_drive_requires_forward_span():
    cfg = ControllerConfig()
    with pytest.raises(ValueError):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), 1.0, 1.0, cfg)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [-1e-6, np.nan, np.array([1e-6, -1.0]), "x", None])
def test_config_rejects_negative_or_nan_tolerances(field, value):
    with pytest.raises(InvalidInput):
        ControllerConfig(**{field: value})


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [np.ones(3), np.ones((1, 1))])
def test_drive_rejects_tolerance_arrays_not_of_the_problem_size(field, value):
    # 3 tolerances on a scalar problem would average its error over 3 copies
    with pytest.raises(InvalidInput):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), 0.0, 1.0, ControllerConfig(**{field: value}))


def test_drive_takes_a_tolerance_per_component():
    gs = GrayScott(n=8)
    ode, y0 = gs.to_ode(), gs.initial_condition()
    res = drive(mg.registry_lookup("EX-EX 2(1)A"), ode, y0, 0.0, 0.05,
                ControllerConfig(abs_tol=np.full(gs.dimension, 1e-4), rel_tol=np.ones(1) * 1e-4))
    ref = drive(mg.registry_lookup("EX-EX 2(1)A"), ode, y0, 0.0, 0.05, ControllerConfig(abs_tol=1e-4, rel_tol=1e-4))
    assert np.array_equal(res.ys, ref.ys)


@pytest.mark.parametrize("t0, t_end", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)])
def test_drive_rejects_non_finite_span(t0, t_end):
    with pytest.raises(InvalidInput):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), t0, t_end, ControllerConfig())


def test_drive_treats_non_finite_estimate_as_failed_step(monkeypatch):
    # zero tolerances make every nonzero deviation an infinite estimate
    monkeypatch.setattr(adaptivity, "_MAX_REJECTS_PER_STEP", 3)
    cfg = ControllerConfig(strategy="balancing", abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(StepSizeUnderflow):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), 0.0, 1.0, cfg, H0=0.1, M0=2)


def test_drive_zero_abs_tol_on_vanishing_component():
    # v is exactly zero off the seed square, so 0/0 enters the scaled norm; the
    # relative error of the v front stays O(1) as H shrinks, so the controller
    # must give up with a toolkit error instead of crashing on a NaN estimate
    gs = GrayScott(n=16, diffusion_mode="linear")
    cfg = ControllerConfig(strategy="balancing", abs_tol=0.0, rel_tol=1e-3)
    with np.errstate(invalid="ignore"), pytest.raises(StepSizeUnderflow):
        drive(mg.registry_lookup("EX-EX 3(2)4s-A"), gs.to_ode(), gs.initial_condition(),
              0.0, 0.05, cfg, H0=0.01, M0=2)


def test_drive_zero_abs_tol_on_zero_state_lands_on_t_end():
    cfg = ControllerConfig(strategy="balancing", abs_tol=0.0, rel_tol=1e-6)
    with np.errstate(invalid="ignore"):
        res = drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
                    np.array([0.0]), 0.0, 1.0, cfg, H0=0.1, M0=2)
    assert res.ts[-1] == 1.0
    assert all(r.eps_total == 0.0 and r.accepted for r in res.state.trace)
