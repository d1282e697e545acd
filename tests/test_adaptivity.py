import numpy as np
import pytest

import mrgark as mg
from mrgark.adaptivity import (
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
    cfg = ControllerConfig(strategy="balancing")
    state = make_state(eps=(0.5, 0.2, 0.2))
    _, M_new = balancing_update(state, p=2, q=1, config=cfg)
    assert M_new == state.M


def test_balancing_m_formula():
    cfg = ControllerConfig(strategy="balancing", m_bounds=(1, 100))
    state = make_state(M=4, eps=(0.5, 0.4, 0.1))  # eps_fast/eps_slow = 1/4
    _, M_new = balancing_update(state, p=2, q=2, config=cfg)
    assert M_new == round(4 * (0.25) ** 0.5) == 2


def test_balancing_h_formula():
    cfg = ControllerConfig(strategy="balancing", fac=0.9)
    state = make_state(H=1.0, eps=(1.0, 0.5, 0.5))
    H_new, _ = balancing_update(state, p=2, q=1, config=cfg)
    assert H_new == pytest.approx(0.9)


def test_balancing_classic_exponent_mode():
    cfg = ControllerConfig(strategy="balancing", fac=1.0, exponent_mode="classic")
    state = make_state(H=1.0, eps=(2.0, 1.0, 1.0))
    H_new, _ = balancing_update(state, p=1, q=1, config=cfg)
    assert H_new == pytest.approx(2.0 ** -0.5)  # exponent -1/(p+1), inside the clamp


def test_zero_error_estimate_grows_h_keeps_m():
    cfg = ControllerConfig(strategy="balancing")
    state = make_state(H=0.2, eps=(0.0, 0.0, 0.0))
    H_new, M_new = balancing_update(state, p=2, q=1, config=cfg)
    assert H_new == pytest.approx(0.4)  # clamp-max growth
    assert M_new == state.M


def test_balancing_default_m_bounds():
    cfg = ControllerConfig(strategy="balancing")
    assert cfg.resolved_m_bounds() == (2, 10)
    assert ControllerConfig(strategy="efficiency").resolved_m_bounds() == (1, 100)


def test_efficiency_h_constraint_active():
    cfg = ControllerConfig(strategy="efficiency", fac=1.0, m_bounds=(4, 4),
                           efficiency_window=(0, 0))
    state = make_state(H=0.3, M=4, eps=(1.0, 0.5, 0.5))
    H_new, M_new = efficiency_update(state, q=2, config=cfg)
    assert M_new == 4
    assert H_new == pytest.approx(0.3)  # eps_slow + eps_fast*(M/M)^q = 1 already


def test_efficiency_free_fast_cost_pushes_window_cap():
    cfg = ControllerConfig(strategy="efficiency")
    state = make_state(M=4, eps=(0.6, 0.1, 0.5), costs=(1.0, 1e-12))
    _, M_new = efficiency_update(state, q=2, config=cfg)
    assert M_new == 4 + 2


def test_efficiency_argmin_matches_exhaustive_oracle():
    cfg = ControllerConfig(strategy="efficiency")
    state = make_state(M=4, eps=(0.6, 0.3, 0.3), costs=(1.0, 1.0))
    q = 2
    _, M_new = efficiency_update(state, q=q, config=cfg)
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
    cfg = ControllerConfig(strategy="efficiency")
    state = make_state(M=6, eps=(0.5, 0.3, eps_f), costs=(ts, 1.0))
    q = 2
    _, M_new = efficiency_update(state, q=q, config=cfg)
    window = list(range(5, 9))
    assert M_new in window
    obj = lambda m: (state.t_slow + m * state.t_fast) * (
        state.eps_slow + state.eps_fast * (state.M / m) ** q
    ) ** (1 / (q + 1))
    assert all(obj(M_new) <= obj(m) + 1e-15 for m in window)


def test_balancing_and_efficiency_near_neutral_when_balanced():
    state = make_state(M=4, eps=(0.5, 0.3, 0.3), costs=(1.0, 1.0))
    _, M_bal = balancing_update(state, p=2, q=2, config=ControllerConfig(strategy="balancing"))
    _, M_eff = efficiency_update(state, q=2, config=ControllerConfig(strategy="efficiency"))
    assert abs(M_bal - M_eff) <= 1


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(fac=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(efficiency_window=(1, 2))
    for bad in (dict(strategy="bogus"), dict(exponent_mode="bogus"), dict(m_bounds=(5, 2)),
                dict(m_bounds=(0, 3)), dict(synthetic_cost_ratio=-1.0),
                dict(synthetic_cost_ratio=np.nan), dict(synthetic_cost_ratio=np.inf)):
        with pytest.raises(InvalidInput):
            ControllerConfig(**bad)
    ControllerConfig(m_bounds=(3, 3), synthetic_cost_ratio=0.5)


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
    lo, hi = cfg.resolved_m_bounds()
    assert all(lo <= r.M <= hi for r in res.state.trace)


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
@pytest.mark.parametrize("value", [-1e-6, np.nan, np.array([1e-6, -1.0])])
def test_config_rejects_negative_or_nan_tolerances(field, value):
    with pytest.raises(InvalidInput):
        ControllerConfig(**{field: value})


@pytest.mark.parametrize("t0, t_end", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)])
def test_drive_rejects_non_finite_span(t0, t_end):
    with pytest.raises(InvalidInput):
        drive(mg.registry_lookup("EX-EX 2(1)A"), LinearTwoRate().to_ode(),
              np.array([1.0]), t0, t_end, ControllerConfig())


def test_drive_treats_non_finite_estimate_as_failed_step():
    # zero tolerances make every nonzero deviation an infinite estimate
    cfg = ControllerConfig(strategy="balancing", abs_tol=0.0, rel_tol=0.0, max_rejects_per_step=3)
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
