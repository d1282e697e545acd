import itertools
import warnings

import numpy as np
import pytest

import mrgark as mg
from mrgark import stepping
from mrgark.errors import CoupledMethod, InvalidInput, NewtonDivergence, NonFiniteState
from mrgark.problems import CoupledNonlinearScalar, GrayScott, LinearTwoRate
from mrgark.stepping import (
    FsalCarry,
    PartitionedOde,
    Tolerances,
    error_estimates,
    _step_plan,
    error_norm,
    integrate_fixed,
    newton_solve,
    step,
)
from mrgark.tableaux import ButcherTableau, MethodFlag, MrGarkMethod, TableauKind

LINEAR = LinearTwoRate(-10.0, -1.0)


def rk_run(tab: ButcherTableau, f, y0, H, n_steps):
    """Plain single-rate Runge-Kutta oracle for a base tableau (explicit)."""
    y = np.array(y0, dtype=float)
    for _ in range(n_steps):
        F = np.zeros((tab.stage_count, y.size))
        for i in range(tab.stage_count):
            Y = y + H * (F[:i].T @ tab.A[i, :i])
            F[i] = f(Y)
        y = y + H * (F.T @ tab.b)
    return y


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 2, 4])
def test_step_matches_stability_function(name, M):
    m = mg.registry_lookup(name)
    H = 0.1
    g = mg.assemble(m, M)
    R = mg.stability_value(g, H * LINEAR.lambda_fast, H * LINEAR.lambda_slow)
    result = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, H, M)
    assert result.y_next[0] == pytest.approx(R.real, abs=1e-13)


def test_step_example_equal_rates():
    m = mg.registry_lookup("EX-EX 2(1)A")
    prob = LinearTwoRate(-1.0, -1.0)
    g = mg.assemble(m, 1)
    R = mg.stability_value(g, -0.1, -0.1)
    result = step(m, prob.to_ode(), np.array([1.0]), 0.0, 0.1, 1)
    assert result.y_next[0] == pytest.approx(R.real, abs=1e-13)


@pytest.mark.parametrize("name", ["EX-EX 3(2)3s-A", "EX-EX 4(3)A", "IM-EX 2(1)A"])
def test_zero_fast_part_reduces_to_slow_base_method(name):
    m = mg.registry_lookup(name)
    ode = PartitionedOde(1, f_slow=lambda y: -1.0 * y, f_fast=lambda y: 0.0 * y,
                         jac_fast=lambda y: np.array([[0.0]]))
    result = step(m, ode, np.array([1.0]), 0.0, 0.2, 3)
    if m.slow.kind is TableauKind.EXPLICIT:
        expected = rk_run(m.slow, lambda y: -y, [1.0], 0.2, 1)
        assert abs(result.y_next[0] - expected[0]) < 1e-13
    else:
        # implicit slow alone: compare against the scalar stability function
        za = 0.2 * -1.0
        A, b = m.slow.A, m.slow.b
        x = np.linalg.solve(np.eye(len(b)) - za * A, np.ones(len(b)))
        assert result.y_next[0] == pytest.approx(1 + za * float(b @ x), abs=1e-13)


@pytest.mark.parametrize("name", ["EX-EX 2(1)A", "EX-EX 3(2)3s-A", "EX-EX 4(3)A"])
def test_zero_slow_part_telescopes_to_micro_steps(name):
    m = mg.registry_lookup(name)
    f = lambda y: -2.0 * y + 0.1 * y**2
    ode = PartitionedOde(1, f_slow=lambda y: 0.0 * y, f_fast=f)
    M, H = 4, 0.2
    result = step(m, ode, np.array([1.0]), 0.0, H, M)
    expected = rk_run(m.fast, f, [1.0], H / M, M)
    assert abs(result.y_next[0] - expected[0]) < 1e-13


def test_newton_affine_converges_in_one_update():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    c = np.array([1.0, -1.0])
    res = newton_solve(lambda y: y - 0.1 * (A @ y) - c, np.zeros(2),
                       jac=lambda y: np.eye(2) - 0.1 * A)
    assert res.iterations == 1
    np.testing.assert_allclose(res.y, np.linalg.solve(np.eye(2) - 0.1 * A, c), atol=1e-12)


def test_newton_scalar_quadratic_vs_bisection_oracle():
    g = lambda y: y - 1.0 - 0.1 * y * y

    # independent bisection oracle for the root of y - 1 - 0.1 y^2 in [1, 2]
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(np.array([lo]))[0] * g(np.array([mid]))[0] <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(5.0 - np.sqrt(15.0), abs=1e-12)

    res = newton_solve(lambda y: g(y), np.array([1.0]))
    assert res.iterations <= 5
    assert res.y[0] == pytest.approx(oracle, abs=1e-10)


def test_newton_divergence_on_nonfinite():
    with pytest.raises(NewtonDivergence):
        newton_solve(lambda y: y * np.inf, np.array([1.0]))


def test_newton_divergence_on_stagnation():
    # gradient vanishes at the guess and the iteration cycles without converging
    with pytest.raises(NewtonDivergence):
        newton_solve(lambda y: np.array([y[0] ** 2 + 1.0]), np.array([0.5]))


@pytest.mark.parametrize("abs_tol,rel_tol", [
    (float("nan"), 1e-6), (-1.0, 1e-6), (1e-6, float("nan")), (1e-6, -1e-9), (np.array([1e-6, np.nan]), 1e-6),
    ("x", 1e-6), (None, 1e-6), (1e-6, 1j), (1e-6, [1e-6, "x"]),
])
def test_tolerances_reject_negative_or_nan(abs_tol, rel_tol):
    with pytest.raises(InvalidInput):
        Tolerances(abs_tol=abs_tol, rel_tol=rel_tol)


def test_error_norm_examples():
    tol = Tolerances(abs_tol=1.0, rel_tol=0.0)
    assert error_norm(np.array([1.0]), np.array([1.0]), tol) == 0.0
    assert error_norm(np.array([1.0]), np.array([0.0]), tol) == pytest.approx(1.0)
    # scaled norm with relative part uses the larger magnitude
    tol = Tolerances(abs_tol=0.0, rel_tol=0.5)
    assert error_norm(np.array([2.0]), np.array([1.0]), tol) == pytest.approx(1.0)


def test_error_estimates_identical_states_are_zero():
    m = mg.registry_lookup("EX-EX 2(1)A")
    r = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.01, 2)
    r.y_hat = r.y_next.copy()
    r.y_hat_slow = r.y_next.copy()
    r.y_hat_fast = r.y_next.copy()
    assert error_estimates(r, Tolerances(1.0, 0.0)) == (0.0, 0.0, 0.0)


def test_slow_error_estimate_order():
    # the slow estimate y - y_hat_slow differs at the embedded order + 1:
    # halving H scales it by about 2^-(q+1) with q = min(p, p_hat) = 1
    m = mg.registry_lookup("EX-EX 2(1)A")
    ode = CoupledNonlinearScalar().to_ode()
    tol = Tolerances(1.0, 0.0)

    def eps_slow(H):
        r = step(m, ode, np.array([0.5]), 0.0, H, 2)
        return error_estimates(r, tol)[1]

    ratio = eps_slow(0.02) / eps_slow(0.01)
    assert 2.0**2 == pytest.approx(ratio, rel=0.35)


@pytest.mark.parametrize("name", [n for n in mg.METHOD_NAMES if n.startswith("EX-EX")])
@pytest.mark.parametrize("M", [1, 3, 5])
def test_work_accounting_explicit(name, M):
    m = mg.registry_lookup(name)
    s_f, s_s = m.stage_counts
    r1 = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.05, M)
    r2 = step(m, LINEAR.to_ode(), r1.y_next, r1.t, 0.05, M, fsal_carry=r1.fsal_carry)
    if m.has_flag(MethodFlag.FSAL):
        assert r1.counters.fast_evals == M * s_f - (M - 1)
        assert r2.counters.fast_evals == M * s_f - M
    else:
        assert r1.counters.fast_evals == M * s_f
        assert r2.counters.fast_evals == M * s_f
    assert r1.counters.slow_evals == s_s
    assert r2.counters.slow_evals == s_s


def test_fsal_carry_invalidated_when_state_changes():
    m = mg.registry_lookup("EX-EX 4(3)A")
    r1 = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.05, 2)
    # a different starting state must not reuse the carried evaluation
    r2 = step(m, LINEAR.to_ode(), r1.y_next + 1e-3, r1.t, 0.05, 2, fsal_carry=r1.fsal_carry)
    assert r2.counters.fast_evals == 2 * 5 - 1


def test_fsal_structure():
    # the first-same-as-last pair puts zero weight on its last stage, whose
    # row reproduces the weights, so the stage value equals the step result
    m = mg.registry_lookup("EX-EX 4(3)A")
    assert m.fast.b[-1] == 0.0
    np.testing.assert_array_equal(m.fast.A[-1], m.fast.b)


def test_fsal_reuse_preserves_result():
    # the carried RHS saves the first fast evaluation of the next step, nothing else
    m = mg.registry_lookup("EX-EX 4(3)A")
    ode = CoupledNonlinearScalar().to_ode()
    r1 = step(m, ode, np.array([0.5]), 0.0, 0.05, 3)
    with_reuse = step(m, ode, r1.y_next, r1.t, 0.02, 3, fsal_carry=r1.fsal_carry)
    without = step(m, ode, r1.y_next, r1.t, 0.02, 3, fsal_carry=None)
    assert with_reuse.y_next[0] == pytest.approx(without.y_next[0], abs=1e-15)
    assert without.counters.fast_evals - with_reuse.counters.fast_evals == 1


@pytest.mark.parametrize("name", ["EX-IM 3(2)A", "IM-EX 3(2)A"])
def test_implicit_partition_counts(name):
    m = mg.registry_lookup(name)
    s_f, s_s = m.stage_counts
    r = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.05, 3)
    if name.startswith("EX-IM"):
        assert r.counters.fast_evals == 3 * s_f  # explicit partition is exact
        assert r.counters.slow_evals >= s_s
    else:
        assert r.counters.slow_evals == s_s
        assert r.counters.fast_evals >= 3 * s_f
    # linear problem: Newton is exact after one update per implicit stage
    implicit_stages = 3 * s_f if name.startswith("IM-EX") else s_s
    assert r.counters.newton_iterations == implicit_stages


def test_newton_falls_back_to_finite_differences():
    m = mg.registry_lookup("IM-EX 2(1)A")
    ode = PartitionedOde(
        1,
        f_slow=lambda y: -1.0 * y,
        f_fast=lambda y: -10.0 * y + 0.05 * y**2,
    )
    r = step(m, ode, np.array([1.0]), 0.0, 0.05, 2)
    assert np.isfinite(r.y_next).all()


def test_nonfinite_state_raises():
    m = mg.registry_lookup("EX-EX 2(1)A")
    ode = PartitionedOde(1, f_slow=lambda y: y * 0.0, f_fast=lambda y: y**3)
    with pytest.raises(NonFiniteState):
        step(m, ode, np.array([50.0]), 0.0, 1e6, 4)


def test_coupled_method_guard_in_streaming_engine():
    # slow stage 1 uses fast stage 2 of micro-step 2, but fast stage 1 of
    # micro-step 1 already used slow stage 1: cyclic, must be rejected
    base = ButcherTableau(
        A=np.array([[0.0, 0.0], [2 / 3, 0.0]]),
        b=np.array([0.25, 0.75]),
        b_hat=np.array([1.0, 0.0]),
        c=np.array([0.0, 2 / 3]),
        kind=TableauKind.EXPLICIT,
    )
    fs = lambda lam, M: np.array([[0.0, 0.0], [2 / (3 * M), 0.0]])

    def sf(lam, M):
        out = np.zeros((2, 2))
        if lam == M:
            out[0, 1] = 1.0  # slow stage 1 needs the future fast stage
            out[1, 0] = 2 * M / 3
        return out

    bad = MrGarkMethod(
        name="cyclic", fast=base, slow=base,
        fs_coupling=fs,
        sf_coupling=sf,
        order=2, embedded_order=1,
    )
    calls = []
    ode = PartitionedOde(1, f_slow=lambda y: calls.append("slow") or -y,
                         f_fast=lambda y: calls.append("fast") or -y)
    with pytest.raises(CoupledMethod):
        step(bad, ode, np.array([1.0]), 0.0, 0.1, 2)
    # rejected when the plan is compiled, before any right-hand side runs
    assert calls == []


def test_step_rejects_bad_arguments():
    m = mg.registry_lookup("EX-EX 2(1)A")
    with pytest.raises(ValueError):
        step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, -0.1, 2)
    with pytest.raises(ValueError):
        step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.1, 0)


@pytest.mark.parametrize("M", [2.5, True, "2", None])
def test_step_rejects_non_integer_m(M):
    m = mg.registry_lookup("EX-EX 2(1)A")
    with pytest.raises(InvalidInput):
        step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.1, M)


@pytest.mark.parametrize("H", [np.nan, np.inf, 0.0, "0.1"])
def test_step_rejects_non_finite_or_non_positive_h(H):
    m = mg.registry_lookup("EX-EX 2(1)A")
    with pytest.raises(InvalidInput):
        step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, H, 2)


def test_step_accepts_numpy_integer_m():
    m = mg.registry_lookup("EX-EX 2(1)A")
    r = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.1, np.int64(3))
    assert r.M == 3 and type(r.M) is int
    np.testing.assert_array_equal(r.y_next, step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.1, 3).y_next)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", list(range(1, 9)))
def test_step_plan_matches_derived_schedule(name, M):
    m = mg.registry_lookup(name)
    s_f, s_s = m.stage_counts
    plan = _step_plan(m, M)
    # the order the plan runs the stages in: each fast stage after the slow stages it needs
    order = []
    for lam, stages in enumerate(plan.before):
        for i, slow in enumerate(stages):
            order.extend(M * s_f + j for j in slow)
            order.append(lam * s_f + i)
    order.extend(M * s_f + j for j in plan.trailing)
    assert sorted(order) == list(range(M * s_f + s_s))
    assert tuple(order) == mg.derive_schedule(m, M)
    fs, sf = m.couplings(M)
    np.testing.assert_array_equal(plan.rows[:, :, :s_s], fs)
    for rows in plan.rows:
        np.testing.assert_array_equal(rows[:, s_s:], np.tril(m.fast.A, -1))
    for lam in range(1, M + 1):
        scattered = np.zeros_like(sf[lam - 1])
        for i, column in enumerate(plan.scatter[lam - 1]):
            if column is not None:  # None stands for a zero column
                assert column.shape == (s_s, 1) and column.any()
                scattered[:, i] = column[:, 0]
        np.testing.assert_array_equal(scattered, m.coupling("sf", lam, M))


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_step_plan_compiles_up_to_controller_cap(name):
    # the efficiency controller may pick any M up to 100
    m = mg.registry_lookup(name)
    for M in (16, 33, 64, 100):
        plan = _step_plan(m, M)
        assert len(plan.rows) == len(plan.before) == len(plan.scatter) == M


def test_implicit_stages_go_through_module_newton_solve(monkeypatch):
    calls = []
    original = stepping.newton_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepping, "newton_solve", counting)
    m = mg.registry_lookup("EX-IM 2(1)A")
    r = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.05, 3)
    assert len(calls) == r.counters.newton_iterations == m.slow.stage_count


def test_newton_scalar_division_matches_lu_solve():
    rng = np.random.default_rng(7)
    j = rng.standard_normal(2000) * 10.0 ** rng.uniform(-8, 8, 2000)
    g = rng.standard_normal(2000) * 10.0 ** rng.uniform(-8, 8, 2000)
    for jj, gg in zip(j, g):
        assert (-np.array([gg]) / jj)[0] == np.linalg.solve(np.array([[jj]]), -np.array([gg]))[0]


def test_newton_reuses_a_passed_matrix():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    dG = lambda y: np.eye(2) - 0.1 * A
    first = newton_solve(lambda y: y - 0.1 * (A @ y) - 1.0, np.zeros(2), jac=dG)
    assert (first.iterations, first.jacobians) == (1, 1)
    c = np.array([1.0, -1.0])
    again = newton_solve(lambda y: y - 0.1 * (A @ y) - c, np.zeros(2), jac=dG, matrix=first.matrix)
    assert (again.iterations, again.jacobians) == (1, 0)
    np.testing.assert_allclose(again.y, np.linalg.solve(dG(None), c), rtol=1e-14)


@pytest.mark.parametrize("stale", [1e-3 * np.eye(2), 1e-320 * np.eye(2)], ids=["overshoot", "overflow"])
def test_newton_retries_a_bad_reused_matrix_with_a_fresh_one(stale):
    # the reused matrix makes ||G|| grow (or the iterate overflow): that update is
    # discarded and redone with a matrix built at the same iterate
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    c = np.array([1.0, -1.0])
    with np.errstate(over="ignore"):
        res = newton_solve(lambda y: y - 0.1 * (A @ y) - c, np.zeros(2),
                           jac=lambda y: np.eye(2) - 0.1 * A, matrix=stale)
    assert (res.iterations, res.jacobians) == (2, 1)
    np.testing.assert_allclose(res.y, np.linalg.solve(np.eye(2) - 0.1 * A, c), rtol=1e-14)


@pytest.mark.parametrize("with_jac", [True, False])
def test_newton_divergence_on_stagnation_vector(with_jac):
    # y_i^2 + 1 has no real root: every path ends in NewtonDivergence
    jac = (lambda y: np.diag(2.0 * y)) if with_jac else None
    with pytest.raises(NewtonDivergence):
        newton_solve(lambda y: y**2 + 1.0, np.array([0.5, -0.3]), jac=jac)


def test_newton_size_one_rebuilds_every_iteration():
    m = mg.registry_lookup("IM-EX 3(2)A")
    r = step(m, CoupledNonlinearScalar().to_ode(), np.array([0.5]), 0.0, 0.2, 3)
    assert r.counters.newton_iterations > 3 * m.fast.stage_count  # nonlinear: several per stage
    assert r.counters.jacobians == r.counters.newton_iterations


def _without_jacobians(ode):
    return PartitionedOde(ode.dimension, f_slow=ode.f_slow, f_fast=ode.f_fast)


def test_one_newton_matrix_per_implicit_partition_per_step():
    gs = GrayScott(n=8)  # nonlinear diffusion, reaction fast
    m = mg.registry_lookup("IM-EX 2(1)A")
    r = step(m, _without_jacobians(gs.to_ode()), gs.initial_condition(), 0.0, 0.02, 4)
    assert r.counters.jacobians == 1
    # one finite-difference matrix (dim calls) serves all 4 * s_f implicit stages
    assert r.counters.fast_evals < 2 * gs.dimension
    assert r.counters.newton_iterations >= 4 * m.fast.stage_count


IMPLICIT_PAIRS = [name for name in mg.METHOD_NAMES if not name.startswith("EX-EX")]


@pytest.mark.parametrize("name", IMPLICIT_PAIRS)
@pytest.mark.parametrize("M", [1, 2, 4])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_finite_difference_newton_matrix_matches_analytic(name, M, mode):
    gs = GrayScott(n=8, diffusion_mode=mode)
    m = mg.registry_lookup(name)
    y0 = gs.initial_condition()
    analytic = step(m, gs.to_ode(), y0, 0.0, 0.02, M)
    fd = step(m, _without_jacobians(gs.to_ode()), y0, 0.0, 0.02, M)
    for field in ("y_next", "y_hat", "y_hat_slow", "y_hat_fast"):
        a, b = getattr(analytic, field), getattr(fd, field)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a), field


def _full_newton(residual, y_guess, jac=None, tol=1e-12, max_iter=50, matrix=None):
    """Reference solver: a fresh analytic matrix and a dense solve every iteration."""
    y = np.array(y_guess, dtype=float)
    for iteration in range(max_iter + 1):
        g = residual(y)
        if np.linalg.norm(g) <= tol * (1.0 + np.linalg.norm(y)):
            return stepping.NewtonResult(y, iteration, None, iteration)
        y = y - np.linalg.solve(jac(y), g)
    raise NewtonDivergence("reference did not converge")


def test_stalling_newton_matrix_is_rebuilt(monkeypatch):
    # stiff cubic decay: far from the stage solution the slope at the first
    # guess is too steep, so the matrix built there contracts too slowly
    k = np.array([[-200.0, 10.0], [5.0, -100.0]])
    ode = PartitionedOde(2, f_slow=lambda y: -0.5 * y,
                         f_fast=lambda y: k.diagonal() * y**3 + (k - np.diag(k.diagonal())) @ y,
                         jac_fast=lambda y: np.diag(3.0 * k.diagonal() * y**2) + (k - np.diag(k.diagonal())))
    m = mg.registry_lookup("IM-EX 3(2)A")
    y0 = np.array([1.5, -1.0])
    r = step(m, ode, y0, 0.0, 0.2, 2)
    assert r.counters.jacobians >= 2
    monkeypatch.setattr(stepping, "newton_solve", _full_newton)
    ref = step(m, ode, y0, 0.0, 0.2, 2)
    # both stop at ||G|| <= 1e-12 (1 + ||y||) per stage, so they agree to a few 1e-12
    for field in ("y_next", "y_hat", "y_hat_slow", "y_hat_fast"):
        np.testing.assert_allclose(getattr(r, field), getattr(ref, field), rtol=1e-10, atol=0)


def _dense_jacobians(ode):
    """``ode`` with each structured Jacobian replaced by its dense matrix."""
    dense = lambda jac: None if jac is None else (lambda y: np.asarray(jac(y)))
    return PartitionedOde(ode.dimension, f_slow=ode.f_slow, f_fast=ode.f_fast,
                          jac_slow=dense(ode.jac_slow), jac_fast=dense(ode.jac_fast))


@pytest.mark.parametrize("name", IMPLICIT_PAIRS)
@pytest.mark.parametrize("M", [1, 2, 4])
def test_structured_newton_solves_match_dense(name, M):
    m = mg.registry_lookup(name)
    for n, boundary, mode, swap in itertools.product((8, 16), ("neumann", "periodic"),
                                                     ("linear", "nonlinear"), (False, True)):
        gs = GrayScott(n=n, diffusion_mode=mode, boundary=boundary, swap_roles=swap)
        y0 = gs.initial_condition()
        structured = step(m, gs.to_ode(), y0, 0.0, 0.02, M)
        dense = step(m, _dense_jacobians(gs.to_ode()), y0, 0.0, 0.02, M)
        case = (n, boundary, mode, swap)
        assert structured.counters == dense.counters, case
        for field in ("y_next", "y_hat", "y_hat_slow", "y_hat_fast"):
            a, b = getattr(structured, field), getattr(dense, field)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (field, case)


def test_implicit_gray_scott_at_128_squared():
    # the dense diffusion matrix here would be 32768^2 doubles, about 8.6 GB
    gs = GrayScott(n=128, diffusion_mode="linear", swap_roles=True)
    r = step(mg.registry_lookup("IM-EX 2(1)A"), gs.to_ode(), gs.initial_condition(), 0.0, 1e-3, 2)
    assert r.counters.jacobians == 1
    assert np.isfinite(r.y_next).all()


def test_implicit_nonlinear_diffusion_needs_no_finite_differences():
    # a forward-difference Newton matrix here would cost 2 * 32^2 slow RHS calls
    gs = GrayScott(n=32)
    r = step(mg.registry_lookup("EX-IM 2(1)A"), gs.to_ode(), gs.initial_condition(), 0.0, 1e-3, 4)
    assert r.counters.jacobians == 1
    assert r.counters.slow_evals < 20


def test_solve_callable_for_a_size_one_system_is_rejected():
    with pytest.raises(InvalidInput):
        newton_solve(lambda y: 2.0 * y - 1.0, np.array([0.0]), jac=lambda y: (lambda r: r / 2.0))


def test_newton_singular_scalar_raises():
    with pytest.raises(NewtonDivergence):
        newton_solve(lambda y: np.array([1.0]), np.array([0.0]), jac=lambda y: np.array([[0.0]]))


def test_error_norm_zero_over_zero_is_no_deviation():
    tol = Tolerances(abs_tol=0.0, rel_tol=1e-3)
    x = np.array([0.0, 1.0])
    assert error_norm(x, np.array([0.0, 1.0 + 1e-3]), tol) == pytest.approx(np.sqrt(0.5) / (1 + 1e-3))
    assert error_norm(x, x, tol) == 0.0


def test_error_norm_non_finite_state_is_infinite():
    tol = Tolerances(abs_tol=1e-6, rel_tol=1e-6)
    with np.errstate(invalid="ignore"):
        assert error_norm(np.array([1.0, np.nan]), np.array([1.0, 1.0]), tol) == np.inf
    assert error_norm(np.array([1.0]), np.array([2.0]), Tolerances(0.0, 0.0)) == np.inf


def test_error_norm_fallbacks_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error_norm(np.zeros(2), np.zeros(2), Tolerances(0.0, 1e-3)) == 0.0
        assert error_norm(np.array([1.0]), np.array([2.0]), Tolerances(0.0, 0.0)) == np.inf
        assert error_norm(np.array([1.0, np.nan]), np.array([1.0, 1.0]), Tolerances(1e-6, 1e-6)) == np.inf
        assert error_norm(np.array([np.inf]), np.array([1.0]), Tolerances(1e-6, 1e-6)) == np.inf


def test_integrate_fixed_snaps_step_and_reports_each():
    m = mg.registry_lookup("EX-EX 2(1)A")
    seen = []
    last = integrate_fixed(m, LINEAR.to_ode(), [1.0], 0.0, 1.0, 0.3, 2, on_step=seen.append)
    assert len(seen) == 3 and seen[-1] is last
    assert last.H == 1.0 / 3 and last.t == pytest.approx(1.0, abs=1e-15)
    # a step larger than the span still takes one step
    assert integrate_fixed(m, LINEAR.to_ode(), [1.0], 0.0, 1.0, 3.0, 2).H == 1.0


@pytest.mark.parametrize("t0, t_end, H", [(0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (0.0, np.inf, 0.1),
                                          (1.0, 0.0, 0.1), (np.nan, 1.0, 0.1)])
def test_integrate_fixed_rejects_bad_spans(t0, t_end, H):
    with pytest.raises(InvalidInput):
        integrate_fixed(mg.registry_lookup("EX-EX 2(1)A"), LINEAR.to_ode(), [1.0], t0, t_end, H, 2)


@pytest.mark.parametrize("y0", [np.array([1e200]), np.array([1e200, 0.0]), np.array([1.5e308, 1.5e308])],
                         ids=["size-1", "size-2", "norm-beyond-max"])
def test_newton_norms_do_not_overflow_on_finite_states(y0):
    # ||y||^2 (or even ||y||) overflows here; the tolerance 1e-12 (1 + ||y||) must stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = newton_solve(lambda y: y - 1.0, y0, lambda y: np.eye(y.size))
    np.testing.assert_array_equal(res.y, np.ones(y0.size))
    assert res.iterations > 0


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_newton_size_one_keeps_the_guess_shape(shape):
    # the float iteration reads and writes the iterate in the guess's own shape
    seen = set()

    def residual(y):
        seen.add(y.shape)
        return y**3 - 8.0

    res = newton_solve(residual, np.full(shape, 3.0), lambda y: np.array([[3.0 * y.item() ** 2]]))
    flat = newton_solve(lambda y: y**3 - 8.0, np.array([3.0]), lambda y: np.array([[3.0 * y.item() ** 2]]))
    assert res.y.shape == shape and seen == {shape}
    assert res.y.item() == flat.y.item() and res.iterations == flat.iterations > 1


def _reference_step(method, ode, y, H, M):
    """One macro-step through the assembled tableau, stage by stage in derive_schedule order.

    Returns (y_next, y_hat, y_hat_slow, y_hat_fast); an implicit stage is solved
    by newton_solve with the dense Newton matrix I - H*a_kk*J.
    """
    g = mg.assemble(method, M)
    s_f, s_s = method.stage_counts
    n_fast = M * s_f
    F = np.zeros((g.stage_count, y.size))
    for k in mg.derive_schedule(method, M):
        f, jac = (ode.f_fast, ode.jac_fast) if k < n_fast else (ode.f_slow, ode.jac_slow)
        rhs = y + H * (g.A[k] @ F)
        a = H * g.A[k, k]
        if a == 0.0:
            Y = rhs
        else:
            res = newton_solve(lambda Y: Y - a * f(Y) - rhs, rhs,
                               lambda Y: np.eye(y.size) - a * np.asarray(jac(Y), dtype=float))
            Y = res.y
        F[k] = f(Y)
    fast = [np.tile(w / M, M) @ F[:n_fast] for w in (method.fast.b, method.fast.b_hat)]
    slow = [w @ F[n_fast:] for w in (method.slow.b, method.slow.b_hat)]
    return (y + H * (fast[0] + slow[0]), y + H * (fast[1] + slow[1]),
            y + H * (fast[0] + slow[1]), y + H * (fast[1] + slow[0]))


REFERENCE_PROBLEMS = {
    "nonlinear-scalar": (CoupledNonlinearScalar(), 0.05),
    "gs8-reaction-fast": (GrayScott(n=8), 2e-3),
    "gs8-swapped": (GrayScott(n=8, swap_roles=True), 2e-3),
}


@pytest.mark.parametrize("problem", list(REFERENCE_PROBLEMS))
@pytest.mark.parametrize("M", [1, 2, 5, 8])
@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_step_matches_assembled_tableau_reference(name, M, problem):
    # an independent oracle on nonlinear problems: the stacked stage rows, the
    # scatter into the slow stages and the weight mixes against the full tableau
    m = mg.registry_lookup(name)
    p, H = REFERENCE_PROBLEMS[problem]
    ode, y0 = p.to_ode(), p.initial_condition()
    r = step(m, ode, y0, 0.0, H, M)
    bound = 1e-14 if name.startswith("EX-EX") else 1e-12
    fields = ("y_next", "y_hat", "y_hat_slow", "y_hat_fast")
    for field, expected in zip(fields, _reference_step(m, ode, y0, H, M)):
        got = getattr(r, field)
        assert np.all(np.abs(got - expected) <= bound * (1.0 + np.abs(expected))), field


@pytest.mark.parametrize("name", IMPLICIT_PAIRS)
@pytest.mark.parametrize("M", [1, 3, 5])
def test_implicit_stage_takes_its_rhs_from_the_last_newton_residual(name, M):
    # affine problem, exact jac: one residual call at the guess, one after the
    # single update, and the stage value is the second call's f, not a third call
    m = mg.registry_lookup(name)
    s_f, s_s = m.stage_counts
    r = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 0.05, M)
    if name.startswith("IM-EX"):
        assert (r.counters.fast_evals, r.counters.slow_evals) == (2 * M * s_f, s_s)
    else:
        assert (r.counters.fast_evals, r.counters.slow_evals) == (M * s_f, 2 * s_s)


def test_implicit_stage_calls_f_when_newton_returns_another_array(monkeypatch):
    # the remembered f(y) belongs to the array Newton last passed to the residual;
    # a solution held in any other array costs one more call and changes nothing
    m = mg.registry_lookup("IM-EX 3(2)A")
    ode = CoupledNonlinearScalar().to_ode()
    reused = step(m, ode, np.array([0.5]), 0.0, 0.05, 3)
    original = stepping.newton_solve

    def copying(*args, **kwargs):
        res = original(*args, **kwargs)
        return res._replace(y=res.y.copy())

    monkeypatch.setattr(stepping, "newton_solve", copying)
    called = step(m, ode, np.array([0.5]), 0.0, 0.05, 3)
    assert called.counters.fast_evals == reused.counters.fast_evals + 3 * m.fast.stage_count
    for field in ("y_next", "y_hat", "y_hat_slow", "y_hat_fast"):
        np.testing.assert_array_equal(getattr(called, field), getattr(reused, field))


def test_error_estimates_equal_three_error_norms():
    # the reduction over the stacked (3, n) deviations gives each row the same
    # float as error_norm on it, NaN fallbacks, zero scales and infinities included
    def three(r, tol):
        return tuple(error_norm(r.y_next, hat, tol) for hat in (r.y_hat, r.y_hat_slow, r.y_hat_fast))

    gs = GrayScott(n=16, swap_roles=True)
    r = step(mg.registry_lookup("EX-EX 3(2)4s-A"), gs.to_ode(), gs.initial_condition(), 0.0, 1e-3, 4)
    for tol in (Tolerances(1e-4, 1e-4), Tolerances(0.0, 1e-6), Tolerances(np.full(gs.dimension, 1e-5), 1e-3)):
        assert error_estimates(r, tol) == three(r, tol)
    rng = np.random.default_rng(11)
    specials = np.array([0.0, 1.0, -2.0, np.nan, np.inf, 1e-300, 1e300])
    for _ in range(300):
        n = int(rng.integers(1, 5))
        r.y_next, r.y_hat, r.y_hat_slow, r.y_hat_fast = (rng.choice(specials, size=n) for _ in range(4))
        tol = Tolerances(float(rng.choice([0.0, 1e-6])), float(rng.choice([0.0, 1e-3])))
        assert error_estimates(r, tol) == three(r, tol)
