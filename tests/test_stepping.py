import itertools
import math
import tracemalloc
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
    StepResult,
    Tolerances,
    WorkCounters,
    error_estimates,
    _step_plan,
    error_norm,
    integrate_fixed,
    newton_solve,
    step,
)
from mrgark.tableaux import ButcherTableau, MethodFlag, MrGarkMethod, TableauKind

LINEAR = LinearTwoRate(-10.0, -1.0)
#: what a step returns per state entry: its result and its deviations from the embedded solutions
FIELDS = ("y_next", "slow_deviation", "fast_deviation")


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
    r.slow_deviation, r.fast_deviation = np.zeros(1), np.zeros(1)
    for tol in (Tolerances(1.0, 0.0), Tolerances(0.0, 0.0)):
        estimates = error_estimates(r, tol)
        assert estimates == (0.0, 0.0, 0.0)
        assert _hex(estimates) == _hex(_frozen_estimates(r.y_next, r.slow_deviation, r.fast_deviation, tol))


def test_slow_error_estimate_order():
    # the slow deviation, y_next less the embedded solution of weights (b_f, b_hat_s), is of the embedded order + 1:
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


def test_fsal_keeps_its_own_copy_of_an_rhs_result():
    # an RHS may return one array it owns and overwrites on every call; the FSAL value kept for the next
    # micro-step and carried to the next step must not change with it
    fresh = CoupledNonlinearScalar().to_ode()
    buffer = np.empty(fresh.dimension)

    def into_buffer(f):
        def call(y):
            buffer[:] = f(y)
            return buffer
        return call

    shared = PartitionedOde(fresh.dimension, into_buffer(fresh.f_slow), into_buffer(fresh.f_fast))
    m = mg.registry_lookup("EX-EX 4(3)A")
    results = []
    for ode in (fresh, shared):
        r1 = step(m, ode, np.array([0.5]), 0.0, 0.05, 3)
        results.append(step(m, ode, r1.y_next, r1.t, 0.02, 3, fsal_carry=r1.fsal_carry).y_next)
    np.testing.assert_array_equal(results[1], results[0])


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


ENTRY_POINTS = {
    "step": lambda m, ode, y0: step(m, ode, y0, 0.0, 0.1, 2),
    "integrate_fixed": lambda m, ode, y0: integrate_fixed(m, ode, y0, 0.0, 0.2, 0.1, 2),
    "drive": lambda m, ode, y0: mg.drive(m, ode, y0, 0.0, 0.2, mg.ControllerConfig()),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_a_two_dimensional_state(entry):
    with pytest.raises(InvalidInput):
        ENTRY_POINTS[entry](mg.registry_lookup("EX-EX 2(1)A"), LINEAR.to_ode(), np.array([[1.0]]))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_a_state_of_the_wrong_size(entry):
    gs = GrayScott(n=8)
    with pytest.raises(InvalidInput):
        ENTRY_POINTS[entry](mg.registry_lookup("EX-EX 2(1)A"), gs.to_ode(), gs.initial_condition()[:-1])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_a_complex_state(entry):
    # not a ComplexWarning and a silently dropped imaginary part
    with pytest.raises(InvalidInput):
        ENTRY_POINTS[entry](mg.registry_lookup("EX-EX 2(1)A"), LINEAR.to_ode(), np.array([1.0 + 0.5j]))


@pytest.mark.parametrize("dimension", [0, -1, 1.0, True, None])
def test_partitioned_ode_rejects_a_bad_dimension(dimension):
    with pytest.raises(InvalidInput):
        PartitionedOde(dimension, f_slow=lambda y: y, f_fast=lambda y: y)


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
    # over [y_n | ytilde | d_f | K]: a fast stage starts from ytilde
    np.testing.assert_array_equal(plan.rows[:, :, :3], np.broadcast_to([0.0, 1.0, 0.0], (M, s_f, 3)))
    np.testing.assert_array_equal(plan.rows[:, :, 3:3 + s_s], fs)
    for rows in plan.rows:
        np.testing.assert_array_equal(rows[:, 3 + s_s:], np.tril(m.fast.A, -1))
    _assert_slow_inputs_match_couplings(m, M, plan)
    # the weight rows give y_next's sums and the deviations from the embedded solutions
    for weights, tab in ((plan.fast_weights, m.fast), (plan.slow_weights, m.slow)):
        np.testing.assert_array_equal(weights, [tab.b, tab.b - tab.b_hat])


def _assert_slow_inputs_match_couplings(m, M, plan):
    # every A^{sf,lambda}_j reaches slow stage j once: in its row, for the micro-step whose fast stages
    # K holds when j is computed, or folded into its running sum at the end of an earlier micro-step
    s_f, s_s = m.stage_counts
    reads = dict.fromkeys(plan.trailing, M)
    for lam, stages in enumerate(plan.before, 1):
        for i, slow in enumerate(stages):
            reads.update(dict.fromkeys(slow, lam - 1 if i == 0 and lam > 1 else lam))
    np.testing.assert_array_equal(plan.slow_rows[:, :3], np.broadcast_to([1.0, 0.0, 0.0], (s_s, 3)))  # from y_n
    np.testing.assert_array_equal(plan.slow_rows[:, 3:3 + s_s], np.tril(m.slow.A, -1))
    assert plan.sf.shape == (M, s_s, s_f) and len(plan.folds) == M
    for lam in range(1, M + 1):
        a_sf = m.coupling("sf", lam, M)
        np.testing.assert_array_equal(plan.sf[lam - 1], a_sf)
        fold = plan.folds[lam - 1]
        assert all(reads[j] > lam for j in range(fold, s_s))  # no sum is added to after its stage ran
        for j in range(s_s):
            if reads[j] == lam:
                np.testing.assert_array_equal(plan.slow_rows[j, 3 + s_s:], a_sf[j])
            elif a_sf[j].any():
                assert reads[j] > lam and fold <= j, (lam, j)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_step_plan_compiles_up_to_controller_cap(name):
    # the efficiency controller may pick any M up to 100
    m = mg.registry_lookup(name)
    for M in (16, 33, 64, 100):
        plan = _step_plan(m, M)
        assert len(plan.rows) == len(plan.before) == M
        _assert_slow_inputs_match_couplings(m, M, plan)


@pytest.mark.parametrize("field", ["rows", "slow_rows", "fast_weights", "slow_weights"])
def test_step_plan_is_read_only(field):
    # step reads the cached plan's rows as its coefficients on every step, so no caller may write into them
    a = getattr(_step_plan(mg.registry_lookup("EX-EX 4(3)A"), 3), field)
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = 1.0


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 2, 5, 8, 33])
def test_step_plan_rows_are_zero_outside_their_spans(name, M):
    # step forms each stage input over its span only, so a weight outside the span would be dropped
    plan = _step_plan(mg.registry_lookup(name), M)
    fast = [(plan.rows[:, i], span, rows, plan.rows)
            for i, (span, rows) in enumerate(zip(plan.fast_spans, plan.fast_span_rows))]
    slow = [(plan.slow_rows[j:j + 1], span, rows[None], plan.slow_rows)
            for j, (span, rows) in enumerate(zip(plan.slow_spans, plan.slow_span_rows))]
    for full, span, span_rows, base in fast + slow:
        assert np.all(full[:, :span.start] == 0.0) and np.all(full[:, span.stop:] == 0.0)
        assert full[:, span.start].any() and full[:, span.stop - 1].any()  # no wider than its rows
        assert np.shares_memory(span_rows, base) and np.array_equal(span_rows, full[:, span])
        assert not span_rows.flags.writeable


def test_step_plan_size_at_large_m():
    # besides its rows, a plan holds O(s_f + s_s) (the spans among it) and two tuples of M pointers, `before`
    # and `folds`: 16 bytes per micro-step.  The margin comes from equal micro-steps sharing their tuple of
    # slow stages to compute first; when each kept its own, this plan held 6,164,862 bytes, 96 per micro-step
    # beyond its 5.2 MB of rows
    m = mg.registry_lookup("EX-EX 4(3)A")
    m.couplings(10000)  # cached apart from the plan
    tracemalloc.start()
    try:
        plan = _step_plan.__wrapped__(m, 10000)  # not cached
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plan.before) == 10000 and held <= plan.rows.nbytes + plan.slow_rows.nbytes + 32 * 10000 + 8192


def test_gray_scott_explicit_pair_keeps_no_running_sums():
    # EX-EX 3(2)4s-A couples only its first micro-step into the slow stages, and each slow stage is
    # computed while K still holds that micro-step, so no micro-step folds into a running sum
    m = mg.registry_lookup("EX-EX 3(2)4s-A")
    assert all(set(_step_plan(m, M).folds) == {m.slow.stage_count} for M in range(1, 101))


class _DiagonalJacobian:
    """J = c*I as a structured Jacobian, so implicit stages solve without an n x n matrix."""

    def __init__(self, c):
        self.c = c

    def shifted_solver(self, a):
        return lambda r: r / (1.0 - a * self.c)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_step_memory_does_not_grow_with_M(name):
    # a step holds a fixed number of state-sized rows: no fast-stage history of length M*s_f
    n = 4096
    ode = PartitionedOde(n, f_slow=lambda y: -1.0 * y, f_fast=lambda y: -10.0 * y,
                         jac_slow=lambda y: _DiagonalJacobian(-1.0), jac_fast=lambda y: _DiagonalJacobian(-10.0))
    m, y = mg.registry_lookup(name), np.linspace(1.0, 2.0, n)
    peaks = []
    for M in (2, 64):
        step(m, ode, y, 0.0, 0.01, M)  # the plan is compiled and cached outside the traced call
        tracemalloc.start()
        try:
            step(m, ode, y, 0.0, 0.01, M)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * 8 * n, peaks


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
    for field in FIELDS:  # a deviation to the bound of the state it deviates from
        a, b = getattr(analytic, field), getattr(fd, field)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(analytic.y_next), field


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
    for field in FIELDS:  # a deviation to the bound of the state it deviates from
        assert np.all(np.abs(getattr(r, field) - getattr(ref, field)) <= 1e-10 * np.abs(ref.y_next)), field


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
        for field in FIELDS:  # a deviation to the bound of the state it deviates from
            a, b = getattr(structured, field), getattr(dense, field)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(dense.y_next), (field, case)


@pytest.mark.parametrize("name", ["EX-IM 3(2)A", "IM-EX 3(2)A"])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("jacobians", [_dense_jacobians, _without_jacobians], ids=["dense", "fd"])
def test_dense_newton_matrix_is_inverted_once_per_build(monkeypatch, name, mode, jacobians):
    calls = {"inv": 0, "solve": 0}

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv, "inv"))
    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve, "solve"))
    gs = GrayScott(n=8, diffusion_mode=mode)
    r = step(mg.registry_lookup(name), jacobians(gs.to_ode()), gs.initial_condition(), 0.0, 0.02, 4)
    assert r.counters.newton_iterations > r.counters.jacobians >= 1
    assert calls == {"inv": r.counters.jacobians, "solve": 0}


#: what a Jacobian or Newton matrix may not be, at size 1 and at size 2
BAD_MATRICES = {
    1: {"2x2": np.eye(2), "1x3": np.ones((1, 3)), "1-D": np.ones(1), "complex": np.array([[1j]]), "string": "abc"},
    2: {"3x3": np.eye(3), "2x3": np.ones((2, 3)), "float": 2.0, "complex": np.eye(2) * 1j, "bool": np.eye(2, dtype=bool),
        "string": "abc", "object": object()},
}


@pytest.mark.parametrize("n, bad", [(n, key) for n, cases in BAD_MATRICES.items() for key in cases])
@pytest.mark.parametrize("entry", ["step", "jac", "matrix"])
def test_bad_jacobians_and_newton_matrices_are_rejected(n, bad, entry):
    J = BAD_MATRICES[n][bad]
    with pytest.raises(InvalidInput):
        if entry == "step":
            ode = PartitionedOde(n, f_slow=lambda y: -y, f_fast=lambda y: -10.0 * y, jac_fast=lambda y: J)
            step(mg.registry_lookup("IM-EX 2(1)A"), ode, np.ones(n), 0.0, 0.05, 2)
        elif entry == "jac":
            newton_solve(lambda y: 2.0 * y - 1.0, np.zeros(n), jac=lambda y: J)
        else:
            newton_solve(lambda y: 2.0 * y - 1.0, np.zeros(n), jac=lambda y: 2.0 * np.eye(n), matrix=J)


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


#: (pair, partition) whose implicit stages run size-1 Newton through step
SIZE_ONE_IMPLICIT = [("IM-EX 2(1)A", "fast"), ("EX-IM 2(1)A", "slow"), ("IM-EX 3(2)A", "fast"), ("EX-IM 3(2)A", "slow")]


def _size_one_ode(implicit, f, jac=None):
    """A size-1 ode whose ``implicit`` partition is f (with ``jac``) and whose other partition is zero."""
    zero = lambda y: 0.0 * y
    if implicit == "fast":
        return PartitionedOde(1, f_slow=zero, f_fast=f, jac_fast=jac)
    return PartitionedOde(1, f_slow=f, f_fast=zero, jac_slow=jac)


@pytest.mark.parametrize("name, implicit", SIZE_ONE_IMPLICIT)
def test_size_one_singular_slope_in_step_raises(name, implicit):
    # J with 1 - a*J == 0 exactly, a = h*gamma fast or H*gamma slow
    m = mg.registry_lookup(name)
    H, M = 0.05, 2
    a = (H / M) * m.fast.gamma if implicit == "fast" else H * m.slow.gamma
    J = 1.0 / a
    while 1.0 - J * a != 0.0:
        J = np.nextafter(J, np.inf if 1.0 - J * a > 0.0 else -np.inf)
    ode = _size_one_ode(implicit, lambda y: -y, lambda y: np.array([[J]]))
    with pytest.raises(NewtonDivergence, match="singular"):
        step(m, ode, np.array([1.0]), 0.0, H, M)


@pytest.mark.parametrize("with_jac", [True, False])
@pytest.mark.parametrize("f", [lambda y: y * np.inf, lambda y: -y if y[0] >= 1.0 else np.full(1, np.nan)],
                         ids=["at-the-guess", "after-an-update"])  # the first guess is y = 1
@pytest.mark.parametrize("name, implicit", SIZE_ONE_IMPLICIT)
def test_size_one_non_finite_residual_in_step_raises(name, implicit, f, with_jac):
    ode = _size_one_ode(implicit, f, (lambda y: np.array([[-1.0]])) if with_jac else None)
    with pytest.raises(NewtonDivergence, match="residual is non-finite"):
        step(mg.registry_lookup(name), ode, np.array([1.0]), 0.0, 0.05, 2)


@pytest.mark.parametrize("with_jac", [True, False])
@pytest.mark.parametrize("name, implicit", SIZE_ONE_IMPLICIT)
def test_size_one_stage_without_a_root_in_step_raises(name, implicit, with_jac):
    # Y = rhs + a * (Y^2 + 10) has no real solution for a = H*gamma (or h*gamma) near 0.3 to 0.6
    ode = _size_one_ode(implicit, lambda y: y**2 + 10.0, (lambda y: np.array([[2.0 * y[0]]])) if with_jac else None)
    with pytest.raises(NewtonDivergence, match="no convergence"):
        step(mg.registry_lookup(name), ode, np.array([1.0]), 0.0, 2.0, 1)


class _ShiftedOnly:
    """A Jacobian that offers only a shifted solve."""

    def shifted_solver(self, a):
        return lambda r: r / (1.0 + 10.0 * a)


@pytest.mark.parametrize("name, implicit", SIZE_ONE_IMPLICIT)
def test_size_one_partition_with_a_shifted_solver_is_rejected(name, implicit):
    ode = _size_one_ode(implicit, lambda y: -10.0 * y, lambda y: _ShiftedOnly())
    with pytest.raises(InvalidInput):
        step(mg.registry_lookup(name), ode, np.array([1.0]), 0.0, 0.05, 2)


class _BadSolve:
    """A structured Jacobian whose shifted solve returns ``update``, whatever it is given."""

    def __init__(self, update):
        self.update = update

    def shifted_solver(self, a):
        return lambda r: self.update


@pytest.mark.parametrize("update", [np.zeros(3), np.zeros((2, 2)), np.zeros(2, dtype=complex), [0.0, 1j], "xy"],
                         ids=["size", "shape", "complex", "complex-list", "str"])
def test_bad_structured_solve_in_step_is_invalid_input(update):
    # caught at the Newton update, not broadcast into the iterate or blamed on f_slow
    ode = PartitionedOde(2, f_slow=lambda y: -y, f_fast=lambda y: -10.0 * y, jac_slow=lambda y: _BadSolve(update))
    with pytest.raises(InvalidInput, match="Newton solve"):
        step(mg.registry_lookup("EX-IM 2(1)A"), ode, np.ones(2), 0.0, 0.05, 2)


@pytest.mark.parametrize("name, implicit", SIZE_ONE_IMPLICIT)
def test_size_one_float_jacobian_steps_as_its_array(name, implicit):
    p = CoupledNonlinearScalar()
    slope = lambda y: -10.0 + 2.0 * float(y[0])
    as_float = step(mg.registry_lookup(name), _size_one_ode(implicit, p.f_fast, slope), np.array([0.5]), 0.0, 0.05, 2)
    as_array = step(mg.registry_lookup(name), _size_one_ode(implicit, p.f_fast, lambda y: np.array([[slope(y)]])),
                    np.array([0.5]), 0.0, 0.05, 2)
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(as_float, field), getattr(as_array, field))
    assert as_float.counters == as_array.counters


@pytest.mark.parametrize("name, M, counts", [
    ("IM-EX 3(2)A", 1, (21, 3, 9, 9)), ("IM-EX 3(2)A", 3, (45, 3, 18, 18)),
    ("EX-IM 3(2)A", 3, (9, 15, 6, 6)), ("IM-EX 2(1)A", 3, (30, 2, 12, 12)), ("EX-IM 4(3)A", 3, (18, 25, 10, 10)),
])
def test_size_one_forward_difference_slope_in_step(name, M, counts):
    # without jac, every size-1 Newton update costs one forward-difference RHS call
    ode = CoupledNonlinearScalar().to_ode()
    fd = step(mg.registry_lookup(name), _without_jacobians(ode), np.array([0.5]), 0.0, 0.05, M)
    c = fd.counters
    assert (c.fast_evals, c.slow_evals, c.newton_iterations, c.jacobians) == counts
    analytic = step(mg.registry_lookup(name), ode, np.array([0.5]), 0.0, 0.05, M)
    assert abs(fd.y_next[0] - analytic.y_next[0]) <= 1e-13


def test_integer_step_size_steps_as_its_float():
    # the stage coefficients scale by H and h = H/M whatever the number type of H
    for name, M in (("EX-EX 2(1)A", 2), ("IM-EX 3(2)A", 3)):
        m = mg.registry_lookup(name)
        as_int = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 1, M)
        as_float = step(m, LINEAR.to_ode(), np.array([1.0]), 0.0, 1.0, M)
        for field in FIELDS:
            np.testing.assert_array_equal(getattr(as_int, field), getattr(as_float, field))


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
    # equal infinite entries are no finite deviation either
    assert error_norm(np.array([np.inf]), np.array([np.inf]), Tolerances()) == np.inf
    assert error_norm(np.array([-np.inf]), np.array([-np.inf]), Tolerances(0.0, 0.0)) == np.inf
    assert error_norm(np.array([1.0, np.inf]), np.array([1.0, np.inf]), tol) == np.inf


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_error_norm_rejects_empty_states(shape):
    # no deviation can be averaged over no entries; inf would read as a NaN state
    with pytest.raises(InvalidInput):
        error_norm(np.zeros(shape), np.zeros(shape), Tolerances())


def test_error_norm_fallbacks_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error_norm(np.zeros(2), np.zeros(2), Tolerances(0.0, 1e-3)) == 0.0
        assert error_norm(np.array([1.0]), np.array([2.0]), Tolerances(0.0, 0.0)) == np.inf
        assert error_norm(np.array([1.0, np.nan]), np.array([1.0, 1.0]), Tolerances(1e-6, 1e-6)) == np.inf
        assert error_norm(np.array([np.inf]), np.array([1.0]), Tolerances(1e-6, 1e-6)) == np.inf
        assert error_norm(np.array([np.inf]), np.array([np.inf]), Tolerances()) == np.inf
        assert error_norm(np.array([-np.inf]), np.array([-np.inf]), Tolerances(0.0, 0.0)) == np.inf


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

    Returns y_next and its deviations y_next - y_hat from the embedded solutions
    of weights (b_f, b_hat_s) and (b_hat_f, b_s), each y_hat formed in full; an
    implicit stage is solved by newton_solve with the dense Newton matrix I - H*a_kk*J.
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
    y_next = y + H * (fast[0] + slow[0])
    return y_next, y_next - (y + H * (fast[0] + slow[1])), y_next - (y + H * (fast[1] + slow[0]))


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
    expected = _reference_step(m, ode, y0, H, M)
    for field, want in zip(FIELDS, expected):  # a deviation to the bound of the state it deviates from
        assert np.all(np.abs(getattr(r, field) - want) <= bound * (1.0 + np.abs(expected[0]))), field


def _scatter_step(method, ode, y_n, H, M, fsal_carry=None):
    """Frozen copy of the engine before slow stages were formed from their own rows over K.

    Each fast-stage value is scattered into one running sum per slow stage, and
    slow stage j's input is y_n + H * (K[:j].T @ A_ss[j, :j]) + h * sum_j.
    Returns ((y_next, y_next - y_hat_slow, y_next - y_hat_fast), counters, fsal_carry), each embedded
    solution y_hat formed in full, with b and b_hat taken from the method's tableaus.
    """
    plan = _step_plan(method, M)
    _, sf = method.couplings(M)
    s_f, s_s = method.stage_counts
    n, h, Ass = y_n.size, H / M, method.slow.A
    fast_weights, slow_weights = (np.array([tab.b, tab.b_hat]) for tab in (method.fast, method.slow))
    counters, matrices = WorkCounters(), [None, None]

    def f_slow(y):
        counters.slow_evals += 1
        return np.asarray(ode.f_slow(y), dtype=float)

    def f_fast(y):
        counters.fast_evals += 1
        return np.asarray(ode.f_fast(y), dtype=float)

    def stage_solver(a, part, f, jac_fn):
        def solve(known):
            last = [None, None]

            def residual(y):
                last[:] = y, f(y)
                return y - a * last[1] - known

            def jac(y):
                J = jac_fn(y)
                if not isinstance(J, np.ndarray) and hasattr(J, "shifted_solver"):
                    return J.shifted_solver(a)
                m = np.asarray(J, dtype=float) * -a
                m.flat[:: n + 1] += 1.0
                return m

            res = newton_solve(residual, known, None if jac_fn is None else jac, matrix=matrices[part])
            matrices[part] = res.matrix
            counters.newton_iterations += res.iterations
            counters.jacobians += res.jacobians
            return last[1] if res.y is last[0] else f(res.y)
        return solve

    slow_stage = stage_solver(H * method.slow.gamma, 0, f_slow, ode.jac_slow) if method.slow.is_implicit else f_slow
    fast_stage = stage_solver(h * method.fast.gamma, 1, f_fast, ode.jac_fast) if method.fast.is_implicit else f_fast
    K, sf_acc = np.zeros((s_s + s_f, n)), np.zeros((s_s, n))
    coef = plan.rows[..., 3:] * np.array([H] * s_s + [h] * s_f)

    def compute_slow(j):
        K[j] = slow_stage(y_n + H * (K[:j].T @ Ass[j, :j]) + h * sf_acc[j])

    fsal = method.has_flag(MethodFlag.FSAL)
    f_prev_last = None
    if fsal and fsal_carry is not None and np.array_equal(fsal_carry.y_next, y_n):
        f_prev_last = fsal_carry.f_fast_last
    ytilde, acc = y_n.copy(), np.zeros((2, n))
    for rows, before, a_sf in zip(coef, plan.before, sf):
        for i, row in enumerate(rows):
            for j in before[i]:
                compute_slow(j)
            rhs = ytilde + row @ K
            F = f_prev_last if i == 0 and f_prev_last is not None and not method.fast.is_implicit else fast_stage(rhs)
            K[s_s + i] = F
            if a_sf[:, i].any():
                sf_acc += a_sf[:, i:i + 1] * F
        if fsal:
            f_prev_last = K[-1]
        increments = fast_weights @ K[s_s:]
        acc += increments
        ytilde = ytilde + h * increments[0]
    for j in plan.trailing:
        compute_slow(j)
    with_bf, with_bf_hat = y_n + h * acc
    slow_b, slow_b_hat = H * (slow_weights @ K[:s_s])
    y_next = with_bf + slow_b
    carry = FsalCarry(y_next, f_prev_last.copy()) if fsal and f_prev_last is not None else None
    return (y_next, y_next - (with_bf + slow_b_hat), y_next - (with_bf_hat + slow_b)), counters, carry


PARITY_PROBLEMS = {
    "linear": (LINEAR, 0.1),
    "nonlinear-scalar": (CoupledNonlinearScalar(), 0.05),
    "gs16-reaction-fast": (GrayScott(n=16), 2e-3),
    "gs16-swapped": (GrayScott(n=16, swap_roles=True), 2e-3),
    # at size, with an H where explicit diffusion does not amplify
    "gs64-reaction-fast": (GrayScott(n=64), 1e-3),
    "gs64-swapped": (GrayScott(n=64, swap_roles=True), 1e-3),
}
# every pair on the small problems; at 64^2, the Gray-Scott explicit pair, a pair that folds every
# micro-step into running sums (EX-EX 4(3)A) and one pair with each partition implicit
PARITY_CASES = [
    *itertools.product(mg.METHOD_NAMES, [1, 2, 5, 8], list(PARITY_PROBLEMS)[:4]),
    *itertools.product(["EX-EX 3(2)4s-A", "EX-EX 4(3)A", "EX-IM 3(2)A", "IM-EX 3(2)A"], [2, 10],
                       ["gs64-reaction-fast", "gs64-swapped"]),
]


@pytest.mark.parametrize("name, M, problem", PARITY_CASES)
def test_step_matches_frozen_scatter_engine(name, M, problem):
    # slow stages formed from their rows over K and per-micro-step folds, against the per-fast-stage scatter:
    # two chained steps, FSAL carries included, agree to rounding with the same work
    m = mg.registry_lookup(name)
    p, H = PARITY_PROBLEMS[problem]
    ode, y, y_old = p.to_ode(), p.initial_condition(), p.initial_condition()
    carry = carry_old = None
    for k in range(2):
        r = step(m, ode, y, k * H, H, M, fsal_carry=carry)
        expected, counters, carry_old = _scatter_step(m, ode, y_old, H, M, carry_old)
        for field, want in zip(FIELDS, expected):  # a deviation to the bound of the state it deviates from
            assert np.all(np.abs(getattr(r, field) - want) <= 1e-15 * (1.0 + np.abs(expected[0]))), (field, k)
        assert r.counters == counters, k
        y, carry, y_old = r.y_next, r.fsal_carry, expected[0]


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


NEWTON_RETURNS = {
    # size: (residual, analytic dG/dy, a stale matrix that the first update outgrows)
    1: (lambda y: y**3 - 8.0, lambda y: np.array([[3.0 * y.item() ** 2]]), 1e-3),
    2: (lambda y: y**3 - np.array([8.0, 27.0]), lambda y: np.diag(3.0 * y**2), 1e-3 * np.eye(2)),
}


@pytest.mark.parametrize("source", ["analytic", "forward-difference", "stale-matrix"])
@pytest.mark.parametrize("size", [1, 2])
def test_newton_returns_the_array_of_its_last_residual_call(size, source):
    # a stage solver returns the f(y) of Newton's last residual call as f at the solution, which holds
    # only if the y returned is that very array, whichever way the Newton matrix came about
    g, dG, stale = NEWTON_RETURNS[size]
    seen = []

    def residual(y):
        seen.append(y)
        return g(y)

    jac = None if source == "forward-difference" else dG
    res = newton_solve(residual, np.full(size, 3.5), jac, matrix=stale if source == "stale-matrix" else None)
    assert res.y is seen[-1] and res.iterations > 1
    np.testing.assert_allclose(res.y, np.arange(2, 2 + size), rtol=1e-12)
    if source == "stale-matrix" and size == 2:
        assert res.jacobians >= 1  # the overshooting update was redone with a fresh matrix


#: RHS results that are not a real array of shape (2,), for a dimension-2 problem
BAD_RHS_RESULTS = {
    "wrong-shape": lambda y: y[:1],
    "complex": lambda y: 1j * y,
    "zero-d": lambda y: np.float64(y[0]),
    "two-d": lambda y: y[:, None],
    "bools": lambda y: y > 0.0,
}


@pytest.mark.parametrize("entry", ["step", "drive"])
@pytest.mark.parametrize("bad", list(BAD_RHS_RESULTS))
@pytest.mark.parametrize("partition", ["f_slow", "f_fast"])
@pytest.mark.parametrize("name", ["EX-EX 2(1)A", "IM-EX 2(1)A", "EX-IM 2(1)A"])
def test_a_bad_rhs_result_is_rejected_naming_its_partition(name, partition, bad, entry):
    # not broadcast into the stage array, and not cast to its real part with a ComplexWarning
    fs = {"f_slow": lambda y: -y, "f_fast": lambda y: -10.0 * y, partition: BAD_RHS_RESULTS[bad]}
    ode = PartitionedOde(2, **fs)
    y0 = np.array([1.0, 0.5])
    with pytest.raises(InvalidInput, match=partition):
        if entry == "step":
            step(mg.registry_lookup(name), ode, y0, 0.0, 0.05, 2)
        else:
            mg.drive(mg.registry_lookup(name), ode, y0, 0.0, 0.2, mg.ControllerConfig())


def test_real_rhs_results_of_other_types_step_as_their_float_arrays():
    m = mg.registry_lookup("EX-IM 2(1)A")
    y0 = np.array([1.0, 0.5])
    want = step(m, PartitionedOde(2, f_slow=lambda y: -y, f_fast=lambda y: np.full(2, 3.0)), y0, 0.0, 0.05, 2)
    for fast in (lambda y: [3, 3], lambda y: np.full(2, 3, dtype=np.int32), lambda y: np.full(2, 3.0, np.float32)):
        got = step(m, PartitionedOde(2, f_slow=lambda y: -y, f_fast=fast), y0, 0.0, 0.05, 2)
        np.testing.assert_array_equal(got.y_next, want.y_next)
        assert got.counters == want.counters


HUGE_H_PROBLEMS = [LINEAR, CoupledNonlinearScalar(), GrayScott(n=8)]


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_a_huge_step_size_fails_without_a_warning(name):
    # H overflows the scaled stage coefficients or the stages; the step ends in
    # NonFiniteState or NewtonDivergence, with no RuntimeWarning on the way
    m = mg.registry_lookup(name)
    for problem, H in itertools.product(HUGE_H_PROBLEMS, [1e308, 1e200, 1e30]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                r = step(m, problem.to_ode(), problem.initial_condition(), 0.0, H, 2)
            except (NonFiniteState, NewtonDivergence):
                continue
        assert np.isfinite(r.y_next).all()


def _result(y_next, slow_deviation, fast_deviation):
    """A hand-built step result."""
    return StepResult(np.asarray(y_next, dtype=float), np.asarray(slow_deviation, dtype=float),
                      np.asarray(fast_deviation, dtype=float), t=1.0, H=1.0, M=1, t_slow=0.0, t_fast=0.0,
                      counters=WorkCounters())


def _frozen_estimates(x, slow, fast, tolerances):
    """(total, slow, fast) as the scaled RMS of each deviation d of x, total = slow + fast, in np.mean form: the
    bit-for-bit oracle of the error estimates.

    Each scale is abs_tol + rel_tol * max(|x|, |x - d|), with x - d the embedded solution formed in full; 0/0 is
    no deviation, and an entry where x or x - d is NaN or infinite makes its estimate inf.
    """
    abs_tol, rel_tol = np.asarray(tolerances.abs_tol, dtype=float), np.asarray(tolerances.rel_tol, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deviations = np.array([slow + fast, slow, fast])
        y_hat = x - deviations
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(y_hat))
        scaled = np.where(deviations == 0.0, 0.0, deviations / scale)
        scaled[~(np.isfinite(x) & np.isfinite(y_hat))] = np.nan
        values = np.sqrt(np.mean(scaled**2, axis=-1)).tolist()
    return [math.inf if math.isnan(v) else v for v in values]


def _hex(values):
    return [v.hex() for v in values]


def test_error_estimates_equal_three_error_norms():
    # each estimate is the scaled norm of one deviation row against the embedded solution y_next - d, the same
    # float as the frozen oracle, NaN fallbacks, zero scales and infinities included
    def three(r, tol):
        return _hex(_frozen_estimates(r.y_next, r.slow_deviation, r.fast_deviation, tol))

    gs = GrayScott(n=16, swap_roles=True)
    r = step(mg.registry_lookup("EX-EX 3(2)4s-A"), gs.to_ode(), gs.initial_condition(), 0.0, 1e-3, 4)
    for tol in (Tolerances(1e-4, 1e-4), Tolerances(0.0, 1e-6), Tolerances(np.full(gs.dimension, 1e-5), 1e-3)):
        estimates = error_estimates(r, tol)
        assert _hex(estimates) == three(r, tol)
        # and error_norm against y_next - d, whose deviation y_next - (y_next - d) rounds d by an ulp of y_next
        deviations = (r.slow_deviation + r.fast_deviation, r.slow_deviation, r.fast_deviation)
        for estimate, d in zip(estimates, deviations):
            assert abs(estimate - error_norm(r.y_next, r.y_next - d, tol)) <= 1e-9 * (1.0 + estimate)
    rng = np.random.default_rng(11)
    specials = np.array([0.0, 1.0, -2.0, np.nan, np.inf, 1e-300, 1e300])
    for _ in range(300):
        n = int(rng.integers(1, 5))
        r.y_next, r.slow_deviation, r.fast_deviation = (rng.choice(specials, size=n) for _ in range(3))
        tol = Tolerances(float(rng.choice([0.0, 1e-6])), float(rng.choice([0.0, 1e-3])))
        assert _hex(error_estimates(r, tol)) == three(r, tol)


def test_error_estimates_rules_on_hand_built_results():
    # 0/0, where a deviation, its states and the tolerance vanish, is no deviation
    r = _result([0.0, 1.0], [0.0, 1e-3], [0.0, 0.0])
    assert error_estimates(r, Tolerances(0.0, 1e-3)) == (math.sqrt(0.5), math.sqrt(0.5), 0.0)
    # a non-finite y_next makes every estimate inf, even where every deviation is 0
    for bad in (np.inf, -np.inf, np.nan):
        assert error_estimates(_result([1.0, bad], [0.0, 0.0], [0.0, 0.0]), Tolerances()) == (math.inf,) * 3
    # a non-finite deviation makes the estimates that contain it inf; the others keep their values
    for bad in (np.inf, -np.inf, np.nan):
        assert error_estimates(_result([1.0, 1.0], [0.0, bad], [0.0, 0.0]), Tolerances()) == (math.inf, math.inf, 0.0)
        assert error_estimates(_result([1.0], [0.0], [bad]), Tolerances(0.0, 0.0)) == (math.inf, 0.0, math.inf)
    # an embedded solution y_next - d beyond the float range is no estimate either
    assert error_estimates(_result([1e308], [-1e308], [0.0]), Tolerances()) == (math.inf, math.inf, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error_estimates(_result([np.inf], [np.inf], [-np.inf]), Tolerances()) == (math.inf,) * 3


@pytest.mark.parametrize("shapes", [((3,), (2,), (3,)), ((3,), (3,), (1,)), ((3,), (1,), (1,)),
                                    ((3,), (3, 1), (3,)), ((1, 3), (1, 3), (1, 3)), ((0,), (0,), (0,))])
def test_error_estimates_reject_deviations_of_the_wrong_size(shapes):
    # not broadcast against y_next or each other
    with pytest.raises(InvalidInput):
        error_estimates(_result(*(np.ones(shape) for shape in shapes)), Tolerances())


def _frozen_scaled_rms(x, ys, abs_tol, rel_tol):
    """The scaled RMS of x against each row of ys, in np.mean form: the bit-for-bit oracle of the error norm."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(ys))
        values = np.sqrt(np.mean(((x - ys) / scale) ** 2, axis=-1)).tolist()
        if any(map(math.isnan, values)):
            same = (x == ys) & np.isfinite(x)
            values = np.sqrt(np.mean(np.where(same, 0.0, (x - ys) / scale) ** 2, axis=-1)).tolist()
            values = [math.inf if math.isnan(v) else v for v in values]
    return values


@pytest.mark.parametrize("n", [1, 2, 7, 8192])
def test_error_norm_matches_frozen_mean_oracle(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    ordinary = x + 1e-5 * rng.standard_normal((3, n))
    zeros = np.zeros((3, n))  # 0/0 where x vanishes too, finite/0 where it does not
    zeros[1, 0] = 1e-9
    special = ordinary.copy()
    special[0, n // 2] = np.nan
    special[1, -1] = np.inf
    special[2, 0] = -np.inf
    cases = [(x, ordinary), (np.zeros(n), zeros), (np.where(np.arange(n) % 2, x, 0.0), zeros), (x, special)]
    tolerances = [Tolerances(1e-6, 1e-6), Tolerances(0.0, 1e-3), Tolerances(0.0, 0.0),
                  Tolerances(np.full(n, 1e-5), 1e-3)]
    for (x_case, ys), tol in itertools.product(cases, tolerances):
        abs_tol, rel_tol = np.asarray(tol.abs_tol, dtype=float), np.asarray(tol.rel_tol, dtype=float)
        expected = [v.hex() for v in _frozen_scaled_rms(x_case, ys, abs_tol, rel_tol)]
        assert [error_norm(x_case, row, tol).hex() for row in ys] == expected
        # the estimates of a step whose deviations are these states' differences, specials included
        with np.errstate(invalid="ignore"):
            slow, fast = x_case - ys[1], x_case - ys[2]
        expected = _hex(_frozen_estimates(x_case, slow, fast, tol))
        assert _hex(error_estimates(_result(x_case, slow, fast), tol)) == expected
