"""Acceptance suite: one test per criterion, with a summary line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion outcomes
are printed in the terminal summary.  The Gray-Scott reference solutions are
expensive fine-step runs and are cached under ``tests/.cache`` after the
first execution.
"""

import math
import time

import numpy as np
import pytest

import mrgark as mg
from mrgark.adaptivity import ControllerConfig, drive
from mrgark.order import assembled_residuals, residuals
from mrgark.problems import GrayScott, LinearTwoRate
from mrgark.stability import stability_value
from mrgark.tableaux import MethodFlag, TableauKind

from conftest import cached_reference, record_criterion

ALL_M = list(range(1, 9))
SQRT2 = math.sqrt(2.0)
NATURALLY_ADAPTIVE = ("EX-EX 2(1)A", "EX-EX 2(1)S", "EX-EX 3(2)4s-A")
EXPLICIT_METHODS = tuple(n for n in mg.METHOD_NAMES if n.startswith("EX-EX"))

CHAIN3 = ["slow:b.Ass.c", "fast:b.Aff.c", "coupling:b.Afs.c", "coupling:b.Asf.c"]
CHAIN4 = [
    "slow:b.Ass.Ass.c", "fast:b.Aff.Aff.c",
    "coupling:b.Ass.Asf.c", "coupling:b.Asf.Afs.c", "coupling:b.Asf.Aff.c",
    "coupling:b.Aff.Afs.c", "coupling:b.Afs.Ass.c", "coupling:b.Afs.Asf.c",
]


def chain_effective_order(method) -> int:
    """Largest q <= 4 with every chain-tree residual of order <= q vanishing.

    Scalar linear problems excite only chain trees (second derivatives of the
    right-hand side vanish), so this is the convergence order such problems
    can exhibit.  It equals the declared order for every registered pair
    except EX-EX 3(2)4s-A, whose order-4 chain and coupling residuals all
    cancel by construction.
    """
    r3 = r4 = 0.0
    for M in (2, 4):
        rep = residuals(method, M)
        r3 = max(r3, max(abs(rep.entry(c).residual) for c in CHAIN3))
        r4 = max(r4, max(abs(rep.entry(c).residual) for c in CHAIN4))
    if r3 >= 1e-9:
        return 2
    return 4 if r4 < 1e-9 else 3


# ---------------------------------------------------------------------------
# criterion 1: order verification
# ---------------------------------------------------------------------------

def test_criterion_1_order_verification():
    record_criterion("1", "[criterion 1] FAIL order verification (did not complete)")
    start = time.perf_counter()
    observed_max = 0.0
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        budget = 1e-9 if method.order < 4 else 1e-6
        for M in ALL_M:
            rep = residuals(method, M)
            worst = max(rep.max_abs(order=o) for o in range(1, method.order + 1))
            observed_max = max(observed_max, worst)
            assert worst < budget, f"{name} M={M}: residual {worst:.2e}"
            assert worst < 1e-9, f"{name} M={M}: residual {worst:.2e} above 1e-9"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"order verification took {elapsed:.1f}s"
    record_criterion(
        "1",
        f"[criterion 1] PASS orders verified for 12 methods, M=1..8 "
        f"(max residual {observed_max:.2e}, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: closed-form residuals of IM-EX 2(1)A
# ---------------------------------------------------------------------------

def test_criterion_2_imex21_residual_formulas():
    record_criterion("2", "[criterion 2] FAIL IM-EX 2(1)A residual formulas")
    m = mg.registry_lookup("IM-EX 2(1)A")
    for M in (1, 2, 4, 8):
        rep = residuals(m, M)
        fast = -rep.entry("fast:b.c^2").residual       # rhs - value convention
        coup = -rep.entry("coupling:b.Asf.c").residual
        assert abs(fast - (4 - 3 * SQRT2) / (12 * M**2)) < 1e-12
        assert abs(coup - (3 * SQRT2 - 3 - M) / (12 * M)) < 1e-12
    record_criterion(
        "2", "[criterion 2] PASS IM-EX 2(1)A fast and coupling residuals match "
             "the closed forms at M=1,2,4,8 (within 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 3: natural adaptivity
# ---------------------------------------------------------------------------

def test_criterion_3_natural_adaptivity_multirate():
    record_criterion("3", "[criterion 3] FAIL natural adaptivity")
    for name in NATURALLY_ADAPTIVE:
        method = mg.registry_lookup(name)
        for M in range(2, 9):
            rep = residuals(method, M)
            worst = rep.max_abs(order=method.order + 1, group="coupling")
            assert worst < 1e-9, f"{name} M={M}: coupling residual {worst:.2e}"
    # the implicit-explicit pair is not naturally adaptive: the slow-fast
    # coupling residual is the closed form (3*sqrt(2)-3-M)/(12M), order one
    m = mg.registry_lookup("IM-EX 2(1)A")
    for M in ALL_M:
        rep = residuals(m, M)
        coup = -rep.entry("coupling:b.Asf.c").residual
        assert abs(coup - (3 * SQRT2 - 3 - M) / (12 * M)) < 1e-12
        assert rep.max_abs(order=3, group="coupling") > 1e-3
    record_criterion(
        "3", "[criterion 3] PASS coupling residuals vanish for the naturally "
             "adaptive methods (M=2..8); IM-EX 2(1)A retains its order-one "
             "coupling residual.  M=1 is provably impossible for decoupled "
             "two-stage pairs: the companion xfail test carries the argument.",
    )


@pytest.mark.xfail(
    strict=True,
    reason="no decoupled two-stage pair can cancel both order-3 coupling sums "
    "at M=1 (both abscissae visible across the partition boundary are zero); "
    "the telescopic M=1 collapse leaves the base-scheme residual -1/6",
)
def test_criterion_3_natural_adaptivity_at_m1_is_impossible():
    for name in NATURALLY_ADAPTIVE:
        method = mg.registry_lookup(name)
        rep = residuals(method, 1)
        assert rep.max_abs(order=method.order + 1, group="coupling") < 1e-9


def test_criterion_3_m1_residual_value_is_pinned():
    # companion regression: at M=1 the telescopic collapse makes the coupling
    # conditions equal the base-scheme ones, so the two-stage pairs show
    # exactly b^T A c - 1/6 = -1/6
    for name in ("EX-EX 2(1)A", "EX-EX 2(1)S"):
        rep = residuals(mg.registry_lookup(name), 1)
        assert rep.entry("coupling:b.Afs.c").residual == pytest.approx(-1 / 6, abs=1e-14)
        assert rep.entry("coupling:b.Asf.c").residual == pytest.approx(-1 / 6, abs=1e-14)


# ---------------------------------------------------------------------------
# criterion 4: structure suite
# ---------------------------------------------------------------------------

def test_criterion_4_structure_suite():
    record_criterion("4", "[criterion 4] FAIL structure suite")
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        assert mg.check_telescopic(method) == method.has_flag(MethodFlag.TELESCOPIC), name
        for M in ALL_M:
            g = mg.assemble(method, M)
            assert mg.check_internal_consistency(method, M).passed, (name, M)
            assert mg.check_decoupled(method, M), (name, M)
            perm = np.array(mg.derive_schedule(method, M))
            P = g.A[np.ix_(perm, perm)]
            assert not np.any(np.triu(P, 1) != 0.0), (name, M)
            if method.fast.kind is TableauKind.EXPLICIT and method.slow.kind is TableauKind.EXPLICIT:
                assert not np.any(np.diag(P) != 0.0), (name, M)
            if method.has_flag(MethodFlag.STIFFLY_ACCURATE_SLOW):
                assert mg.check_stiff_accuracy(method, M, "slow"), (name, M)
            if method.has_flag(MethodFlag.STIFFLY_ACCURATE_FAST):
                assert mg.check_stiff_accuracy(method, M, "fast"), (name, M)
    m = mg.registry_lookup("EX-EX 2(1)A")
    assert [i + 1 for i in mg.derive_schedule(m, 3)] == [7, 1, 2, 8, 3, 4, 5, 6]
    record_criterion(
        "4", "[criterion 4] PASS internal consistency, decoupling, telescopic "
             "flags, stiff accuracy and schedule triangularity for 12 methods, "
             "M=1..8; printed stage order reproduced at M=3",
    )


# ---------------------------------------------------------------------------
# criterion 5: stability oracle
# ---------------------------------------------------------------------------

def _base_polynomial(tab, z):
    term = np.ones(tab.stage_count)
    val = 1.0 + 0j
    zk = 1.0 + 0j
    for _ in range(tab.stage_count):
        zk = zk * z
        val += zk * float(tab.b @ term)
        term = tab.A @ term
    return val


def test_criterion_5_stability_oracle():
    record_criterion("5", "[criterion 5] FAIL stability oracle")
    for name in mg.METHOD_NAMES:
        for M in (1, 2, 4):
            g = mg.assemble(mg.registry_lookup(name), M)
            assert abs(stability_value(g, 0.0, 0.0) - 1.0) < 1e-14, (name, M)

    rng = np.random.default_rng(20260808)
    samples = []
    while len(samples) < 100:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) <= 5:
            samples.append(z)
    worst = 0.0
    for name in EXPLICIT_METHODS:
        m = mg.registry_lookup(name)
        g = mg.assemble(m, 1)
        for z in samples:
            diff = abs(stability_value(g, z / 2, z / 2) - _base_polynomial(m.fast, z))
            worst = max(worst, diff)
        assert worst < 1e-12, name

    for name in mg.METHOD_NAMES:
        if name.startswith("EX-EX"):
            continue
        g = mg.assemble(mg.registry_lookup(name), 3)
        r = stability_value(g, -1e8, 0.0) if name.startswith("IM-EX") else stability_value(g, 0.0, -1e8)
        assert abs(r) < 1.0, name
    record_criterion(
        "5", f"[criterion 5] PASS R(0,0)=1; telescopic M=1 matches the base "
             f"polynomial on 100 samples (max diff {worst:.1e}); implicit "
             f"partitions decay at -1e8",
    )


# ---------------------------------------------------------------------------
# criterion 6: convergence at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6a_linear_convergence():
    record_criterion("6a", "[criterion 6a] FAIL linear two-rate convergence")
    prob = LinearTwoRate(-10.0, -1.0)
    ode = prob.to_ode()
    exact = prob.exact(1.0)[0]
    ladder = [2.0**-k for k in range(3, 8)]
    superconvergent = []
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        p = method.order
        for M in (2, 4):
            errs = []
            pred = []
            for H in ladder:
                y = mg.integrate_fixed(method, ode, [1.0], 0.0, 1.0, H, M).y_next[0]
                errs.append(abs(y - exact) / abs(exact))
                # exact-propagation prediction from the stability function:
                # the same error the theory assigns to this (method, M, H)
                g = mg.assemble(method, M)
                R = stability_value(g, H * prob.lambda_fast, H * prob.lambda_slow).real
                pred.append(abs(R ** round(1.0 / H) - exact) / abs(exact))
            slope = float(np.polyfit(np.log(ladder), np.log(errs), 1)[0])
            slope_pred = float(np.polyfit(np.log(ladder), np.log(pred), 1)[0])
            # the integrator must track the theoretical error curve exactly
            assert abs(slope - slope_pred) < 0.05, (name, M, slope, slope_pred)
            # and never converge below the declared order
            assert slope >= p - 0.4, (name, M, slope)
            if abs(slope - p) > 0.4:
                # only genuine superconvergence may leave the band, and only
                # when the stability function itself predicts it (error-term
                # cancellation specific to this problem and M)
                assert slope > p, (name, M, slope)
                superconvergent.append(f"{name} M={M} ({slope:.2f})")
    note = f"; superconvergent on this problem: {', '.join(superconvergent)}" if superconvergent else ""
    record_criterion(
        "6a", "[criterion 6a] PASS linear two-rate observed orders match the "
              "stability-function prediction for all 12 methods, M in {2,4}, "
              f"and never fall below p-0.4{note}",
    )


def _gs_fixed(method, gs, y0, H, M, T=0.5):
    return mg.integrate_fixed(method, gs.to_ode(), y0, 0.0, T, H, M).y_next


def test_criterion_6b_gray_scott_convergence():
    record_criterion("6b", "[criterion 6b] FAIL Gray-Scott convergence")
    gs = GrayScott(n=32)
    y0 = gs.initial_condition()
    H1, H2 = 1 / 512, 1 / 1024
    h_ref = H1 / 64
    for name in EXPLICIT_METHODS:
        method = mg.registry_lookup(name)
        center = chain_effective_order(method)
        for M in (2, 4):
            key = f"gs32-nonlinear-{name}-M{M}-T0.5-href{h_ref:.3e}"
            y_ref = cached_reference(key, lambda: _gs_fixed(method, gs, y0, h_ref, M))
            e1 = np.linalg.norm(_gs_fixed(method, gs, y0, H1, M) - y_ref) / np.linalg.norm(y_ref)
            e2 = np.linalg.norm(_gs_fixed(method, gs, y0, H2, M) - y_ref) / np.linalg.norm(y_ref)
            observed = math.log2(e1 / e2)
            assert abs(observed - center) <= 0.5, (name, M, observed, center)
            assert observed >= method.order - 0.5, (name, M, observed)
    record_criterion(
        "6b", "[criterion 6b] PASS 32x32 nonlinear-diffusion Gray-Scott orders "
              "within 0.5 of the expected order for the 6 explicit methods, "
              "M in {2,4} (EX-EX 3(2)4s-A measured against its chain-effective "
              "order 4; its order-4 chain and coupling residuals all cancel)",
    )


# ---------------------------------------------------------------------------
# criterion 7: adaptivity on Gray-Scott
# ---------------------------------------------------------------------------

def test_criterion_7_adaptivity():
    record_criterion("7", "[criterion 7] FAIL H-M adaptivity")
    method = mg.registry_lookup("EX-EX 3(2)4s-A")

    # efficiency strategy: completion + accept rule on the reaction-fast
    # partition used by the timing experiments
    gs = GrayScott(n=32)
    cfg = ControllerConfig(strategy="efficiency", abs_tol=1e-4, rel_tol=1e-4,
                           synthetic_cost_ratio=20.0)
    res = drive(method, gs.to_ode(), gs.initial_condition(), 0.0, 2.0, cfg,
                H0=1e-3, M0=2)
    assert res.ts[-1] == pytest.approx(2.0, abs=1e-12)
    assert all(r.eps_total <= 1.0 for r in res.state.trace if r.accepted)

    # cost-ratio trend: with the diffusion (stiff) partition fast, extra
    # micro-steps buy accuracy, and a costlier slow stage set favors more of
    # them; the time-averaged M must not decrease with the cost ratio
    averages = []
    for ratio in (15.0, 20.0, 25.0):
        gs_swapped = GrayScott(n=32, swap_roles=True)
        cfg = ControllerConfig(strategy="efficiency", abs_tol=1e-4, rel_tol=1e-4,
                               synthetic_cost_ratio=ratio)
        res = drive(method, gs_swapped.to_ode(), gs_swapped.initial_condition(),
                    0.0, 2.0, cfg, H0=5e-3, M0=20)
        acc = [r for r in res.state.trace if r.accepted]
        assert res.ts[-1] == pytest.approx(2.0, abs=1e-12)
        assert all(r.eps_total <= 1.0 for r in acc)
        averages.append(sum(r.H * r.M for r in acc) / sum(r.H for r in acc))
    assert averages[0] <= averages[1] <= averages[2], averages

    # balancing strategy: swapping the partition roles moves the average M in
    # opposite directions from the same start
    avg_m = {}
    for swap in (False, True):
        gs_b = GrayScott(n=32, swap_roles=swap)
        cfg = ControllerConfig(strategy="balancing", abs_tol=1e-2, rel_tol=1e-2)
        res = drive(method, gs_b.to_ode(), gs_b.initial_condition(), 0.0, 2.0, cfg,
                    H0=1e-3, M0=4)
        acc = [r for r in res.state.trace if r.accepted]
        avg_m[swap] = float(np.mean([r.M for r in acc]))
    assert avg_m[False] < 4.0 < avg_m[True], avg_m
    record_criterion(
        "7", f"[criterion 7] PASS efficiency controller completes T=[0,2] at "
             f"tol 1e-4 with accepted eps<=1; time-averaged M non-decreasing "
             f"in cost ratio ({averages[0]:.2f} <= {averages[1]:.2f} <= "
             f"{averages[2]:.2f}); balancing moves avg M to {avg_m[False]:.2f} "
             f"vs {avg_m[True]:.2f} when the roles swap",
    )


# ---------------------------------------------------------------------------
# criterion 8: work accounting
# ---------------------------------------------------------------------------

def test_criterion_8_work_accounting():
    record_criterion("8", "[criterion 8] FAIL work accounting")
    ode = LinearTwoRate(-10.0, -1.0).to_ode()
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        s_f, s_s = method.stage_counts
        for M in (1, 3, 5):
            r1 = mg.step(method, ode, np.array([1.0]), 0.0, 0.05, M)
            r2 = mg.step(method, ode, r1.y_next, r1.t, 0.05, M, fsal_carry=r1.fsal_carry)
            if method.fast.kind is TableauKind.EXPLICIT:
                if method.has_flag(MethodFlag.FSAL):
                    assert r1.counters.fast_evals == M * s_f - (M - 1), (name, M)
                    assert r2.counters.fast_evals == M * s_f - M, (name, M)
                else:
                    assert r1.counters.fast_evals == M * s_f, (name, M)
                    assert r2.counters.fast_evals == M * s_f, (name, M)
            else:
                # implicit stages run Newton; the per-stage structure still
                # bounds the count from below
                assert r1.counters.fast_evals >= M * s_f, (name, M)
                assert r1.counters.newton_iterations == M * s_f  # affine: 1 each
            if method.slow.kind is TableauKind.EXPLICIT:
                assert r1.counters.slow_evals == s_s, (name, M)
            else:
                assert r1.counters.slow_evals >= s_s, (name, M)
                assert r1.counters.newton_iterations == s_s
    record_criterion(
        "8", "[criterion 8] PASS explicit partitions use exactly M*s_f fast / "
             "s_s slow evaluations per macro-step; FSAL reuse saves M-1 then M; "
             "implicit stages add one Newton update each on the linear problem",
    )


# ---------------------------------------------------------------------------
# criterion 9: oracle equivalences
# ---------------------------------------------------------------------------

def _dense_stability_value(g, z_f, z_s):
    """R = 1 + b^T Z (I - A Z)^{-1} 1 by one dense solve on the assembled tableau, independent of the step plan."""
    z = np.full(g.stage_count, complex(z_s))
    z[: g.M * g.s_f] = z_f
    return 1.0 + (g.b * z) @ np.linalg.solve(np.eye(g.stage_count) - g.A * z, np.ones(g.stage_count))


def test_criterion_9_oracle_equivalence():
    record_criterion("9", "[criterion 9] FAIL oracle equivalence")
    worst_block = 0.0
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        for M in range(1, 7):
            ra = assembled_residuals(method, M)
            rb = residuals(method, M)
            for e in rb.entries:
                worst_block = max(worst_block, abs(e.value - ra.entry(e.id).value))
    assert worst_block < 1e-10

    prob = LinearTwoRate(-10.0, -1.0)
    ode = prob.to_ode()
    H = 0.1
    worst_step = 0.0
    for name in mg.METHOD_NAMES:
        method = mg.registry_lookup(name)
        for M in (1, 2, 4):
            g = mg.assemble(method, M)
            R = _dense_stability_value(g, H * prob.lambda_fast, H * prob.lambda_slow)
            res = mg.step(method, ode, np.array([1.0]), 0.0, H, M)
            worst_step = max(worst_step, abs(res.y_next[0] - R.real))
    assert worst_step < 1e-13
    record_criterion(
        "9", f"[criterion 9] PASS block-form vs assembled-matrix residuals "
             f"agree to {worst_block:.1e} (M=1..6); one integrator step matches "
             f"the dense stability function to {worst_step:.1e} (M=1,2,4)",
    )
