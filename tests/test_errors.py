"""The argument rules of ``mrgark.errors`` at the public entry points."""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import mrgark as mg
from mrgark.errors import InvalidInput, UnknownMethod, check_rational, check_real
from mrgark.problems import GrayScott, LinearTwoRate, make_problem, reference_error

METHOD = mg.registry_lookup("EX-EX 2(1)A")
G = mg.assemble(METHOD, 2)
Y0 = np.array([1.0])


def _no_rhs(y):
    raise AssertionError("an argument check must come before any right-hand side")


# every bad argument below is rejected before the ODE is evaluated
NO_RHS_ODE = mg.PartitionedOde(1, f_slow=_no_rhs, f_fast=_no_rhs)
# three tolerances on a scalar problem would average its error over 3 copies
THREE_TOLERANCES = mg.Tolerances(abs_tol=np.array([1.0, 1e-9, 1e-9]), rel_tol=0.0)


def _step(**kwargs):
    return mg.step(METHOD, NO_RHS_ODE, **{"y_n": Y0, "t_n": 0.0, "H": 0.1, "M": 2, **kwargs})


def _integrate(**kwargs):
    return mg.integrate_fixed(METHOD, NO_RHS_ODE, **{"y0": Y0, "t0": 0.0, "t_end": 2.0, "H": 0.1, "M": 2, **kwargs})


def _drive(**kwargs):
    defaults = {"y0": Y0, "t0": 0.0, "t_end": 2.0, "config": mg.ControllerConfig()}
    return mg.drive(METHOD, NO_RHS_ODE, **{**defaults, **kwargs})


SDIRK2 = mg.registry_lookup("EX-IM 2(1)A").slow  # gamma = 1 - 1/sqrt(2)


def _sdirk2(A_11=SDIRK2.gamma, **changes):
    """EX-IM 2(1)A's SDIRK base with A[1, 1] = ``A_11`` and c its row sums, so no other rule breaks."""
    A = SDIRK2.A.copy()
    A[1, 1] = A_11
    return dataclasses.replace(SDIRK2, **{"A": A, "c": A.sum(axis=1), **changes})


def _couplings(fs_block):
    """Step EX-EX 2(1)A with every fast-slow block replaced by ``fs_block``."""
    return mg.step(dataclasses.replace(METHOD, fs_coupling=lambda lam, M: fs_block), NO_RHS_ODE, Y0, 0.0, 0.1, 2)


def _newton(update):
    """A size-2 Newton solve whose dG/dy solve returns ``update``; the residual is no right-hand side."""
    return mg.newton_solve(lambda y: y - 1.0, np.zeros(2), jac=lambda y: lambda r: update)


BAD_INPUT = [
    # a base tableau or a pair is checked when built, before anything steps with it
    pytest.param(lambda: _sdirk2(A_11=0.5), InvalidInput, id="ButcherTableau-diagonal-not-gamma"),
    pytest.param(lambda: _sdirk2(A_11=-0.3, gamma=-0.3), InvalidInput, id="ButcherTableau-gamma-negative"),
    pytest.param(lambda: _sdirk2(gamma=None), InvalidInput, id="ButcherTableau-gamma-None"),
    pytest.param(lambda: _sdirk2(gamma=10**400), InvalidInput, id="ButcherTableau-gamma-int-past-float"),
    pytest.param(lambda: _sdirk2(kind="sdirk"), InvalidInput, id="ButcherTableau-kind-str"),
    pytest.param(lambda: _sdirk2(b=SDIRK2.b + 0j), InvalidInput, id="ButcherTableau-b-complex"),
    pytest.param(lambda: _sdirk2(c=SDIRK2.c + [0.0, 0.1]), InvalidInput, id="ButcherTableau-c-not-row-sums"),
    pytest.param(lambda: _sdirk2(b=[0.5, 0.6]), InvalidInput, id="ButcherTableau-b-sum"),
    pytest.param(lambda: _sdirk2(b_hat=[0.5, math.nan]), InvalidInput, id="ButcherTableau-b_hat-nan"),
    pytest.param(lambda: dataclasses.replace(METHOD.fast, b=np.array([0.25, 0.75, 0.0])), InvalidInput,
                 id="ButcherTableau-shapes"),
    pytest.param(lambda: dataclasses.replace(METHOD.fast, gamma=0.5), InvalidInput, id="ButcherTableau-explicit-gamma"),
    pytest.param(lambda: dataclasses.replace(METHOD.fast, A=np.diag([0.0, 0.5]) + METHOD.fast.A), InvalidInput,
                 id="ButcherTableau-explicit-diagonal"),
    pytest.param(lambda: dataclasses.replace(METHOD, order=0), InvalidInput, id="MrGarkMethod-order-0"),
    pytest.param(lambda: dataclasses.replace(METHOD, order=-1), InvalidInput, id="MrGarkMethod-order-negative"),
    pytest.param(lambda: dataclasses.replace(METHOD, embedded_order=1.0), InvalidInput,
                 id="MrGarkMethod-embedded_order-float"),
    pytest.param(lambda: dataclasses.replace(METHOD, slow="EX-EX 2(1)A"), InvalidInput, id="MrGarkMethod-slow-str"),
    # a coupling block is checked when the stacks are built
    pytest.param(lambda: _couplings(np.zeros((2, 2), dtype=complex)), InvalidInput, id="coupling-complex"),
    pytest.param(lambda: _couplings(np.full((2, 2), math.nan)), InvalidInput, id="coupling-nan"),
    pytest.param(lambda: _couplings("block"), InvalidInput, id="coupling-str"),
    # a Newton solve's result is checked at the update
    pytest.param(lambda: _newton(np.zeros(3)), InvalidInput, id="newton_solve-update-size"),
    pytest.param(lambda: _newton(np.zeros((2, 2))), InvalidInput, id="newton_solve-update-shape"),
    pytest.param(lambda: _newton(np.zeros(2, dtype=complex)), InvalidInput, id="newton_solve-update-complex"),
    # a guess is a real array, 1-D above size 1, and a residual a real value of its size
    pytest.param(lambda: mg.newton_solve(lambda y: np.zeros(3), np.zeros(2)), InvalidInput,
                 id="newton_solve-residual-shape"),
    pytest.param(lambda: mg.newton_solve(lambda y: y + 1j, np.zeros(2)), InvalidInput,
                 id="newton_solve-residual-complex"),
    pytest.param(lambda: mg.newton_solve(lambda y: np.zeros(2), np.zeros(1)), InvalidInput,
                 id="newton_solve-size-one-residual-size"),
    pytest.param(lambda: mg.newton_solve(lambda y: y + 1j, np.zeros(1)), InvalidInput,
                 id="newton_solve-size-one-residual-complex"),
    pytest.param(lambda: mg.newton_solve(lambda y: y, "x"), InvalidInput, id="newton_solve-guess-str"),
    pytest.param(lambda: mg.newton_solve(lambda y: y - 1.0, np.zeros((2, 2))), InvalidInput,
                 id="newton_solve-guess-2d"),
    pytest.param(lambda: mg.newton_solve(lambda y: y - 1.0, np.zeros(2, dtype=complex)), InvalidInput,
                 id="newton_solve-guess-complex"),
    pytest.param(lambda: mg.PartitionedOde(1, 3, 4), InvalidInput, id="PartitionedOde-f-int"),
    pytest.param(lambda: mg.PartitionedOde(1, _no_rhs, _no_rhs, jac_fast="J"), InvalidInput,
                 id="PartitionedOde-jac-str"),
    pytest.param(lambda: _step(fsal_carry="x"), InvalidInput, id="step-fsal_carry-str"),
    # a method, ODE, step result or tolerances of another type is named, not left to an AttributeError
    pytest.param(lambda: mg.step("EX-EX 2(1)A", NO_RHS_ODE, Y0, 0.0, 0.1, 2), InvalidInput, id="step-method-str"),
    pytest.param(lambda: mg.step(METHOD, "ode", Y0, 0.0, 0.1, 2), InvalidInput, id="step-ode-str"),
    pytest.param(lambda: mg.integrate_fixed("EX-EX 2(1)A", NO_RHS_ODE, Y0, 0.0, 2.0, 0.1, 2), InvalidInput,
                 id="integrate_fixed-method-str"),
    pytest.param(lambda: mg.integrate_fixed(METHOD, "ode", Y0, 0.0, 2.0, 0.1, 2), InvalidInput,
                 id="integrate_fixed-ode-str"),
    pytest.param(lambda: mg.drive("EX-EX 2(1)A", NO_RHS_ODE, Y0, 0.0, 2.0, mg.ControllerConfig()), InvalidInput,
                 id="drive-method-str"),
    pytest.param(lambda: mg.drive(METHOD, "ode", Y0, 0.0, 2.0, mg.ControllerConfig()), InvalidInput,
                 id="drive-ode-str"),
    pytest.param(lambda: mg.error_estimates("r", mg.Tolerances()), InvalidInput, id="error_estimates-result-str"),
    pytest.param(lambda: mg.error_estimates(mg.step(METHOD, LinearTwoRate().to_ode(), Y0, 0.0, 0.1, 2), "1e-6"),
                 InvalidInput, id="error_estimates-tolerances-str"),
    pytest.param(lambda: mg.error_norm(Y0, Y0, 1e-6), InvalidInput, id="error_norm-tolerances-float"),
    pytest.param(lambda: mg.scan_region("EX-EX 2(1)A", 2, n_theta=3, n_rho=3), InvalidInput,
                 id="scan_region-method-str"),
    pytest.param(lambda: mg.assemble("EX-EX 2(1)A", 2), InvalidInput, id="assemble-method-str"),
    pytest.param(lambda: _integrate(on_step=3), InvalidInput, id="integrate_fixed-on_step-int"),
    pytest.param(lambda: _drive(config="efficiency"), InvalidInput, id="drive-config-str"),
    pytest.param(lambda: mg.stability_value("x", 1, 1), InvalidInput, id="stability_value-g-str"),
    pytest.param(lambda: _step(t_n="0"), InvalidInput, id="step-t_n-str"),
    pytest.param(lambda: _step(t_n=True), InvalidInput, id="step-t_n-bool"),
    pytest.param(lambda: _step(H=True), InvalidInput, id="step-H-bool"),
    # an int beyond the float range is not finite
    pytest.param(lambda: _step(H=10**400), InvalidInput, id="step-H-int-past-float"),
    pytest.param(lambda: _step(t_n=10**400), InvalidInput, id="step-t_n-int-past-float"),
    pytest.param(lambda: _integrate(H="0.1"), InvalidInput, id="integrate_fixed-H-str"),
    pytest.param(lambda: _integrate(H=True), InvalidInput, id="integrate_fixed-H-bool"),
    pytest.param(lambda: _integrate(t0=False), InvalidInput, id="integrate_fixed-t0-bool"),
    pytest.param(lambda: _integrate(t_end=True), InvalidInput, id="integrate_fixed-t_end-bool"),
    pytest.param(lambda: _drive(t0="0"), InvalidInput, id="drive-t0-str"),
    pytest.param(lambda: _drive(t0=False), InvalidInput, id="drive-t0-bool"),
    pytest.param(lambda: _drive(t_end=True), InvalidInput, id="drive-t_end-bool"),
    pytest.param(lambda: _drive(H0=True), InvalidInput, id="drive-H0-bool"),
    pytest.param(lambda: _drive(t_end=10**400), InvalidInput, id="drive-t_end-int-past-float"),
    pytest.param(lambda: _drive(t0=-1e308, t_end=1e308), InvalidInput, id="drive-span-overflows"),
    pytest.param(lambda: _drive(config=mg.ControllerConfig(abs_tol=np.ones(3))), InvalidInput,
                 id="drive-tolerance-size"),
    pytest.param(lambda: mg.ControllerConfig(synthetic_cost_ratio="5"), InvalidInput, id="cost-ratio-str"),
    pytest.param(lambda: mg.ControllerConfig(synthetic_cost_ratio=True), InvalidInput, id="cost-ratio-bool"),
    pytest.param(lambda: mg.ControllerConfig(strategy=["efficiency"]), InvalidInput, id="strategy-list"),
    pytest.param(lambda: mg.scan_region(METHOD, 2, rho_max="6", n_theta=3, n_rho=3), InvalidInput, id="rho_max-str"),
    pytest.param(lambda: mg.scan_region(METHOD, 2, rho_max=True, n_theta=3, n_rho=3), InvalidInput, id="rho_max-bool"),
    pytest.param(lambda: mg.scan_region(METHOD, 0, n_theta=3, n_rho=3), InvalidInput, id="scan_region-M-0"),
    pytest.param(lambda: mg.scan_region(METHOD, True, n_theta=3, n_rho=3), InvalidInput, id="scan_region-M-bool"),
    pytest.param(lambda: mg.scan_region(METHOD, 2.0, n_theta=3, n_rho=3), InvalidInput, id="scan_region-M-float"),
    pytest.param(lambda: mg.error_norm(np.array([1.0]), np.array([1.1]), THREE_TOLERANCES), InvalidInput,
                 id="error_norm-tolerance-size"),
    pytest.param(lambda: mg.error_estimates(mg.step(METHOD, LinearTwoRate().to_ode(), Y0, 0.0, 0.1, 2),
                                            THREE_TOLERANCES), InvalidInput, id="error_estimates-tolerance-size"),
    pytest.param(lambda: mg.stability_value(G, "1", 0), InvalidInput, id="stability_value-z-str"),
    pytest.param(lambda: mg.stability_value(G, None, 0), InvalidInput, id="stability_value-z-None"),
    pytest.param(lambda: mg.stability_value(G, 0, True), InvalidInput, id="stability_value-z-bool"),
    pytest.param(lambda: GrayScott(n=8, swap_roles=1), InvalidInput, id="GrayScott-swap_roles-1"),
    pytest.param(lambda: GrayScott(n=8, boundary=["neumann"]), InvalidInput, id="GrayScott-boundary-list"),
    pytest.param(lambda: make_problem(["gray-scott"]), InvalidInput, id="make_problem-name-list"),
    pytest.param(lambda: mg.residuals(METHOD, 2, ["main"]), InvalidInput, id="residuals-weights-list"),
    pytest.param(lambda: METHOD.coupling(["fs"], 1, 2), InvalidInput, id="coupling-side-list"),
    pytest.param(lambda: mg.check_stiff_accuracy(mg.registry_lookup("EX-IM 2(1)A"), 2, "Slow"), InvalidInput,
                 id="check_stiff_accuracy-partition-spelling"),
    pytest.param(lambda: mg.registry_lookup(["x"]), UnknownMethod, id="registry_lookup-name-list"),
    pytest.param(lambda: mg.registry_lookup("EX-EX 3(2)S", b_hat_2=True), InvalidInput,
                 id="registry_lookup-free-parameter-bool"),
    pytest.param(lambda: mg.stability_value(G, math.inf, 0), InvalidInput, id="stability_value-z-inf"),
    pytest.param(lambda: mg.stability_value(G, complex(math.nan, 0), 0), InvalidInput, id="stability_value-z-nan"),
    pytest.param(lambda: mg.stability_value(G, 10**400, 0), InvalidInput, id="stability_value-z-overflows"),
    pytest.param(lambda: mg.error_norm(np.array([1.0, 2.0, 3.0]), np.array([1.0]), mg.Tolerances()), InvalidInput,
                 id="error_norm-sizes-3-1"),
    pytest.param(lambda: mg.error_norm(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), mg.Tolerances()),
                 InvalidInput, id="error_norm-sizes-2-3"),
    pytest.param(lambda: reference_error(LinearTwoRate(), np.array([1.0, 2.0]), 1.0), InvalidInput,
                 id="reference_error-size"),
    # a complex state would be cast to its real part (with a ComplexWarning) or raise a bare TypeError
    pytest.param(lambda: mg.error_norm(np.array([1 + 1j]), np.array([1.0]), mg.Tolerances()), InvalidInput,
                 id="error_norm-x-complex"),
    pytest.param(lambda: mg.error_norm(np.array([1.0]), np.array([1 + 1j]), mg.Tolerances()), InvalidInput,
                 id="error_norm-y-complex"),
    pytest.param(lambda: mg.error_norm(np.array([True]), np.array([1.0]), mg.Tolerances()), InvalidInput,
                 id="error_norm-x-bool"),
    pytest.param(lambda: reference_error(LinearTwoRate(), np.array([1 + 1j]), 1.0), InvalidInput,
                 id="reference_error-y_T-complex"),
    pytest.param(lambda: reference_error(LinearTwoRate(), np.array([1.0]), 1.0, reference_state=np.array([1j])),
                 InvalidInput, id="reference_error-reference_state-complex"),
    # a non-finite y0 is refused before any RHS runs, not reported as a failed step or an underflow of H
    pytest.param(lambda: _integrate(y0=np.array([math.nan])), InvalidInput, id="integrate_fixed-y0-nan"),
    pytest.param(lambda: _integrate(y0=np.array([-math.inf])), InvalidInput, id="integrate_fixed-y0-inf"),
    pytest.param(lambda: _drive(y0=np.array([math.nan])), InvalidInput, id="drive-y0-nan"),
    pytest.param(lambda: _drive(y0=np.array([math.inf])), InvalidInput, id="drive-y0-inf"),
    pytest.param(lambda: mg.Tolerances(abs_tol="1e-6"), InvalidInput, id="Tolerances-abs_tol-str"),
    pytest.param(lambda: mg.Tolerances(abs_tol=True), InvalidInput, id="Tolerances-abs_tol-bool"),
    pytest.param(lambda: mg.Tolerances(rel_tol=np.array([True, False])), InvalidInput, id="Tolerances-rel_tol-bools"),
    pytest.param(lambda: mg.ControllerConfig(abs_tol="1e-6"), InvalidInput, id="ControllerConfig-abs_tol-str"),
    pytest.param(lambda: mg.ControllerConfig(rel_tol=True), InvalidInput, id="ControllerConfig-rel_tol-bool"),
]


@pytest.mark.parametrize("call, error", BAD_INPUT)
def test_entry_points_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(2), Fraction(1, 2),
                                   pytest.param(sys.float_info.max, id="float-max"),
                                   pytest.param(int(sys.float_info.max), id="int-at-float-max")])
def test_check_real_accepts_finite_reals(value):
    assert check_real(value, "x", positive=True) is value
    assert check_real(-value, "x") == -value


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, 1j, math.nan, np.float64(math.nan), math.inf,
                                   -math.inf,
                                   # beyond the float range, though Python compares them below inf
                                   pytest.param(10**400, id="int-past-float"),
                                   pytest.param(-10**400, id="negative-int-past-float"),
                                   pytest.param(int(sys.float_info.max) + 1, id="int-just-past-float"),
                                   pytest.param(Fraction(10**400, 3), id="Fraction-past-float")])
def test_check_real_rejects_non_reals_and_non_finite_values(value):
    with pytest.raises(InvalidInput):
        check_real(value, "x")
    with pytest.raises(InvalidInput):
        check_real(value, "x", positive=True)


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, 0, Fraction(-1, 2)])
def test_check_real_positive_rejects_values_not_above_zero(value):
    with pytest.raises(InvalidInput):
        check_real(value, "x", positive=True)


@pytest.mark.parametrize("value, expected", [(1, Fraction(1)), (np.int64(2), Fraction(2)), (0.25, Fraction(1, 4)),
                                             (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3)),
                                             ("0.5", Fraction(1, 2))])
def test_check_rational_accepts_ints_floats_fractions_and_strings(value, expected):
    assert check_rational(value, "c2") == expected


@pytest.mark.parametrize("value, expected", [(np.float32(0.5), Fraction(1, 2)), (np.float64(0.25), Fraction(1, 4)),
                                             (np.float32(0.1), Fraction(13421773, 134217728)),
                                             (np.longdouble(0.75), Fraction(3, 4))])
def test_check_rational_converts_numpy_floats_exactly(value, expected):
    assert check_rational(value, "c2") == expected


def test_registry_lookup_takes_a_numpy_float_free_parameter():
    assert mg.registry_lookup("EX-EX 2(1)S", c2=np.float32(0.5)) is mg.registry_lookup("EX-EX 2(1)S", c2=0.5)
    for bad in (np.float32("nan"), True, np.bool_(True)):
        with pytest.raises(InvalidInput):
            mg.registry_lookup("EX-EX 2(1)S", c2=bad)


@pytest.mark.parametrize("value", [True, np.bool_(False), math.nan, math.inf, "nan", "1/0", "x", None, 1j, [1],
                                   np.float32("nan"), np.float32("inf"), np.float64("-inf")])
def test_check_rational_rejects_bools_non_finite_values_and_non_numbers(value):
    with pytest.raises(InvalidInput):
        check_rational(value, "c2")


def test_tolerances_take_ints_floats_and_real_arrays():
    for value in (0, 1e-6, np.float32(1e-6), np.int64(1), [1e-6, 1e-7], np.array([1, 2])):
        mg.Tolerances(abs_tol=value, rel_tol=value)


def test_stability_value_takes_numpy_and_integer_arguments():
    assert mg.stability_value(G, np.complex128(-1 + 1j), np.float64(-0.5)) == mg.stability_value(G, -1 + 1j, -0.5)
    assert mg.stability_value(G, -1, 0) == mg.stability_value(G, -1.0 + 0j, 0.0)
