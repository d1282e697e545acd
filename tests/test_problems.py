from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mrgark.errors import InvalidInput, NewtonDivergence, NoReference
from mrgark.problems import (
    CoupledNonlinearScalar,
    GrayScott,
    LinearTwoRate,
    NonlinearDiffusionJacobian,
    make_problem,
    reference_error,
)
from mrgark.stepping import newton_solve


def test_linear_two_rate_parts_and_exact():
    prob = LinearTwoRate(-10.0, -1.0)
    y = np.array([1.0])
    fs, ff = prob.f_slow(y), prob.f_fast(y)
    assert fs[0] == -1.0 and ff[0] == -10.0
    assert prob.exact(1.0)[0] == pytest.approx(np.exp(-11.0), rel=1e-15)
    assert reference_error(prob, prob.exact(1.0), 1.0) == 0.0


def test_split_sum_is_full_rhs():
    gs = GrayScott(n=8)
    y = gs.initial_condition()
    fs, ff = gs.f_slow(y), gs.f_fast(y)
    np.testing.assert_allclose(fs + ff, gs.reaction(y) + gs.diffusion(y), atol=1e-15)


def test_gray_scott_trivial_equilibrium():
    gs = GrayScott(n=8)
    y = np.concatenate([np.ones(64), np.zeros(64)])
    fs, ff = gs.f_slow(y), gs.f_fast(y)
    assert np.max(np.abs(fs)) == 0.0
    assert np.max(np.abs(ff)) == 0.0


def test_gray_scott_initial_condition_block():
    gs = GrayScott(n=8)
    u, v = gs.split(gs.initial_condition())
    assert int((u != 1.0).sum()) == (8 // 4) ** 2 == 4
    assert int((v != 0.0).sum()) == 4
    assert u[3, 3] == 0.5 and v[4, 4] == 0.25
    # deterministic: two builds are bit-identical
    assert np.array_equal(gs.initial_condition(), GrayScott(n=8).initial_condition())


def test_gray_scott_nonlinear_coefficient_at_center():
    # eps * exp(-u/100) * sin(pi x) sin(pi y) at the cell centres, as `diffusion` uses it
    gs = GrayScott(n=32)
    assert (gs.eps_u, gs.eps_v) == (0.0625, 0.0312)
    u, v = np.random.default_rng(5).uniform(0.0, 1.0, (2, 32, 32))
    sx = np.sin(np.pi * gs.cell_centers())
    eu, ev = gs._eps_fields(u, v)
    for eps, w, field in ((gs.eps_u, u, eu), (gs.eps_v, v, ev)):
        expected = eps * np.exp(-w / 100.0) * sx[:, None] * sx[None, :]
        np.testing.assert_allclose(field, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_gray_scott_diffusion_conserves_mass(mode, boundary):
    gs = GrayScott(n=16, diffusion_mode=mode, boundary=boundary)
    y = gs.initial_condition()
    rate = gs.diffusion(y)
    n2 = 16 * 16
    assert abs(rate[:n2].sum()) * gs.spacing**2 < 1e-12
    assert abs(rate[n2:].sum()) * gs.spacing**2 < 1e-12


def test_gray_scott_pure_subdynamics():
    # zeroing one partition leaves exactly the other sub-dynamics
    gs = GrayScott(n=8)
    y = gs.initial_condition()
    np.testing.assert_array_equal(gs.f_slow(y), gs.diffusion(y))
    np.testing.assert_array_equal(gs.f_fast(y), gs.reaction(y))
    swapped = GrayScott(n=8, swap_roles=True)
    np.testing.assert_array_equal(swapped.f_fast(y), gs.diffusion(y))


def test_linear_diffusion_jacobian_symmetric_and_consistent():
    gs = GrayScott(n=8, diffusion_mode="linear")
    J = np.asarray(gs.diffusion_jacobian())
    assert np.max(np.abs(J - J.T)) < 1e-13
    y = gs.initial_condition()
    np.testing.assert_allclose(J @ y, gs.diffusion(y), atol=1e-12)


def _central_difference_jacobian(f, y, dy=1e-6):
    cols = []
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = dy
        cols.append((f(y + e) - f(y - e)) / (2 * dy))
    return np.stack(cols, axis=1)


def _perturbed_state(gs):
    rng = np.random.default_rng(3)
    return gs.initial_condition() + 0.05 * rng.standard_normal(gs.dimension)


def test_reaction_jacobian_against_finite_differences():
    gs = GrayScott(n=8)
    y = _perturbed_state(gs)
    J = np.asarray(gs.reaction_jacobian(y))
    np.testing.assert_allclose(J, _central_difference_jacobian(gs.reaction, y), rtol=0, atol=1e-8)
    # one 2x2 block per cell: u_i couples to itself and to v_i only
    assert np.count_nonzero(J) <= 4 * gs.n * gs.n


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_nonlinear_diffusion_jacobian_against_central_differences(boundary, n):
    gs = GrayScott(n=n, boundary=boundary)
    y = _perturbed_state(gs)
    J = np.asarray(gs.diffusion_jacobian(y))
    # each further w-derivative of exp(-w/100) is 100x smaller, so a wide step keeps truncation tiny
    expected = _central_difference_jacobian(gs.diffusion, y, dy=1e-4)
    assert np.linalg.norm(J - expected) <= 1e-11 * np.linalg.norm(expected)
    # a 5-point block per species, and u and v do not couple
    n2 = n * n
    assert not J[:n2, n2:].any() and not J[n2:, :n2].any()
    assert np.count_nonzero(J) <= 2 * 5 * n2


def test_nonlinear_diffusion_jacobian_is_wired():
    gs = GrayScott(n=8)
    y = _perturbed_state(gs)
    J = gs.to_ode().jac_slow(y)
    np.testing.assert_allclose(J, _central_difference_jacobian(gs.diffusion, y), rtol=0, atol=1e-7 * np.abs(J).max())
    # it depends on the state, so there is none without one
    with pytest.raises(InvalidInput):
        gs.diffusion_jacobian()
    with pytest.raises(InvalidInput):
        NonlinearDiffusionJacobian(GrayScott(n=8, diffusion_mode="linear"), y)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
@pytest.mark.parametrize("term", ["reaction", "diffusion", "nonlinear-diffusion"])
def test_structured_shifted_solve_matches_dense_solve(term, boundary, n):
    mode = "nonlinear" if term == "nonlinear-diffusion" else "linear"
    gs = GrayScott(n=n, diffusion_mode=mode, boundary=boundary)
    rng = np.random.default_rng(n)
    for _ in range(5):
        y = gs.initial_condition() + 0.2 * rng.standard_normal(gs.dimension)
        J = gs.reaction_jacobian(y) if term == "reaction" else gs.diffusion_jacobian(y)
        a = 10.0 ** rng.uniform(-5.0, 0.0)
        r = rng.standard_normal(gs.dimension)
        x = J.shifted_solver(a)(r)
        expected = np.linalg.solve(np.eye(gs.dimension) - a * np.asarray(J), r)
        assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("a", [-2.0, np.inf, np.nan], ids=["zero", "inf", "nan"])
def test_singular_reaction_shifted_solve_raises(a):
    # feed = 1/2 and v = 0: the u-row of I - a*J is 1 + a/2 = 0 exactly at a = -2
    gs = GrayScott(n=8, feed=0.5)
    y = np.concatenate([np.full(64, 0.7), np.zeros(64)])
    J = gs.reaction_jacobian(y)
    # the structured solve fails as the dense path does on the same system
    for jac in (lambda z: J.shifted_solver(a), lambda z: np.eye(128) - a * np.asarray(J)):
        with pytest.raises(NewtonDivergence), np.errstate(invalid="ignore"):
            newton_solve(lambda z: z - 0.1 * gs.reaction(z) - 1.0, y, jac=jac)


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
@pytest.mark.parametrize("a", [np.inf, np.nan])
def test_singular_diffusion_shifted_solve_raises(a, boundary):
    # a*eps*0 is NaN on the constant mode, and -inf on every other one
    gs = GrayScott(n=8, diffusion_mode="linear", boundary=boundary)
    J = gs.diffusion_jacobian()
    with pytest.raises(NewtonDivergence), np.errstate(invalid="ignore"):
        newton_solve(lambda z: z - 0.1 * gs.diffusion(z) - 1.0, gs.initial_condition(),
                     jac=lambda z: J.shifted_solver(a))


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
@pytest.mark.parametrize("a", [np.inf, np.nan])
def test_non_finite_nonlinear_diffusion_shifted_solve_raises(a, boundary):
    gs = GrayScott(n=8, boundary=boundary)
    y = _perturbed_state(gs)
    J = gs.diffusion_jacobian(y)
    with pytest.raises(NewtonDivergence), np.errstate(invalid="ignore"):
        newton_solve(lambda z: z - 0.1 * gs.diffusion(z) - 1.0, y, jac=lambda z: J.shifted_solver(a))


def test_singular_nonlinear_diffusion_shifted_solve_raises():
    gs = GrayScott(n=8)
    J = gs.diffusion_jacobian(_perturbed_state(gs))
    J.blocks = np.broadcast_to(np.eye(64), J.blocks.shape)  # I - 1*J is exactly zero
    with pytest.raises(NewtonDivergence):
        J.shifted_solver(1.0)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("swap", [False, True])
def test_to_ode_wires_each_jacobian_to_its_partition(mode, swap):
    gs = GrayScott(n=8, diffusion_mode=mode, swap_roles=swap)
    ode = gs.to_ode()
    y = _perturbed_state(gs)
    parts = {"diffusion": (ode.f_fast, ode.jac_fast) if swap else (ode.f_slow, ode.jac_slow),
             "reaction": (ode.f_slow, ode.jac_slow) if swap else (ode.f_fast, ode.jac_fast)}
    for term, (f, jac) in parts.items():
        J = jac(y)
        np.testing.assert_allclose(J, _central_difference_jacobian(f, y), rtol=0, atol=1e-7 * np.abs(J).max())
    if mode == "linear":
        # one diffusion matrix per problem, shared by all of its ODEs
        diffusion_jac = parts["diffusion"][1]
        other = gs.to_ode()
        assert diffusion_jac(y) is (other.jac_fast if swap else other.jac_slow)(2 * y)


def test_reference_error_requires_reference():
    gs = GrayScott(n=8)
    with pytest.raises(NoReference):
        reference_error(gs, gs.initial_condition(), 0.5)
    y = gs.initial_condition()
    assert reference_error(gs, y, 0.5, reference_state=y) == 0.0


def test_make_problem_registry():
    prob = make_problem("linear-two-rate", lambda_fast=-20.0)
    assert prob.lambda_fast == -20.0
    assert isinstance(make_problem("coupled-scalar"), CoupledNonlinearScalar)
    with pytest.raises(ValueError):
        make_problem("unknown-problem")


def test_gray_scott_validates_config():
    with pytest.raises(ValueError):
        GrayScott(n=10)
    with pytest.raises(ValueError):
        GrayScott(n=8, diffusion_mode="cubic")
    with pytest.raises(ValueError):
        GrayScott(n=8, boundary="dirichlet")


@pytest.mark.parametrize("name,value", [("n", 16), ("eps_u", 1.0), ("diffusion_mode", "cubic")])
def test_gray_scott_fields_are_frozen(name, value):
    # the sin grid and the shared linear diffusion Jacobian are derived from the fields
    gs = GrayScott(n=8, diffusion_mode="linear")
    jac = gs.diffusion_jacobian()
    with pytest.raises(FrozenInstanceError):
        setattr(gs, name, value)
    assert getattr(gs, name) != value and gs.diffusion_jacobian() is jac


@pytest.mark.parametrize("cls,params", [
    (GrayScott, {"n": 0}),
    (GrayScott, {"n": -8}),
    (GrayScott, {"n": 8.0}),
    (GrayScott, {"n": True}),
    (GrayScott, {"feed": None}),
    (GrayScott, {"kill": float("nan")}),
    (GrayScott, {"eps_u": float("inf")}),
    (GrayScott, {"eps_v": "0.03"}),
    (GrayScott, {"swap_roles": "no"}),
    (LinearTwoRate, {"lambda_fast": "x"}),
    (LinearTwoRate, {"lambda_slow": float("nan")}),
    (LinearTwoRate, {"y0": False}),
    (CoupledNonlinearScalar, {"y0": None}),
])
def test_problem_parameters_are_checked_at_construction(cls, params):
    with pytest.raises(InvalidInput):
        cls(**params)
