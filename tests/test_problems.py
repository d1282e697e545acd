import numpy as np
import pytest

from mrgark.errors import NoReference, NonFiniteInput
from mrgark.problems import (
    CoupledNonlinearScalar,
    GrayScott,
    LinearTwoRate,
    make_problem,
    reference_error,
    rhs_parts,
)


def test_linear_two_rate_parts_and_exact():
    prob = LinearTwoRate(-10.0, -1.0)
    fs, ff = rhs_parts(prob, np.array([1.0]))
    assert fs[0] == -1.0 and ff[0] == -10.0
    assert prob.exact(1.0)[0] == pytest.approx(np.exp(-11.0), rel=1e-15)
    assert reference_error(prob, prob.exact(1.0), 1.0) == 0.0


def test_rhs_parts_sum_is_full_rhs():
    gs = GrayScott(n=8)
    y = gs.initial_condition()
    fs, ff = rhs_parts(gs, y)
    np.testing.assert_allclose(fs + ff, gs.reaction(y) + gs.diffusion(y), atol=1e-15)


def test_rhs_parts_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        rhs_parts(LinearTwoRate(), np.array([np.nan]))


def test_gray_scott_trivial_equilibrium():
    gs = GrayScott(n=8)
    y = np.concatenate([np.ones(64), np.zeros(64)])
    fs, ff = rhs_parts(gs, y)
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
    J = gs.diffusion_jacobian()
    assert np.max(np.abs(J - J.T)) < 1e-13
    y = gs.initial_condition()
    np.testing.assert_allclose(J @ y, gs.diffusion(y), atol=1e-12)


def test_nonlinear_jacobian_not_available():
    gs = GrayScott(n=8)
    with pytest.raises(NotImplementedError):
        gs.diffusion_jacobian()
    assert gs.to_ode().jac_slow is None


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
