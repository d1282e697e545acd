import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import mrgark as mg
from mrgark.errors import InvalidInput, NewtonDivergence, NoReference
from mrgark.problems import (
    CoupledNonlinearScalar,
    DiffusionJacobian,
    GrayScott,
    LinearTwoRate,
    NonlinearDiffusionJacobian,
    _face_cells,
    make_problem,
    reference_error,
)
from mrgark.stepping import PartitionedOde, newton_solve, step


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
    state = np.random.default_rng(5).uniform(0.0, 1.0, (2, 32, 32))
    sx = np.sin(np.pi * gs.cell_centers())
    fields = gs._eps_fields(state)
    assert fields.shape == (2, 32, 32)
    for eps, w, field in zip((gs.eps_u, gs.eps_v), state, fields):
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


# The per-species kernels, 1-D operator and face list that the stacked flux
# kernel and the one face rule replaced, frozen as bit-for-bit oracles.
def _frozen_neumann_div_flux(field, eps, h, axis):
    f = np.moveaxis(field, axis, 0)
    e = np.moveaxis(eps, axis, 0)
    face = 0.5 * (e[1:] + e[:-1]) * (f[1:] - f[:-1]) / h
    out = np.zeros_like(f)
    out[:-1] += face
    out[1:] -= face
    return np.moveaxis(out, 0, axis) / h


def _frozen_periodic_div_flux(field, eps, h, axis):
    fp = np.roll(field, -1, axis=axis)
    ep = np.roll(eps, -1, axis=axis)
    face = 0.5 * (eps + ep) * (fp - field) / h
    return (face - np.roll(face, 1, axis=axis)) / h


def _frozen_eps_fields(gs, u, v):
    if gs.diffusion_mode == "linear":
        shape = np.ones_like(u)
        return gs.eps_u * shape, gs.eps_v * shape
    sx = np.sin(np.pi * gs.cell_centers())
    sin_grid = sx[:, None] * sx[None, :]
    return gs.eps_u * np.exp(-u / 100.0) * sin_grid, gs.eps_v * np.exp(-v / 100.0) * sin_grid


def _frozen_diffusion(gs, y):
    u, v = gs.split(y)
    eu, ev = _frozen_eps_fields(gs, u, v)
    h = gs.spacing
    div = _frozen_neumann_div_flux if gs.boundary == "neumann" else _frozen_periodic_div_flux
    du = div(u, eu, h, 0) + div(u, eu, h, 1)
    dv = div(v, ev, h, 0) + div(v, ev, h, 1)
    return np.concatenate([du.ravel(), dv.ravel()])


# The stacked kernel that the flat passes replaced, frozen with per-call buffers as a bit-for-bit oracle: w, and
# e in nonlinear mode, as (axis, species, row, column) buffers whose axis 1 holds transposed copies, so that the
# faces along rows are faces along the rows of the transposes; under periodic closure a last row repeats row 0.
def _frozen_stacked_diffusion(gs, y):
    n, linear, periodic = gs.n, gs.diffusion_mode == "linear", gs.boundary == "periodic"
    eps = np.array([gs.eps_u, gs.eps_v]).reshape(2, 1, 1)
    cells, faces = np.zeros((1 + (not linear), 2, 2, n + periodic, n)), np.zeros((2, 2, n + 1, n))
    over_h, by = (np.multiply, float(n)) if n & (n - 1) == 0 else (np.divide, gs.spacing)
    np.copyto(cells[0, 0, :, :n], y.reshape(2, n, n))
    if not linear:
        sx = np.sin(np.pi * gs.cell_centers())
        e = np.divide(cells[0, 0, :, :n], -100.0, out=cells[1, 0, :, :n])
        np.exp(e, out=e)
        np.multiply(eps, e, out=e)
        np.multiply(e, sx[:, None] * sx[None, :], out=e)
    np.copyto(cells[:, 1, :, :n], cells[:, 0, :, :n].swapaxes(-1, -2))
    if periodic:
        cells[..., n, :] = cells[..., 0, :]
    lo, hi, flux = cells[..., :-1, :], cells[..., 1:, :], faces[:, :, 1:n + periodic]
    if linear:
        np.subtract(hi[0], lo[0], out=flux)
        np.multiply(eps, flux, out=flux)
    else:
        np.add(hi[1], lo[1], out=flux)
        np.multiply(0.5, flux, out=flux)
        slope = lo[1]
        np.subtract(hi[0], lo[0], out=slope)
        np.multiply(flux, slope, out=flux)
    over_h(flux, by, out=flux)
    if periodic:
        faces[:, :, 0] = faces[:, :, n]
    div = cells[0, :, :, :n]
    np.subtract(faces[:, :, 1:], faces[:, :, :-1], out=div)
    over_h(div, by, out=div)
    out = np.empty(gs.dimension)
    np.add(div[0], div[1].swapaxes(-1, -2), out=out.reshape(2, n, n))
    return out


def _frozen_reaction(gs, y):
    u, v = gs.split(y)
    uv2 = u * v * v
    du = -uv2 + gs.feed * (1.0 - u)
    dv = uv2 - (gs.feed + gs.kill) * v
    return np.concatenate([du.ravel(), dv.ravel()])


def _frozen_operator(n, boundary):
    L = np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1)
    if boundary == "neumann":
        L -= np.diag(np.concatenate([[1.0], np.full(n - 2, 2.0), [1.0]]))
    else:
        L -= 2.0 * np.eye(n)
        L[0, -1] += 1.0
        L[-1, 0] += 1.0
    return L


def _frozen_face_cells(n, boundary):
    idx = np.arange(n * n).reshape(n, n)
    if boundary == "neumann":
        pairs = ((idx[:-1, :], idx[1:, :]), (idx[:, :-1], idx[:, 1:]))
    else:
        pairs = ((idx, np.roll(idx, -1, axis=0)), (idx, np.roll(idx, -1, axis=1)))
    return tuple(np.concatenate([p[k].ravel() for p in pairs]) for k in (0, 1))


def _frozen_dense_diffusion_jacobian(gs, y=None):
    n, n2, h = gs.n, gs.n**2, gs.spacing
    if gs.diffusion_mode == "linear":
        L, eye = _frozen_operator(n, gs.boundary), np.eye(n)
        return np.kron(np.diag([gs.eps_u, gs.eps_v]), (np.kron(L, eye) + np.kron(eye, L)) / h**2)
    u, v = gs.split(y)
    w = np.stack([u.ravel(), v.ravel()])
    e = np.stack([f.ravel() for f in _frozen_eps_fields(gs, u, v)])
    a, b = _frozen_face_cells(n, gs.boundary)
    slope, mean = w[:, b] - w[:, a], 0.5 * (e[:, a] + e[:, b])
    d_a = (-0.005 * e[:, a] * slope - mean) / h**2
    d_b = (-0.005 * e[:, b] * slope + mean) / h**2
    blocks = np.zeros((2, n2, n2))
    blocks[:, a, b] = d_b
    blocks[:, b, a] = -d_a
    for s in range(2):
        blocks[s].flat[:: n2 + 1] = np.bincount(a, d_a[s], n2) - np.bincount(b, d_b[s], n2)
    j = np.zeros((2 * n2, 2 * n2))
    j[:n2, :n2], j[n2:, n2:] = blocks
    return j


# n = 24: h = 1/24 is not a power of two, so dividing by h rounds and a reordered formula shows
@pytest.mark.parametrize("n", [8, 16, 24, 64])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_diffusion_equals_frozen_per_species_kernels(boundary, mode, n):
    gs = GrayScott(n=n, diffusion_mode=mode, boundary=boundary)
    rng = np.random.default_rng(n)
    y0 = gs.initial_condition()
    for y in [y0] + [y0 + 0.5 * rng.standard_normal(gs.dimension) for _ in range(5)]:
        assert np.array_equal(gs.diffusion(y), _frozen_diffusion(gs, y))


@pytest.mark.parametrize("n", [8, 16, 24, 64])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_diffusion_equals_frozen_stacked_kernel_bit_for_bit(boundary, mode, n):
    gs = GrayScott(n=n, diffusion_mode=mode, boundary=boundary)
    rng = np.random.default_rng(n)
    y0 = gs.initial_condition()
    signed_zeros = np.where(rng.uniform(size=gs.dimension) < 0.5, -0.0, 0.0)  # faces and differences of either sign
    states = [y0, signed_zeros, np.ones(gs.dimension) - signed_zeros] + [
        y0 + 0.5 * rng.standard_normal(gs.dimension) for _ in range(5)]
    # the 0.5 and the factors n are applied once: exact also where faces are subnormal, and up to huge states
    scaled = [scale * y for scale in (1e-310, 1e300) for y in (y0, states[-1])]
    if n == 8:  # a unit in one cell shows a face that reaches a wrong cell or loses one
        states += list(np.eye(gs.dimension))
    for y in states:
        assert np.array_equal(gs.diffusion(y).view(np.uint64), _frozen_stacked_diffusion(gs, y).view(np.uint64))
    for y in scaled:
        with np.errstate(over="ignore", invalid="ignore"):  # exp(-w/100) overflows at -1e300, in both kernels
            got, want = gs.diffusion(y), _frozen_stacked_diffusion(gs, y)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [8, 16, 24, 64])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_diffusion_operators_equal_frozen_closures(boundary, n):
    linear = GrayScott(n=n, diffusion_mode="linear", boundary=boundary)
    assert np.array_equal(linear.diffusion_jacobian().L, _frozen_operator(n, boundary))
    for cells, frozen in zip(_face_cells(n, boundary), _frozen_face_cells(n, boundary)):
        assert np.array_equal(cells, frozen)
    if n <= 24:  # the dense 2n^2 x 2n^2 matrices are 0.5 GB at n = 64
        assert np.array_equal(np.asarray(linear.diffusion_jacobian()), _frozen_dense_diffusion_jacobian(linear))
        nonlinear = GrayScott(n=n, boundary=boundary)
        y = _perturbed_state(nonlinear)
        expected = _frozen_dense_diffusion_jacobian(nonlinear, y)
        assert np.array_equal(np.asarray(nonlinear.diffusion_jacobian(y)), expected)


@pytest.mark.parametrize("n", [8, 16, 24, 64])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_reaction_equals_frozen_concatenate_formula(boundary, mode, n):
    gs = GrayScott(n=n, diffusion_mode=mode, boundary=boundary)
    rng = np.random.default_rng(n)
    y0 = gs.initial_condition()
    signed_zeros = np.where(rng.uniform(size=gs.dimension) < 0.5, -0.0, 0.0)  # u v^2 and 1 - u of either sign of 0
    for y in [y0, signed_zeros, np.ones(gs.dimension) - signed_zeros] + [
            y0 + 0.5 * rng.standard_normal(gs.dimension) for _ in range(5)]:
        assert np.array_equal(gs.reaction(y).view(np.uint64), _frozen_reaction(gs, y).view(np.uint64))


def _work_buffers(gs):
    return [getattr(gs, name) for name in ("_cells", "_faces")]


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_kernels_return_fresh_arrays(boundary, mode):
    # results outlive later calls: the engine keeps stage values and Newton's last RHS
    gs = GrayScott(n=16, diffusion_mode=mode, boundary=boundary)
    others = [GrayScott(n=8, diffusion_mode=mode, boundary=boundary),
              GrayScott(n=16, diffusion_mode="linear" if mode == "nonlinear" else "nonlinear", boundary=boundary),
              GrayScott(n=16, diffusion_mode=mode, boundary="periodic" if boundary == "neumann" else "neumann")]
    y = _perturbed_state(gs)
    for kernel in ("diffusion", "reaction"):
        first = getattr(gs, kernel)(y)
        kept = first.copy()
        assert not any(np.shares_memory(first, buf) for buf in _work_buffers(gs))
        second = getattr(gs, kernel)(1.5 - y)
        assert not np.shares_memory(first, second) and np.array_equal(first, kept)
        for other in others:
            getattr(other, kernel)(_perturbed_state(other))
            assert np.array_equal(first, kept)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_diffusion_allocates_only_its_result(boundary, mode):
    gs = GrayScott(n=64, diffusion_mode=mode, boundary=boundary)
    y = _perturbed_state(gs)
    gs.diffusion(y)
    tracemalloc.start()
    try:
        gs.diffusion(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 64 KB result and a few KB of views; the stacked kernel peaked at 133 KB (199 KB periodic)
    assert peak <= 8 * gs.dimension + 8 * 1024
    # no more than the stacked kernel's buffers, 395 KB nonlinear and 264 KB linear
    assert sum(buf.nbytes for buf in _work_buffers(gs)) <= (395_264 if mode == "nonlinear" else 264_192)


@pytest.mark.parametrize("swap", [False, True])
def test_implicit_nonlinear_diffusion_step_equals_frozen_kernels(swap):
    # the implicit partition holds diffusion, and its stage values are Newton's last residual RHS
    gs = GrayScott(n=16, swap_roles=swap)
    m = mg.registry_lookup("IM-EX 3(2)A" if swap else "EX-IM 3(2)A")
    ode = gs.to_ode()
    diffusion, reaction = (lambda y: _frozen_diffusion(gs, y)), (lambda y: _frozen_reaction(gs, y))
    frozen = PartitionedOde(gs.dimension, f_slow=reaction if swap else diffusion,
                            f_fast=diffusion if swap else reaction, jac_slow=ode.jac_slow, jac_fast=ode.jac_fast)
    y0 = _perturbed_state(gs)
    r, ref = step(m, ode, y0, 0.0, 0.02, 3), step(m, frozen, y0, 0.0, 0.02, 3)
    assert r.counters == ref.counters and r.counters.newton_iterations > 0
    for name in ("y_next", "slow_deviation", "fast_deviation"):
        assert np.array_equal(getattr(r, name), getattr(ref, name)), name


def test_gray_scott_pure_subdynamics():
    # zeroing one partition leaves exactly the other sub-dynamics
    gs = GrayScott(n=8)
    y = gs.initial_condition()
    np.testing.assert_array_equal(gs.f_slow(y), gs.diffusion(y))
    np.testing.assert_array_equal(gs.f_fast(y), gs.reaction(y))
    swapped = GrayScott(n=8, swap_roles=True)
    np.testing.assert_array_equal(swapped.f_fast(y), gs.diffusion(y))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_linear_diffusion_jacobian_symmetric_and_consistent(boundary, n):
    gs = GrayScott(n=n, diffusion_mode="linear", boundary=boundary)
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
    with pytest.raises(InvalidInput):
        DiffusionJacobian(GrayScott(n=8))


# nonlinear diffusion's block LU also runs at n = 24, where h = 1/24 is inexact, and at n = 32
@pytest.mark.parametrize("term, boundary, n", [
    (term, boundary, n)
    for term in ("reaction", "diffusion", "nonlinear-diffusion")
    for boundary in ("neumann", "periodic")
    for n in ((8, 16, 24, 32) if term == "nonlinear-diffusion" else (8, 16))])
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
    # one face with d_a = -1 and d_b = 1, and no other: at a = -1/2 the rows of its two cells in
    # I - a*J are both (1/2, 1/2), so I - a*J is exactly singular.  Along a grid row the zero pivot
    # is that row's block; across rows it is the next Schur complement; across the periodic wrap
    # it is the border row's, after the spike.
    n = 8
    for boundary in ("neumann", "periodic"):
        gs = GrayScott(n=n, boundary=boundary)
        J = gs.diffusion_jacobian(_perturbed_state(gs))
        line = n if boundary == "periodic" else n - 1
        faces = [3 * n + 2, line * n + 2 * line + 5]  # rows 3|4 at column 2; row 2, columns 5|6
        if boundary == "periodic":
            faces += [(n - 1) * n + 4, line * n + 2 * line + n - 1]  # rows 7|0; row 2, columns 7|0
        for face in faces:
            J.d_a, J.d_b = np.zeros_like(J.d_a), np.zeros_like(J.d_b)
            J.d_a[1, face], J.d_b[1, face] = -1.0, 1.0
            # the dense solve finds the same system singular
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(np.eye(2 * n * n) + 0.5 * np.asarray(J), np.ones(2 * n * n))
            with pytest.raises(NewtonDivergence):
                J.shifted_solver(-0.5)


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_nonlinear_diffusion_shifted_solve_memory_at_64(boundary):
    # the dense pair of n^2 x n^2 blocks would be 268 MB at n = 64; the block LU keeps O(n^3)
    gs = GrayScott(n=64, boundary=boundary)
    y, r = _perturbed_state(gs), np.ones(gs.dimension)
    tracemalloc.start()
    try:
        J = gs.diffusion_jacobian(y)
        x = J.shifted_solver(0.01)(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(x).all()
    assert peak < 32 * 2**20


def test_implicit_nonlinear_diffusion_step_at_64():
    gs = GrayScott(n=64)
    r = step(mg.registry_lookup("EX-IM 3(2)A"), gs.to_ode(), gs.initial_condition(), 0.0, 0.02, 4)
    # step raises NewtonDivergence unless every implicit stage converged
    assert np.isfinite(r.y_next).all()
    assert r.counters.jacobians >= 1 and r.counters.newton_iterations > 0


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
    (GrayScott, {"eps_u": -0.0625}),  # anti-diffusion is ill-posed
    (GrayScott, {"eps_v": -1e-300}),
])
def test_problem_parameters_are_checked_at_construction(cls, params):
    with pytest.raises(InvalidInput):
        cls(**params)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_gray_scott_allows_zero_diffusivity(mode):
    gs = GrayScott(n=8, eps_u=0.0, eps_v=0.0, diffusion_mode=mode)
    assert not gs.diffusion(_perturbed_state(gs)).any()
