import csv

import numpy as np
import pytest

import mrgark as mg
from mrgark.errors import InvalidInput, SingularResolvent
from mrgark.stability import _stability_values, scan_region, stability_value


def base_polynomial(tab, z):
    """Independent scalar evaluation of an explicit method's stability polynomial.

    R(z) = 1 + sum_k z^k * b^T A^(k-1) 1, a finite sum for nilpotent A.
    """
    term = np.ones(tab.stage_count)
    val = 1.0 + 0j
    zk = 1.0 + 0j
    for _ in range(tab.stage_count):
        zk = zk * z
        val += zk * float(tab.b @ term)
        term = tab.A @ term
    return val


def sample_z(n=100, radius=5.0, seed=12345):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            out.append(z)
    return out


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 2, 5])
def test_r_at_origin_is_one(name, M):
    g = mg.assemble(mg.registry_lookup(name), M)
    assert abs(stability_value(g, 0.0, 0.0) - 1.0) < 1e-14


@pytest.mark.parametrize("M", [1, 2, 4])
def test_zero_fast_argument_leaves_slow_polynomial(M):
    # with z_f = 0 only the slow base method acts: R = 1 + z + z^2/2 for the
    # two-stage second-order base
    m = mg.registry_lookup("EX-EX 2(1)A")
    g = mg.assemble(m, M)
    for z in (-0.5, -1.0 + 0.3j, 0.2 + 1.1j):
        expected = 1 + z + z * z / 2
        assert stability_value(g, 0.0, z) == pytest.approx(expected, abs=1e-13)


def test_symmetric_fast_case_at_m1():
    m = mg.registry_lookup("EX-EX 2(1)A")
    g = mg.assemble(m, 1)
    for z in (-0.5, -1.5 + 0.2j):
        assert stability_value(g, z, 0.0) == pytest.approx(1 + z + z * z / 2, abs=1e-13)


@pytest.mark.parametrize("name", [n for n in mg.METHOD_NAMES if n.startswith("EX-EX")])
def test_telescopic_m1_matches_base_polynomial(name):
    # at M = 1 a telescopic pair collapses to its base scheme applied to the
    # summed right-hand side: R(z/2, z/2) equals the base polynomial at z
    m = mg.registry_lookup(name)
    g = mg.assemble(m, 1)
    worst = 0.0
    for z in sample_z():
        r = stability_value(g, z / 2, z / 2)
        worst = max(worst, abs(r - base_polynomial(m.fast, z)))
    assert worst < 1e-12


@pytest.mark.parametrize("name", [n for n in mg.METHOD_NAMES if n.startswith(("EX-IM", "IM-EX"))])
@pytest.mark.parametrize("M", [1, 2, 4])
def test_stiff_decay_on_implicit_partition(name, M):
    g = mg.assemble(mg.registry_lookup(name), M)
    if name.startswith("IM-EX"):
        r = stability_value(g, -1e8, 0.0)
    else:
        r = stability_value(g, 0.0, -1e8)
    assert abs(r) < 1.0


def test_continuity_near_origin():
    g = mg.assemble(mg.registry_lookup("IM-EX 3(2)A"), 2)
    r0 = stability_value(g, -1e-8, 1e-8j)
    assert abs(r0 - 1.0) < 1e-6


def test_scan_region_rho_zero_plane_is_one():
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 2)
    grid = scan_region(g, rho_max=2.0, n_theta=5, n_rho=6)
    assert np.max(np.abs(grid.values[:, :, 0] - 1.0)) < 1e-13


def test_scan_region_against_scalar_oracle():
    m = mg.registry_lookup("EX-EX 2(1)A")
    g = mg.assemble(m, 1)
    grid = scan_region(g, rho_max=2.0, n_theta=5, n_rho=9)
    # negative real axis: theta_f = theta_s = pi is the middle angle sample
    i = 2
    assert grid.theta_f[i] == pytest.approx(np.pi)
    for k, rho in enumerate(grid.rho):
        z = -rho  # z_f = z_s = -rho at M = 1
        expected = abs(base_polynomial(m.fast, 2 * z))
        assert grid.values[i, i, k] == pytest.approx(expected, abs=1e-12)
    # the second-order polynomial leaves |R| <= 1 exactly up to rho = 1
    stable = grid.stable[i, i]
    assert stable[grid.rho <= 1.0].all()
    assert not stable[grid.rho > 1.0].any()


def test_type_s_real_axis_stability_shrinks_with_m():
    # the real-axis stability reach of the type-S pair does not grow from
    # M = 2 to M = 4 (the plotted regions shrink as M increases)
    m = mg.registry_lookup("EX-EX 2(1)S")

    def rho_max_on_real_axis(M):
        g = mg.assemble(m, M)
        rhos = np.linspace(0.0, 4.0, 161)
        reach = 0.0
        for rho in rhos:
            r = abs(stability_value(g, -M * rho, -rho))
            if r <= 1.0 + 1e-12:
                reach = rho
            else:
                break
        return reach

    r2, r4 = rho_max_on_real_axis(2), rho_max_on_real_axis(4)
    assert r2 > 0.0 and r4 > 0.0
    assert r4 <= r2 + 1e-12


def test_scan_region_validates_grid():
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 1)
    with pytest.raises(ValueError):
        scan_region(g, n_theta=1)
    for bad in (dict(n_theta=2.5), dict(n_rho=2.5), dict(n_theta=True), dict(n_rho="3")):
        with pytest.raises(InvalidInput):
            scan_region(g, **bad)


def test_region_csv_round_trip(tmp_path):
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)S"), 2)
    grid = scan_region(g, rho_max=1.0, n_theta=3, n_rho=3)
    path = tmp_path / "region.csv"
    grid.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta_f,theta_s,rho,absR"
    assert len(lines) == 1 + 3 * 3 * 3


def test_region_csv_matches_csv_writer_bytes(tmp_path):
    # reference: csv.writer rows of four .12g fields, special values included
    grid = scan_region(mg.assemble(mg.registry_lookup("EX-EX 3(2)3s-A"), 3), rho_max=4.0, n_theta=4, n_rho=5)
    values = grid.values.copy()
    values[0, 1, 2], values[1, 0, 3], values[2, 2, 0], values[3, 3, 4] = np.nan, np.inf, -0.0, 1e-320
    grid = mg.RegionGrid(grid.theta_f, grid.theta_s, grid.rho, values)
    grid.write_csv(tmp_path / "fast.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta_f", "theta_s", "rho", "absR"])
        for i, j, k in np.ndindex(values.shape):
            w.writerow([f"{x:.12g}" for x in (grid.theta_f[i], grid.theta_s[j], grid.rho[k], values[i, j, k])])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_singular_resolvent_raises():
    # z chosen so that 1 - a_ii * z = 0 for an SDIRK diagonal entry
    m = mg.registry_lookup("IM-EX 2(1)A")
    g = mg.assemble(m, 1)
    gamma = m.fast.gamma
    with pytest.raises(SingularResolvent):
        stability_value(g, 1.0 / (gamma / 1), 0.0)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 3, 16])
def test_scan_cells_equal_stability_value(name, M):
    # the scan and the single-cell evaluation share one evaluator: equal bit for bit
    g = mg.assemble(mg.registry_lookup(name), M)
    grid = scan_region(g, n_theta=5, n_rho=7)
    for i, tf in enumerate(grid.theta_f):
        for j, ts in enumerate(grid.theta_s):
            z_f = g.M * grid.rho * np.exp(-1j * tf)
            z_s = grid.rho * np.exp(-1j * ts)
            for k in range(len(grid.rho)):
                try:
                    expected = np.abs(stability_value(g, complex(z_f[k]), complex(z_s[k])))
                except SingularResolvent:
                    expected = np.nan
                assert grid.values[i, j, k] == expected or np.isnan(grid.values[i, j, k]) and np.isnan(expected)


def test_singular_cell_is_nan_and_leaves_its_row_exact():
    # 1 - gamma * z_f = 0 makes the batch solve of the row fail; the row is re-solved cell by cell
    m = mg.registry_lookup("IM-EX 2(1)A")
    g = mg.assemble(m, 1)
    z_f = np.array([[-1.0, 1.0 / m.fast.gamma, 0.5 + 0.5j, -3j]])
    z_s = np.array([[-0.5, 0.2, -1j, -2.0 + 0j]])
    row = _stability_values(g, z_f, z_s)[0]
    assert np.isnan(row[1])
    for k in (0, 2, 3):
        assert row[k] == stability_value(g, complex(z_f[0, k]), complex(z_s[0, k]))
