"""Scalar linear stability of assembled multirate methods.

Applied to y' = lambda_f*y + lambda_s*y the assembled method propagates
y_{n+1} = R(z_f, z_s) * y_n with z = H*lambda and

    R = 1 + b^T Z (I - A Z)^{-1} 1,

where Z carries z_f on the M*s_f fast stages and z_s on the slow ones.
Regions are scanned in the (theta_f, theta_s, rho) parameterization
z_f = M*rho*exp(-i*theta_f), z_s = rho*exp(-i*theta_s) with both angles in
[pi/2, 3*pi/2], so the fast eigenvalue is M times the slow one in magnitude,
matching the step-size ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import GarkMatrix
from .errors import SingularResolvent, check_complex, check_count, check_real

__all__ = ["RegionGrid", "stability_value", "scan_region"]

#: cells with |R| below this are counted as stable in RegionGrid.stable
STABLE_TOL = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def _stability_values(g: GarkMatrix, z_f: np.ndarray, z_s: np.ndarray) -> np.ndarray:
    """R at each (z_f[i, k], z_s[i, k]), one batched dense solve of size s per row i.

    NaN where the resolvent is singular or R is not finite, without a
    floating-point warning.  A row whose batch solve fails is re-solved cell
    by cell.
    """
    n_fast = g.M * g.s_f
    eye = np.eye(g.stage_count, dtype=complex)
    ones = np.ones((z_f.shape[1], g.stage_count, 1), dtype=complex)
    out = np.empty(z_f.shape, dtype=complex)
    for i in range(z_f.shape[0]):
        z = np.empty((z_f.shape[1], g.stage_count), dtype=complex)
        z[:, :n_fast] = z_f[i, :, None]
        z[:, n_fast:] = z_s[i, :, None]
        lhs = eye - g.A * z[:, None, :]
        try:
            x = np.linalg.solve(lhs, ones)
        except np.linalg.LinAlgError:
            x = np.full_like(ones, np.nan)
            for k, cell in enumerate(lhs):
                try:
                    x[k] = np.linalg.solve(cell, ones[k])
                except np.linalg.LinAlgError:
                    pass
        out[i] = 1.0 + ((g.b * z)[:, None, :] @ x)[:, 0, 0]
    out[~np.isfinite(out)] = np.nan
    return out


def stability_value(g: GarkMatrix, z_f: complex, z_s: complex) -> complex:
    """R(z_f, z_s) by one dense complex solve of size s; SingularResolvent if singular or not finite."""
    check_complex(z_f, "z_f")
    check_complex(z_s, "z_s")
    r = _stability_values(g, np.full((1, 1), z_f, dtype=complex), np.full((1, 1), z_s, dtype=complex))[0, 0]
    if np.isnan(r):
        raise SingularResolvent(f"singular resolvent or non-finite R at z_f={z_f}, z_s={z_s}")
    return complex(r)


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """|R| sampled on the (theta_f, theta_s, rho) grid."""

    theta_f: np.ndarray
    theta_s: np.ndarray
    rho: np.ndarray
    values: np.ndarray  # (n_theta, n_theta, n_rho), NaN where the resolvent is singular

    @property
    def stable(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.values <= 1.0 + STABLE_TOL

    def write_csv(self, path) -> None:
        """One row per cell, fields formatted ``.12g`` (NaN as ``nan``), rows ended by CRLF."""
        theta_f, theta_s, rho = ([f"{x:.12g}" for x in a.tolist()] for a in (self.theta_f, self.theta_s, self.rho))
        with open(path, "w", newline="") as fh:
            fh.write("theta_f,theta_s,rho,absR\r\n")
            for i, tf in enumerate(theta_f):
                for j, ts in enumerate(theta_s):
                    prefix = f"{tf},{ts},"
                    fh.write("".join([f"{prefix}{r},{v:.12g}\r\n" for r, v in zip(rho, self.values[i, j].tolist())]))


def scan_region(
    g: GarkMatrix,
    rho_max: float = 6.0,
    n_theta: int = 65,
    n_rho: int = 129,
) -> RegionGrid:
    """Scan |R| over the angular box; singular cells become NaN."""
    n_theta, n_rho = check_count(n_theta, "n_theta", 2), check_count(n_rho, "n_rho", 2)
    check_real(rho_max, "rho_max", positive=True)
    theta = np.linspace(np.pi / 2, 3 * np.pi / 2, n_theta)
    rho = np.linspace(0.0, rho_max, n_rho)
    # one scalar exp per angle, so a cell's z is bit-equal to g.M * rho * np.exp(-1j * theta_f)
    turns = [np.exp(-1j * t) for t in theta]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing M*rho gives non-finite z: NaN cells
        z_f = np.array([g.M * rho * e for e in turns])
        z_s = np.array([rho * e for e in turns])
    # row (i, j) holds the rho line at theta_f[i], theta_s[j]
    R = _stability_values(g, np.repeat(z_f, n_theta, axis=0), np.tile(z_s, (n_theta, 1)))
    values = np.abs(R).reshape(n_theta, n_theta, n_rho)
    return RegionGrid(theta_f=theta, theta_s=theta, rho=rho, values=values)
