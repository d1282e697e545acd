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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .assembly import GarkMatrix
from .errors import InvalidInput, SingularResolvent

__all__ = ["RegionGrid", "stability_value", "scan_region"]

#: cells with |R| below this are counted as stable in RegionGrid.stable
STABLE_TOL = 1e-12


def _z_diagonal(g: GarkMatrix, z_f: complex, z_s: complex) -> np.ndarray:
    z = np.empty(g.stage_count, dtype=complex)
    z[: g.M * g.s_f] = z_f
    z[g.M * g.s_f:] = z_s
    return z


def stability_value(g: GarkMatrix, z_f: complex, z_s: complex) -> complex:
    """Evaluate R(z_f, z_s) via one dense complex solve of size s."""
    z = _z_diagonal(g, z_f, z_s)
    lhs = np.eye(g.stage_count, dtype=complex) - g.A * z[np.newaxis, :]
    try:
        x = np.linalg.solve(lhs, np.ones(g.stage_count, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from None
    r = 1.0 + (g.b * z) @ x
    if not np.isfinite(r.real) or not np.isfinite(r.imag):
        raise SingularResolvent(f"non-finite stability value at z_f={z_f}, z_s={z_s}")
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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_f", "theta_s", "rho", "absR"])
            for i, tf in enumerate(self.theta_f):
                for j, ts in enumerate(self.theta_s):
                    for k, r in enumerate(self.rho):
                        w.writerow([f"{tf:.12g}", f"{ts:.12g}", f"{r:.12g}",
                                    f"{self.values[i, j, k]:.12g}"])


def scan_region(
    g: GarkMatrix,
    rho_max: float = 6.0,
    n_theta: int = 65,
    n_rho: int = 129,
) -> RegionGrid:
    """Scan |R| over the angular box; singular cells become NaN."""
    if n_theta < 2 or n_rho < 2:
        raise InvalidInput("need at least 2 samples per axis")
    if not 0 < rho_max < math.inf:
        raise InvalidInput(f"rho_max must be finite and > 0, got {rho_max!r}")
    theta = np.linspace(np.pi / 2, 3 * np.pi / 2, n_theta)
    rho = np.linspace(0.0, rho_max, n_rho)
    s = g.stage_count
    eye = np.eye(s, dtype=complex)
    ones = np.ones(s, dtype=complex)
    values = np.empty((n_theta, n_theta, n_rho))

    for i, tf in enumerate(theta):
        for j, ts in enumerate(theta):
            zf = g.M * rho * np.exp(-1j * tf)
            zs = rho * np.exp(-1j * ts)
            z = np.empty((n_rho, s), dtype=complex)
            z[:, : g.M * g.s_f] = zf[:, None]
            z[:, g.M * g.s_f:] = zs[:, None]
            lhs = eye[None, :, :] - g.A[None, :, :] * z[:, None, :]
            try:
                x = np.linalg.solve(lhs, np.tile(ones, (n_rho, 1))[:, :, None])[:, :, 0]
                r = 1.0 + np.einsum("ks,ks->k", g.b[None, :] * z, x)
                col = np.abs(r)
                col[~np.isfinite(col)] = np.nan
            except np.linalg.LinAlgError:
                # batch solve failed somewhere; fall back cell by cell
                col = np.empty(n_rho)
                for k in range(n_rho):
                    try:
                        col[k] = abs(stability_value(g, complex(zf[k]), complex(zs[k])))
                    except SingularResolvent:
                        col[k] = np.nan
            values[i, j, :] = col

    return RegionGrid(theta_f=theta, theta_s=theta, rho=rho, values=values)
