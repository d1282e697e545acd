"""Scalar linear stability of multirate methods.

Applied to y' = lambda_f*y + lambda_s*y the method propagates
y_{n+1} = R(z_f, z_s) * y_n with z = H*lambda; in assembled form

    R = 1 + b^T Z (I - A Z)^{-1} 1,

where Z carries z_f on the M*s_f fast stages and z_s on the slow ones.
R is evaluated as what it is, one macro-step with H = 1 from y = 1: the
stages of :func:`stepping.step`'s plan are walked for a whole block of cells
at once, an implicit stage becoming a division by 1 - a*gamma*z.  This costs
O(M) array operations per block, where a dense solve of I - A Z costs
O((M*s_f + s_s)^3) per cell and loses accuracy where |R| is large.  It needs
only (method, M), so :func:`scan_region` assembles no tableau;
:func:`stability_value` reads just these of the tableau it is given.  A cell
is NaN only where 1 - a*gamma*z = 0 or R is not finite.
Regions are scanned in the (theta_f, theta_s, rho) parameterization
z_f = M*rho*exp(-i*theta_f), z_s = rho*exp(-i*theta_s) with both angles in
[pi/2, 3*pi/2], so the fast eigenvalue is M times the slow one in magnitude,
matching the step-size ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import GarkMatrix
from .errors import SingularResolvent, check_complex, check_count, check_real, check_type
from .stepping import _step_plan
from .tableaux import MrGarkMethod

__all__ = ["RegionGrid", "stability_value", "scan_region"]

#: cells with |R| below this are counted as stable in RegionGrid.stable
STABLE_TOL = 1e-12
#: cells evaluated together: enough to spread the Python work per stage, few
#: enough that a block's stage values stay in cache
CELLS_PER_BLOCK = 8192


def _stability_values(method: MrGarkMethod, M: int, z_f: np.ndarray, z_s: np.ndarray) -> np.ndarray:
    """R at each cell (z_f[...], z_s[...]) of two equal-shape arrays, a block of cells at a time.

    NaN where 1 - a*gamma*z = 0 or R is not finite, without a floating-point warning.
    """
    shape = np.shape(z_f)
    z_f, z_s = (np.asarray(z, dtype=complex).ravel() for z in (z_f, z_s))
    out = np.empty_like(z_f)
    for start in range(0, z_f.size, CELLS_PER_BLOCK):
        block = slice(start, start + CELLS_PER_BLOCK)
        out[block] = _recurrence(method, M, z_f[block], z_s[block])
    return out.reshape(shape)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _recurrence(method: MrGarkMethod, M: int, z_f: np.ndarray, z_s: np.ndarray) -> np.ndarray:
    """R at each cell of two 1-D arrays: one macro-step of y' = z_f*y + z_s*y with H = 1 from y = 1.

    The stages run in the order and with the coefficients of the step plan.
    Stage values are held with real and imaginary parts interleaved, so a
    stage input, a slow-stage sum and a weighted sum are sums of real
    multiples over the nonzero coefficients in index order; with the complex
    product z*Y and the implicit division also elementwise, a cell has the
    same bits in any batch.
    """
    plan = _step_plan(method, M)
    s_f, s_s = method.stage_counts
    h = 1.0 / M
    # per partition: z and, if implicit, the divisor 1 - a*gamma*z with a = H = 1 slow, h fast
    parts = [(z, 1.0 - a * base.gamma * z if base.is_implicit else None)
             for z, base, a in ((z_s, method.slow, 1.0), (z_f, method.fast, h))]
    one = np.ones_like(z_f).view(float)
    # stage right-hand sides z*Y: the slow stages, then the fast stages of the current micro-step
    K = np.zeros((s_s + s_f, one.size))
    sf_acc = np.zeros((s_s, one.size))  # per slow stage, its h * A^{sf} terms of the micro-steps folded so far

    def combine(y, coefficients, rows):
        """y plus the sum of a * rows[k] over the nonzero a, in index order (y is updated in place)."""
        for k, a in enumerate(coefficients.tolist()):
            if a:
                y += a * rows[k]
        return y

    def evaluate(y, part):
        z, divisor = parts[part]
        Y = y.view(complex) if divisor is None else y.view(complex) / divisor
        return (z * Y).view(float)

    scale = np.repeat([1.0, h], (s_s, s_f))
    coef, slow_coef = plan.rows[..., 3:] * scale, plan.slow_rows[:, 3:] * scale

    def compute_slow(j):
        K[j] = evaluate(combine(one + sf_acc[j], slow_coef[j], K), 0)

    ytilde, acc = one, np.zeros_like(one)  # acc: the b_f-weighted fast stages over micro-steps
    for rows, before, sf, fold in zip(coef, plan.before, h * plan.sf, plan.folds):
        for i, row in enumerate(rows):
            for j in before[i]:
                compute_slow(j)
            K[s_s + i] = evaluate(combine(ytilde.copy(), row, K), 1)
        for j in range(fold, s_s):  # fold this micro-step into the sums of the slow stages computed later
            combine(sf_acc[j], sf[j], K[s_s:])
        increment = combine(np.zeros_like(one), plan.fast_weights[0], K[s_s:])
        acc += increment
        ytilde = ytilde + h * increment
    for j in plan.trailing:
        compute_slow(j)
    R = combine(one + h * acc, plan.slow_weights[0], K).view(complex)
    singular = ~np.isfinite(R)
    for _, divisor in parts:
        if divisor is not None:
            singular |= divisor == 0
    R[singular] = np.nan
    return R


def stability_value(g: GarkMatrix, z_f: complex, z_s: complex) -> complex:
    """R(z_f, z_s) by the stage recurrence; SingularResolvent where 1 - a*gamma*z = 0 or R is not finite."""
    check_type(g, "g", GarkMatrix)
    check_complex(z_f, "z_f")
    check_complex(z_s, "z_s")
    r = _stability_values(g.method, g.M, np.full(1, z_f, dtype=complex), np.full(1, z_s, dtype=complex))[0]
    if np.isnan(r):
        raise SingularResolvent(f"singular resolvent or non-finite R at z_f={z_f}, z_s={z_s}")
    return complex(r)


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """|R| sampled on the (theta_f, theta_s, rho) grid."""

    theta_f: np.ndarray
    theta_s: np.ndarray
    rho: np.ndarray
    values: np.ndarray  # (n_theta, n_theta, n_rho), NaN where 1 - a*gamma*z = 0 or R is not finite

    @property
    def stable(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.values <= 1.0 + STABLE_TOL

    def write_csv(self, path) -> None:
        """One row per cell, fields formatted ``.12g`` (NaN as ``nan``), rows ended by CRLF.

        The rows of one theta_f plane are one ``%``-template, ``"\\0,{theta_s},{rho},%.12g\\r\\n"``
        per (theta_s, rho), built once; each plane puts its theta_f in place of the NUL
        sentinel with one ``str.replace`` and formats its |R| with one ``template % values``
        (``%.12g`` gives the text of ``f"{v:.12g}"``, ``nan``, ``inf`` and ``-0`` included).
        """
        theta_f, theta_s, rho = ([f"{x:.12g}" for x in a.tolist()] for a in (self.theta_f, self.theta_s, self.rho))
        template = "".join([f"\0,{ts},{r},%.12g\r\n" for ts in theta_s for r in rho])
        with open(path, "w", newline="") as fh:
            fh.write("theta_f,theta_s,rho,absR\r\n")
            for tf, values in zip(theta_f, self.values.reshape(len(theta_f), -1)):
                fh.write(template.replace("\0", tf) % tuple(values.tolist()))


def scan_region(
    method: MrGarkMethod,
    M: int,
    rho_max: float = 6.0,
    n_theta: int = 65,
    n_rho: int = 129,
) -> RegionGrid:
    """|R| of ``method`` at ratio ``M`` over the angular box; NaN where 1 - a*gamma*z = 0 or R is not finite."""
    check_type(method, "method", MrGarkMethod)
    M = check_count(M)
    n_theta, n_rho = check_count(n_theta, "n_theta", 2), check_count(n_rho, "n_rho", 2)
    check_real(rho_max, "rho_max", positive=True)
    theta = np.linspace(np.pi / 2, 3 * np.pi / 2, n_theta)
    rho = np.linspace(0.0, rho_max, n_rho)
    # one scalar exp per angle, so a cell's z is bit-equal to M * rho * np.exp(-1j * theta_f)
    turns = [np.exp(-1j * t) for t in theta]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing M*rho gives non-finite z: NaN cells
        z_f = np.array([M * rho * e for e in turns])
        z_s = np.array([rho * e for e in turns])
    # row (i, j) holds the rho line at theta_f[i], theta_s[j]
    R = _stability_values(method, M, np.repeat(z_f, n_theta, axis=0), np.tile(z_s, (n_theta, 1)))
    values = np.abs(R).reshape(n_theta, n_theta, n_rho)
    return RegionGrid(theta_f=theta, theta_s=theta, rho=rho, values=values)
