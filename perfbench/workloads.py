"""The four benchmark workloads: seeded job lists, warm-up and correctness oracles.

Each workload is a closed loop of jobs run one after another.  A job's
``run`` is the timed call into the library (a ``drive``, a run of ``step``
calls, or an in-process CLI command); its ``check`` runs afterwards, outside
the timed region, and compares the result with an oracle the benchmark owns.

The seed sets problem parameters, tolerances, initial-condition perturbations
(picked from a fixed pool, so fine-step references can be cached) and the job
order.  Parameters are drawn around a fixed plan of job kinds, so different
seeds give job lists of nearly the same cost and accuracy: the spread of the
end-to-end figures across seeds stays small.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mrgark import adaptivity, cli, stepping
from mrgark.adaptivity import ControllerConfig
from mrgark.assembly import assemble
from mrgark.errors import SingularResolvent
from mrgark.order import CLASSIFY_TOL
from mrgark.problems import CoupledNonlinearScalar, GrayScott, LinearTwoRate
from mrgark.schemes import METHOD_NAMES, registry_lookup
from mrgark.stability import stability_value
from mrgark.stepping import PartitionedOde

from spans import SpanRecorder, span_wrap

#: how far the true local error of an accepted step may exceed one tolerance.
#: Embedded estimates are asymptotic; the other pairs' true errors stay at
#: 0.01-0.1x their estimates, but EX-EX 3(2)4s-A at M=6..10 accepts steps whose
#: true error is 2-9x the tolerance (estimates 15-60x too small).  The slack
#: keeps that known inaccuracy from failing runs; it shows in the error ratios.
ESTIMATOR_SLACK = 20.0
#: step(LinearTwoRate) against the stability function
STEP_VS_R_TOL = 1e-13
#: sampled stability cells against the dense oracle
CELL_TOL = 1e-12
#: stability cells sampled per CLI job
CELLS_SAMPLED = 24


@dataclass
class CheckResult:
    ok: bool
    err_ratio: float | None = None  # error / allowed error; None where no numeric result
    rhs_evals: int = 0
    message: str = ""
    bytes_written: int = 0
    drive: bool = False  # an adaptive drive, whose accuracy the controller sets


@dataclass
class Job:
    label: str
    run: Callable[[SpanRecorder | None], Any]  # recorder when tracing -> outcome (timed)
    check: Callable[[Any], CheckResult]  # outcome -> verdict (untimed)


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Callable[[], None]
    prepare: Callable[[Path], None] = lambda cache_dir: None  # builds oracle data
    cleanup: Callable[[], None] = lambda: None


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed, int(hashlib.sha256(salt.encode()).hexdigest()[:8], 16)])


#: seeded tolerances vary by up to this many decades around their plan values.
#: The cost of a low-order drive goes as tol^(-1/2) or faster, so a wider range
#: lets the seed, not the program, set the spread of the slowest jobs' times
TOL_JITTER = 0.05
#: seeded problem parameters vary by up to this many decades: adaptive runs
#: answer chaotically to the problem (the controller's M sequence changes), so
#: a wider range makes the seed, not the program, dominate the error figures
PARAM_JITTER = 0.05


def _jitter(rng: np.random.Generator, value: float, decades: float = TOL_JITTER) -> float:
    return float(value * 10.0 ** rng.uniform(-decades, decades))


class Counter:
    """Counts calls of an RHS callable."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return self.fn(y)


def counted_ode(base: PartitionedOde, rec: SpanRecorder | None) -> tuple[PartitionedOde, tuple[Counter, Counter]]:
    """Copy of ``base`` whose RHS callables count calls and, when tracing, open spans."""
    slow, fast = Counter(base.f_slow), Counter(base.f_fast)
    f_slow, f_fast, jac_slow, jac_fast = slow, fast, base.jac_slow, base.jac_fast
    if rec is not None:
        f_slow = span_wrap(rec, "problems.rhs_slow", f_slow)
        f_fast = span_wrap(rec, "problems.rhs_fast", f_fast)
        if jac_slow is not None:
            jac_slow = span_wrap(rec, "problems.jac", jac_slow)
        if jac_fast is not None:
            jac_fast = span_wrap(rec, "problems.jac", jac_fast)
    ode = PartitionedOde(base.dimension, f_slow=f_slow, f_fast=f_fast,
                         jac_slow=jac_slow, jac_fast=jac_fast)
    return ode, (slow, fast)


def _order(rng: np.random.Generator, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _drive_verdict(out, counters, t_end: float, tol: float, ys, y_ref) -> CheckResult:
    """Shared drive oracle: lands on t_end, accepted steps within tolerance, global error.

    The global error is the worst scaled RMS deviation of the output rows
    ``ys`` from the reference rows ``y_ref``.  Each accepted step may add about one tolerance
    of local error, and on these contractive problems committed errors do not
    grow, so the run's allowance is ESTIMATOR_SLACK x (accepted steps) x
    tolerance.
    """
    rhs = counters[0].calls + counters[1].calls
    if abs(out.ts[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        return CheckResult(False, math.inf, rhs, f"stopped at t={out.ts[-1]!r}, not {t_end!r}")
    worst = max((r.eps_total for r in out.state.trace if r.accepted), default=0.0)
    if worst > 1.0:
        return CheckResult(False, math.inf, rhs, f"accepted a step with eps_total={worst:.3g}")
    scale = tol + tol * np.abs(y_ref)
    err = float(np.max(np.sqrt(np.mean(((ys - y_ref) / scale) ** 2, axis=1))))
    ratio = err / (ESTIMATOR_SLACK * out.state.accepted)
    return CheckResult(bool(ratio <= 1.0), ratio, rhs,
                       "" if ratio <= 1.0 else f"global error {err:.3g} x tol after {out.state.accepted} steps",
                       drive=True)


# ---------------------------------------------------------------------------
# fine-step references (the benchmark's own integrator, not the library's)
# ---------------------------------------------------------------------------

def rk4(f: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, t_end: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order Runge-Kutta with a fixed step."""
    y = np.array(y0, dtype=float)
    h = t_end / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class DenseReference:
    """Fine RK4 grid of y' = f(y) for many scalar initial values at once.

    Values between grid points come from cubic Hermite interpolation, whose
    error (O(h^4)) is far below the tolerances checked against it.
    """

    def __init__(self, f, y0s, t_end: float, n_steps: int):
        self.h = t_end / n_steps
        grid = [np.array(y0s, dtype=float)]
        for _ in range(n_steps):
            grid.append(rk4(f, grid[-1], self.h, 1))
        self.ys = np.array(grid)  # (n_steps + 1, len(y0s))
        self.fs = f(self.ys)

    def __call__(self, column: int, ts: np.ndarray) -> np.ndarray:
        pos = np.asarray(ts) / self.h
        idx = np.minimum(pos.astype(int), self.ys.shape[0] - 2)
        s = pos - idx
        y0, y1 = self.ys[idx, column], self.ys[idx + 1, column]
        f0, f1 = self.fs[idx, column] * self.h, self.fs[idx + 1, column] * self.h
        return ((2 * s**3 - 3 * s**2 + 1) * y0 + (s**3 - 2 * s**2 + s) * f0
                + (-2 * s**3 + 3 * s**2) * y1 + (s**3 - s**2) * f1)


def gs_ic_pool(n: int, size: int) -> list[np.ndarray]:
    """Fixed pool of perturbed Gray-Scott initial conditions (pool seed 0).

    Each variant adds a few smooth cosine modes (zero normal derivative at the
    walls) of amplitude ~1e-2 to the standard seed-square state.
    """
    base = GrayScott(n=n).initial_condition()
    x = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(0)
    pool = []
    for _ in range(size):
        field = np.zeros((2, n, n))
        for comp in range(2):
            for _ in range(3):
                p, q = rng.integers(1, 5, size=2)
                field[comp] += rng.uniform(-1.0, 1.0) * np.outer(np.cos(np.pi * p * x), np.cos(np.pi * q * x))
        y0 = base + 0.01 / 3.0 * field.reshape(-1)
        pool.append(np.clip(y0, 0.0, None))
    return pool


def _cached_reference(cache_dir: Path, key: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"ref-{hashlib.sha256(key.encode()).hexdigest()[:20]}.npy"
    if path.exists():
        return np.load(path)
    value = compute()
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npy")
    np.save(tmp, value)
    tmp.replace(path)
    return value


# ---------------------------------------------------------------------------
# scalar-adaptive
# ---------------------------------------------------------------------------

SCALAR_STRATEGIES = ("balancing", "efficiency", "classic-h")
#: tolerance pair by min(order, embedded order + 1): 1e-4..1e-7 overall, and no
#: 1e-7 drives of pairs whose error estimate is second order or lower
SCALAR_TOLS = {2: (1e-4, 1e-5), 3: (1e-5, 1e-6), 4: (1e-6, 1e-7)}
SCALAR_COST_RATIO = 5.0
SCALAR_REF_STEPS = 8000


def _scalar_job(method_name, strategy, problem, tol, t_end, y_ref) -> Job:
    method = registry_lookup(method_name)
    base = problem.to_ode()
    y0 = problem.initial_condition()
    cfg = ControllerConfig(
        strategy=strategy, abs_tol=tol, rel_tol=tol,
        synthetic_cost_ratio=SCALAR_COST_RATIO if strategy == "efficiency" else None,
    )

    def run(rec):
        ode, counters = counted_ode(base, rec)
        return adaptivity.drive(method, ode, y0, 0.0, t_end, cfg, 0.2 * t_end, 2), counters

    def check(outcome):
        out, counters = outcome
        verdict = _drive_verdict(out, counters, t_end, tol, out.ys, y_ref(out.ts).reshape(-1, 1))
        if verdict.ok and isinstance(problem, LinearTwoRate):
            last = [r for r in out.state.trace if r.accepted][-1]
            one = stepping.step(method, base, np.array([1.0]), 0.0, last.H, last.M).y_next[0]
            r = stability_value(assemble(method, last.M), last.H * problem.lambda_fast,
                                last.H * problem.lambda_slow)
            if abs(one - r) > STEP_VS_R_TOL:
                return CheckResult(False, verdict.err_ratio, verdict.rhs_evals,
                                   f"step vs R(z_f, z_s) differ by {abs(one - r):.3g}")
        return verdict

    label = f"drive {method_name} {strategy} {type(problem).__name__} tol={tol:.2e}"
    return Job(label, run, check)


def scalar_adaptive(seed: int, tiny: bool = False) -> Workload:
    rng = _rng(seed, "scalar-adaptive")
    t_end = 0.05 if tiny else 0.1
    names = METHOD_NAMES[:2] if tiny else METHOD_NAMES
    jobs = []
    nonlinear: list[CoupledNonlinearScalar] = []
    refs: dict[str, DenseReference] = {}
    for name in names:
        method = registry_lookup(name)
        for strategy in SCALAR_STRATEGIES:
            for tol in SCALAR_TOLS[min(method.order, method.embedded_order + 1)]:
                lin = LinearTwoRate(lambda_fast=-_jitter(rng, 10.0, PARAM_JITTER),
                                    lambda_slow=-_jitter(rng, 1.0, PARAM_JITTER))
                jobs.append(_scalar_job(
                    name, strategy, lin, _jitter(rng, tol), t_end,
                    lambda ts, p=lin: p.y0 * np.exp((p.lambda_fast + p.lambda_slow) * ts)))
                column = len(nonlinear)
                nonlinear.append(CoupledNonlinearScalar(y0=_jitter(rng, 0.5, PARAM_JITTER)))
                jobs.append(_scalar_job(name, strategy, nonlinear[-1], _jitter(rng, tol), t_end,
                                        lambda ts, c=column: refs["nl"](c, ts)))

    def prepare(cache_dir: Path):
        f = lambda y: nonlinear[0].f_fast(y) + nonlinear[0].f_slow(y)
        refs["nl"] = DenseReference(f, [p.y0 for p in nonlinear], t_end, SCALAR_REF_STEPS)

    def warmup():
        cfg = ControllerConfig(strategy="balancing", abs_tol=1e-3, rel_tol=1e-3)
        p = LinearTwoRate()
        for name in names:
            adaptivity.drive(registry_lookup(name), p.to_ode(), p.initial_condition(), 0.0, 0.05, cfg, 0.01, 2)

    return Workload(_order(rng, jobs), warmup, prepare)


# ---------------------------------------------------------------------------
# gray-scott-explicit
# ---------------------------------------------------------------------------

GS_EXPLICIT_METHOD = "EX-EX 3(2)4s-A"
GS_EXPLICIT_POOL = 8
#: the explicit runs are step-size limited by stability, so their error does
#: not follow the tolerance and a tolerance jitter passes straight into the
#: error ratio; keep it small
GS_TOL_JITTER = 0.02
GS_COST_RATIO = 20.0


def gray_scott_explicit(seed: int, tiny: bool = False) -> Workload:
    rng = _rng(seed, "gray-scott-explicit")
    n = 16 if tiny else 64
    t_end = 0.01 if tiny else 0.05
    method = registry_lookup(GS_EXPLICIT_METHOD)
    pool = gs_ic_pool(n, 1 if tiny else GS_EXPLICIT_POOL)
    bases = {swap: GrayScott(n=n, swap_roles=swap).to_ode() for swap in (False, True)}
    refs: dict[int, np.ndarray] = {}

    def prepare(cache_dir: Path):
        problem = GrayScott(n=n)
        f = lambda y: problem.f_slow(y) + problem.f_fast(y)
        steps = max(20, int(round(t_end / 5e-5)))
        for v, y0 in enumerate(pool):
            refs[v] = _cached_reference(
                cache_dir, f"gs-explicit n={n} t={t_end} steps={steps} variant={v}",
                lambda y0=y0: rk4(f, y0, t_end, steps))

    def make(strategy, swap, variant, tol):
        cfg = ControllerConfig(strategy=strategy, abs_tol=tol, rel_tol=tol,
                               synthetic_cost_ratio=GS_COST_RATIO if strategy == "efficiency" else None)
        H0, M0 = (5e-3, 10) if swap else (1e-3, 2)
        y0 = pool[variant]

        def run(rec):
            ode, counters = counted_ode(bases[swap], rec)
            return adaptivity.drive(method, ode, y0, 0.0, t_end, cfg, H0, M0), counters

        def check(outcome):
            out, counters = outcome
            return _drive_verdict(out, counters, t_end, tol, out.ys[-1:], refs[variant][None, :])

        roles = "swapped" if swap else "reaction-fast"
        return Job(f"drive GS{n} {strategy} {roles} ic={variant} tol={tol:.2e}", run, check)

    # every pool variant once per (strategy, roles) class: which variants a
    # seed picks would otherwise dominate the spread of the error figures
    jobs = []
    for strategy, tol in (("efficiency", 1e-4), ("balancing", 1e-3)):
        for swap in (False, True):
            for variant in range(len(pool)):
                jobs.append(make(strategy, swap, variant, _jitter(rng, tol, GS_TOL_JITTER)))

    def warmup():
        cfg = ControllerConfig(strategy="balancing", abs_tol=1e-3, rel_tol=1e-3)
        adaptivity.drive(method, bases[False], pool[0], 0.0, 2e-3, cfg, 1e-3, 2)

    return Workload(_order(rng, jobs), warmup, prepare)


# ---------------------------------------------------------------------------
# gray-scott-implicit
# ---------------------------------------------------------------------------

GS_IMPLICIT_POOL = 4
#: the analytic-Jacobian jobs: linear diffusion slow and implicit
GS_ANALYTIC_METHODS = ("EX-IM 2(1)A", "EX-IM 3(2)A", "EX-IM 4(3)A")
#: finite-difference Jacobian jobs: (method, diffusion mode, swap roles, M)
GS_FD_JOBS = (
    ("EX-IM 2(1)A", "nonlinear", False, 4),
    ("EX-IM 3(2)A", "nonlinear", False, 4),
    ("IM-EX 2(1)A", "nonlinear", False, 2),
    ("IM-EX 3(2)A", "nonlinear", False, 2),
    ("IM-EX 2(1)A", "linear", True, 2),
    ("EX-IM 2(1)A", "linear", True, 4),
    ("EX-IM 3(2)A", "linear", True, 4),
    ("EX-IM 4(3)A", "linear", True, 4),
)
#: fixed-step error allowance: scaled RMS error at this abs/rel tolerance (one
#: macro-step of 0.02 with a second-order pair stays within a few 1e-3)
GS_IMPLICIT_TOL = 1e-2


def gray_scott_implicit(seed: int, tiny: bool = False) -> Workload:
    rng = _rng(seed, "gray-scott-implicit")
    n = 8 if tiny else 16
    t_end = 0.02
    pool = gs_ic_pool(n, 1 if tiny else GS_IMPLICIT_POOL)
    problems = {
        (mode, swap): GrayScott(n=n, diffusion_mode=mode, swap_roles=swap)
        for mode, swap in (("linear", False), ("nonlinear", False), ("linear", True))
    }
    bases = {key: p.to_ode() for key, p in problems.items()}
    refs: dict[tuple[str, int], np.ndarray] = {}

    def prepare(cache_dir: Path):
        for mode in ("linear", "nonlinear"):
            problem = problems[(mode, False)]
            f = lambda y, p=problem: p.f_slow(y) + p.f_fast(y)
            steps = 400
            for v, y0 in enumerate(pool):
                refs[(mode, v)] = _cached_reference(
                    cache_dir, f"gs-implicit n={n} {mode} t={t_end} steps={steps} variant={v}",
                    lambda y0=y0, f=f: rk4(f, y0, t_end, steps))

    def make(method_name, mode, swap, M, n_steps, variant):
        method = registry_lookup(method_name)
        base = bases[(mode, swap)]
        y0 = pool[variant]
        H = t_end / n_steps

        def run(rec):
            ode, counters = counted_ode(base, rec)
            y, t, carry = y0, 0.0, None
            for _ in range(n_steps):
                res = stepping.step(method, ode, y, t, H, M, fsal_carry=carry)
                y, t, carry = res.y_next, res.t, res.fsal_carry
            return y, t, counters

        def check(outcome):
            y, t, counters = outcome
            rhs = counters[0].calls + counters[1].calls
            if abs(t - t_end) > 1e-12:
                return CheckResult(False, math.inf, rhs, f"ended at t={t!r}")
            ref = refs[(mode, variant)]
            scale = GS_IMPLICIT_TOL * (1.0 + np.abs(ref))
            err = float(np.sqrt(np.mean(((y - ref) / scale) ** 2)))
            return CheckResult(bool(err <= 1.0), err, rhs, "" if err <= 1.0 else f"error {err:.3g} x tol")

        jac = "analytic J" if base.jac_slow is not None else "FD J"
        roles = "swapped" if swap else "reaction-fast"
        return Job(f"step x{n_steps} {method_name} GS{n} {mode} {roles} M={M} {jac} ic={variant}", run, check)

    jobs = []
    for name in GS_ANALYTIC_METHODS:
        for M in (2, 4):
            for variant in range(len(pool)):
                jobs.append(make(name, "linear", False, M, 2, variant))
    for name, mode, swap, M in GS_FD_JOBS[: 2 if tiny else None]:
        jobs.append(make(name, mode, swap, M, 1, int(rng.integers(len(pool)))))

    def warmup():
        # the first dense LAPACK solve is ~20x a steady one; pay it here
        method = registry_lookup(GS_ANALYTIC_METHODS[0])
        stepping.step(method, bases[("linear", False)], pool[0], 0.0, 1e-3, 2)

    return Workload(_order(rng, jobs), warmup, prepare)


# ---------------------------------------------------------------------------
# analysis-cli
# ---------------------------------------------------------------------------

#: large-M stability jobs take M from this ladder by method index; small-M ones
#: alternate M = 1, 2.  M is not seeded: the scan cost grows like M^3, so a
#: seeded M would make the seed, not the program, set the figures
CLI_LARGE_M = (4, 8, 16, 32)
CLI_SMALL_GRID = (7, 13)  # (n_theta, n_rho): resolvent-bound at large M
CLI_LARGE_GRID = (25, 49)  # output-bound at small M
CLI_RHO_MAX = 6.0


def _stability_check(method, M, n_theta, n_rho, path: Path, sampled: np.ndarray) -> CheckResult:
    """Row count, and sampled cells of the CSV against the dense oracle."""
    s_f, s_s = method.stage_counts
    cells = n_theta * n_theta * n_rho
    evals = cells * (M * s_f + s_s)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["theta_f", "theta_s", "rho", "absR"] or len(rows) != cells + 1:
        return CheckResult(False, math.inf, evals, f"{path.name}: {len(rows) - 1} rows, expected {cells}")
    theta = np.linspace(np.pi / 2, 3 * np.pi / 2, n_theta)
    rho = np.linspace(0.0, CLI_RHO_MAX, n_rho)
    g = assemble(method, M)
    worst = 0.0
    for flat in sampled:
        i, rest = divmod(int(flat), n_theta * n_rho)
        j, k = divmod(rest, n_rho)
        written = float(rows[1 + int(flat)][3])
        try:
            r = abs(stability_value(g, complex(M * rho[k] * np.exp(-1j * theta[i])),
                                    complex(rho[k] * np.exp(-1j * theta[j]))))
        except SingularResolvent:
            if not math.isnan(written):
                return CheckResult(False, math.inf, evals, f"cell {flat}: singular, CSV has {written}")
            continue
        # the CSV carries 12 significant digits: allow half a unit of the last
        # one on top of the solver tolerance
        half_unit = 0.5 * 10.0 ** (math.floor(math.log10(r)) - 11) if r > 0 else 0.0
        worst = max(worst, abs(written - r) / (CELL_TOL * (1.0 + r) + half_unit))
    return CheckResult(worst <= 1.0, worst, evals, "" if worst <= 1.0 else f"cell error ratio {worst:.3g}")


def _verify_check(method, path: Path) -> CheckResult:
    """Residuals of every condition up to the declared order, against classify's tolerance."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return CheckResult(False, math.inf, 0, "empty residual table")
    worst = max(abs(float(r["residual"])) for r in rows if int(r["order"]) <= method.order)
    ok = worst < CLASSIFY_TOL
    return CheckResult(ok, None, 0, "" if ok else f"order-condition residual {worst:.3g}")


def analysis_cli(seed: int, tiny: bool, out_root: Path) -> Workload:
    rng = _rng(seed, "analysis-cli")
    check_rng = _rng(seed, "analysis-cli cells")
    names = METHOD_NAMES[::4] if tiny else METHOD_NAMES
    large_grid = (9, 9) if tiny else CLI_LARGE_GRID
    job_dirs = iter(range(10**9))

    def make(argv_tail, method, check_fn):
        def run(rec):
            out_dir = out_root / f"job{next(job_dirs)}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["--out-dir", str(out_dir), *argv_tail])
            return rc, out_dir

        def check(outcome):
            rc, out_dir = outcome
            try:
                if rc != 0:
                    return CheckResult(False, math.inf, 0, f"exit code {rc}")
                verdict = check_fn(out_dir)
                verdict.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
                return verdict
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return Job(" ".join(argv_tail), run, check)

    def stability_job(name, M, n_theta, n_rho):
        method = registry_lookup(name)
        argv = ["stability", name, "--M", str(M), "--n-theta", str(n_theta),
                "--n-rho", str(n_rho), "--rho-max", str(CLI_RHO_MAX)]
        cells = n_theta * n_theta * n_rho
        sampled = check_rng.choice(cells, size=min(CELLS_SAMPLED, cells), replace=False)
        return make(argv, method, lambda d: _stability_check(
            method, M, n_theta, n_rho, d / "region.csv", sampled))

    jobs = []
    for i, name in enumerate(names):
        method = registry_lookup(name)
        jobs.append(make(["verify", name], method,
                         lambda d, m=method: _verify_check(m, d / "residuals.csv")))
        jobs.append(stability_job(name, 1 + i % 2, *large_grid))
        jobs.append(stability_job(name, 2 if tiny else CLI_LARGE_M[i % len(CLI_LARGE_M)], *CLI_SMALL_GRID))

    def warmup():
        d = out_root / "warmup"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--out-dir", str(d), "verify", names[0]])
            cli.main(["--out-dir", str(d), "stability", names[0], "--M", "2",
                      "--n-theta", "3", "--n-rho", "3"])
        shutil.rmtree(d, ignore_errors=True)

    def cleanup():
        shutil.rmtree(out_root, ignore_errors=True)

    return Workload(_order(rng, jobs), warmup, cleanup=cleanup)


def build(name: str, seed: int, tiny: bool = False, scratch_dir: Path | None = None) -> Workload:
    """The seeded job list of workload ``name``; ``scratch_dir`` takes CLI outputs."""
    if name == "analysis-cli":
        return analysis_cli(seed, tiny, scratch_dir)
    builders = {"scalar-adaptive": scalar_adaptive, "gray-scott-explicit": gray_scott_explicit,
                "gray-scott-implicit": gray_scott_implicit}
    return builders[name](seed, tiny)
