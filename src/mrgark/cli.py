"""Command-line front end.

Subcommands: list-methods, dump-tableau, verify, converge, stability,
integrate.  Numeric grids and traces go to CSV, run manifests and summaries
to JSON, so outputs are plot-ready and diff-able.  Identical configurations
produce byte-identical files, except ``integrate --adaptive efficiency``
without ``--ts-tf-ratio``, whose cost model times the slow and fast stages
(RHS calls, and whole Newton solves for implicit stages); its manifest
records ``cost_source: wall-clock`` and makes no reproducibility claim.

The argument parser is built once per process (:func:`build_parser` is
cached), so in-process callers of :func:`main` parse with the same parser; the
``cmd_*`` functions look up the library functions they call at call time.

Exit codes: 0 success, 1 numerical/verification failure, 2 usage error (an
output path that cannot be created or written included).
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .adaptivity import ControllerConfig, Strategy, drive
from .assembly import (
    assemble,
    check_decoupled,
    check_internal_consistency,
    check_stiff_accuracy,
    check_telescopic,
    derive_schedule,
)
from .errors import InvalidInput, MrGarkError, UnknownMethod, check_count
from .order import WeightPair, classify, residuals
from .problems import PROBLEM_NAMES, make_problem, reference_error
from .schemes import METHOD_NAMES, list_methods, registry_lookup
from .stability import scan_region
from .stepping import Tolerances, error_estimates, integrate_fixed
from .tableaux import MethodFlag, TableauKind

__all__ = ["main"]


def _out_base(args) -> str:
    return args.out_dir or os.environ.get("MRGARK_OUTPUT_DIR") or "."


def _out_dir(args) -> Path:
    path = Path(_out_base(args))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_out_file(args, *names: str) -> None:
    """Raise OSError unless every output file in ``names`` can be written, before a command does its work.

    Creates and truncates nothing: :func:`_out_dir` makes the output directory
    and its parents when the results are written, so only they may be missing.
    Below a missing directory, ".." is read lexically, as it resolves once
    that directory has been made.
    """
    base = _out_base(args)
    made = os.path.normpath(base)
    for name in names:
        path = os.path.join(base, name)
        folder = os.path.dirname(path) or "."
        while True:
            try:
                mode = os.stat(folder).st_mode  # below a file: NotADirectoryError
                break
            except FileNotFoundError:
                if os.path.normpath(folder) != folder:
                    path = os.path.normpath(path)
                    folder = os.path.dirname(path) or "."
                elif made == folder or made.startswith(os.path.join(folder, "")):
                    folder = os.path.dirname(folder) or "."
                else:
                    raise FileNotFoundError(errno.ENOENT, "no such output directory", folder) from None
        if not stat.S_ISDIR(mode):
            raise NotADirectoryError(errno.ENOTDIR, "output path below a file", folder)
        if not os.access(folder, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, "output directory cannot be written", folder)
        if folder == (os.path.dirname(path) or ".") and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output file is a directory", path)


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["determinism"] = ("H and M follow timed stages (RHS calls and Newton solves), "
                              "so outputs vary from run to run"
                              if payload.get("cost_source") == "wall-clock"
                              else "outputs are seed-free and reproducible bit-for-bit")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _parse_sweep(text: str) -> list[int]:
    """Parse '1:8' (inclusive range) or '2,4,8' (explicit list) of distinct integers >= 1."""
    try:
        lo, colon, hi = text.partition(":")
        out = list(range(int(lo), int(hi) + 1)) if colon else [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        out = []
    if not out or min(out) < 1 or len(set(out)) < len(out):
        raise InvalidInput(f"bad M list {text!r}: want 'lo:hi' or distinct 'M1,M2,...', each >= 1")
    return out


def _parse_floats(text: str) -> list[float]:
    """Parse an H ladder: distinct numbers or fractions 'p/q', comma separated."""
    try:
        out = []
        for num, slash, den in (tok.partition("/") for tok in text.split(",") if tok.strip()):
            out.append(float(num) / float(den) if slash else float(num))
    except (ValueError, ZeroDivisionError):
        out = []
    if not out or len(set(out)) < len(out):
        raise InvalidInput(f"bad H ladder {text!r}: want distinct numbers or fractions p/q")
    return out


def _parse_problem(args):
    """Build --problem with the keyword arguments in the --problem-params JSON object."""
    try:
        params = json.loads(args.problem_params)
    except json.JSONDecodeError:
        params = None
    if not isinstance(params, dict):
        raise InvalidInput(f"--problem-params must be a JSON object, got {args.problem_params!r}")
    return make_problem(args.problem, **params)


def cmd_list_methods(args) -> int:
    for name, p, p_hat, flags in list_methods():
        tags = ",".join(sorted(f.value for f in flags)) or "-"
        print(f"{name:16s} order {p}({p_hat})  {tags}")
    return 0


def cmd_dump_tableau(args) -> int:
    method = registry_lookup(args.method)
    name = args.out or f"tableau.{args.format}"
    _check_out_file(args, name)  # before the assembly
    g = assemble(method, args.M)
    path = _out_dir(args) / name
    if args.format == "json":
        fs, sf = method.couplings(args.M)
        payload = {
            "name": method.name,
            "tool_version": __version__,
            "M": args.M,
            "order": method.order,
            "embedded_order": method.embedded_order,
            "flags": sorted(f.value for f in method.flags),
            **{part: {"A": base.A.tolist(), "b": base.b.tolist(), "b_hat": base.b_hat.tolist(),
                      "c": base.c.tolist(), "kind": base.kind.value}
               for part, base in (("fast", method.fast), ("slow", method.slow))},
            "fs_coupling": fs.tolist(),
            "sf_coupling": sf.tolist(),
            "assembled": {"A": g.A.tolist(), "b": g.b.tolist(), "c": g.c.tolist()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        _write_csv(path, ["row"] + [f"a{j+1}" for j in range(g.stage_count)] + ["b", "c"],
                   ([i + 1] + [f"{x:.17g}" for x in g.A[i]] + [f"{g.b[i]:.17g}", f"{g.c[i]:.17g}"]
                    for i in range(g.stage_count)))
    print(f"wrote {path}")
    return 0


def _verify_one(name: str, sweep: list[int], weights: str, rows: list, failures: list) -> None:
    method = registry_lookup(name)
    classify_reports = []  # (main, embedded) per M, so classify does not recompute them
    for M in sweep:
        rep = check_internal_consistency(method, M)
        if not rep.passed:
            failures.append(f"{name} M={M}: internal consistency residual {max(rep.max_fs_residual, rep.max_sf_residual):.2e}")
        if not check_decoupled(method, M):
            failures.append(f"{name} M={M}: coupling sparsity not complementary")
        try:
            derive_schedule(method, M)
        except MrGarkError as exc:
            failures.append(f"{name} M={M}: schedule: {exc}")
        for part, flag in (("slow", MethodFlag.STIFFLY_ACCURATE_SLOW), ("fast", MethodFlag.STIFFLY_ACCURATE_FAST)):
            base = method.slow if part == "slow" else method.fast
            if base.kind is TableauKind.SDIRK and method.has_flag(flag) and not check_stiff_accuracy(method, M, part):
                failures.append(f"{name} M={M}: stiff accuracy fails in {part} partition")
        reports = {w: residuals(method, M, w) for w in dict.fromkeys(("main", "embedded", weights))}
        classify_reports.append((reports["main"], reports["embedded"]))
        for e in reports[weights].entries:
            rows.append([name, M, weights, e.id, e.order, e.group, f"{e.value:.17g}", f"{e.rhs:.17g}", f"{e.residual:.3e}"])

    if check_telescopic(method) != method.has_flag(MethodFlag.TELESCOPIC):
        failures.append(f"{name}: telescopic flag does not match the tableaus")
    cls = classify(method, classify_reports)
    if (cls.verified_order, cls.verified_embedded_order) != (method.order, method.embedded_order):
        failures.append(
            f"{name}: verified order {cls.verified_order}({cls.verified_embedded_order}) "
            f"!= declared {method.order}({method.embedded_order})"
        )
    if any(m >= 2 for m in sweep) and cls.naturally_adaptive != method.has_flag(MethodFlag.NATURALLY_ADAPTIVE):
        failures.append(f"{name}: natural adaptivity {cls.naturally_adaptive} != declared flag")


def cmd_verify(args) -> int:
    if not args.all and args.method is None:
        raise InvalidInput("verify: give a method name or --all")
    sweep = _parse_sweep(args.M_sweep)
    names = list(METHOD_NAMES) if args.all else [args.method]
    _check_out_file(args, args.out, "verify_manifest.json")  # before the sweep
    rows: list = []
    failures: list = []
    for name in names:
        _verify_one(name, sweep, args.weights, rows, failures)
    out = _out_dir(args)
    path = out / args.out
    _write_csv(path, ["method", "M", "weights", "condition", "order", "group", "value", "rhs", "residual"], rows)
    _write_manifest(out / "verify_manifest.json", {
        "command": "verify", "methods": names, "M_sweep": sweep, "weights": args.weights,
    })
    if args.all:
        print(f"verified {len(names)} methods over M in {sweep}; residuals in {path}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def cmd_converge(args) -> int:
    method = registry_lookup(args.method)
    problem = _parse_problem(args)
    ode = problem.to_ode()
    y0 = problem.initial_condition()
    ladder = _parse_floats(args.h_ladder)
    sweep = _parse_sweep(args.M)
    _check_out_file(args, args.out, "converge_manifest.json")  # before the runs
    rows = []
    for M in sweep:
        errs = []
        y_ref = None  # fine reference run, made once per M when there is no exact solution
        for H in ladder:
            try:
                y_T = integrate_fixed(method, ode, y0, 0.0, args.t_end, H, M).y_next
                if y_ref is None and not hasattr(problem, "exact"):
                    y_ref = integrate_fixed(method, ode, y0, 0.0, args.t_end, min(ladder) / 64.0, M).y_next
                err = reference_error(problem, y_T, args.t_end, reference_state=y_ref)
                errs.append(err)
                rows.append([method.name, M, f"{H:.10g}", f"{err:.6e}", ""])
            except InvalidInput:
                raise  # a bad M or H is a usage error, not a row of the table
            except MrGarkError as exc:
                errs.append(math.nan)
                rows.append([method.name, M, f"{H:.10g}", "", f"{type(exc).__name__}"])
        # successive-ratio observed order needs at least two clean points
        idx = len(rows) - len(ladder)
        for k in range(1, len(ladder)):
            if math.isfinite(errs[k - 1]) and math.isfinite(errs[k]) and errs[k] > 0:
                order = math.log(errs[k - 1] / errs[k]) / math.log(ladder[k - 1] / ladder[k])
                rows[idx + k][4] = f"{order:.3f}"
    out = _out_dir(args)  # after every argument has been checked
    path = out / args.out
    _write_csv(path, ["method", "M", "H", "error", "observed_order"], rows)
    _write_manifest(out / "converge_manifest.json", {
        "command": "converge", "method": method.name, "problem": args.problem,
        "M": args.M, "h_ladder": args.h_ladder, "t_end": args.t_end,
    })
    print(f"wrote {path}")
    return 0


def cmd_stability(args) -> int:
    method = registry_lookup(args.method)
    M = check_count(args.M)
    _check_out_file(args, args.out, "stability_manifest.json")  # before the scan
    grid = scan_region(method, M, rho_max=args.rho_max, n_theta=args.n_theta, n_rho=args.n_rho)
    out = _out_dir(args)
    path = out / args.out
    grid.write_csv(path)
    _write_manifest(out / "stability_manifest.json", {
        "command": "stability", "method": method.name, "M": args.M,
        "rho_max": args.rho_max, "n_theta": args.n_theta, "n_rho": args.n_rho,
    })
    print(f"wrote {path}")
    return 0


def cmd_integrate(args) -> int:
    method = registry_lookup(args.method)
    problem = _parse_problem(args)
    ode = problem.to_ode()
    y0 = problem.initial_condition()
    tolerances = Tolerances(abs_tol=args.abstol, rel_tol=args.reltol)
    _check_out_file(args, "trajectory.csv", "integrate_manifest.json",
                    *(["trace.csv"] if args.adaptive else []))  # before the run
    summary: dict = {
        "command": "integrate", "method": method.name, "problem": args.problem,
        "t_end": args.t_end, "abstol": args.abstol, "reltol": args.reltol, "cost_source": None,
    }

    if args.adaptive:
        config = ControllerConfig(
            strategy=args.adaptive,
            abs_tol=args.abstol,
            rel_tol=args.reltol,
            synthetic_cost_ratio=args.ts_tf_ratio,
        )
        result = drive(method, ode, y0, 0.0, args.t_end, config, H0=args.H, M0=args.M)
        summary.update(
            strategy=args.adaptive,
            # only the efficiency controller reads the costs
            cost_source=None if args.adaptive != "efficiency" else "wall-clock" if args.ts_tf_ratio is None else "synthetic",
            accepted=result.state.accepted,
            rejected=result.state.rejected,
            final_H=result.state.H,
            final_M=result.state.M,
            ts_tf_ratio=args.ts_tf_ratio,
        )
        ts, ys = result.ts, result.ys
    else:
        states = [(0.0, y0)]
        last = integrate_fixed(method, ode, y0, 0.0, args.t_end, args.H, args.M,
                               on_step=lambda r: states.append((r.t, r.y_next)))
        summary.update(H=last.H, M=args.M, steps=len(states) - 1,
                       final_error_estimates=error_estimates(last, tolerances))
        ts, ys = np.array([t for t, _ in states]), np.array([y for _, y in states])

    out = _out_dir(args)  # after every argument has been checked
    if args.adaptive:
        _write_csv(out / "trace.csv", ["t", "H", "M", "eps_total", "eps_slow", "eps_fast", "accepted"],
                   ([f"{r.t:.12g}", f"{r.H:.12g}", r.M, f"{r.eps_total:.6e}", f"{r.eps_slow:.6e}",
                     f"{r.eps_fast:.6e}", int(r.accepted)] for r in result.state.trace))
    traj_path = out / "trajectory.csv"
    if ys.shape[1] <= 16:
        _write_csv(traj_path, ["t"] + [f"y{i}" for i in range(ys.shape[1])],
                   ([f"{t:.12g}"] + [f"{v:.12g}" for v in y] for t, y in zip(ts, ys)))
    else:
        _write_csv(traj_path, ["t", "norm2", "min", "max"],
                   ([f"{t:.12g}", f"{np.linalg.norm(y):.12g}", f"{y.min():.12g}", f"{y.max():.12g}"]
                    for t, y in zip(ts, ys)))
    if hasattr(problem, "exact"):
        summary["reference_error"] = reference_error(problem, ys[-1], args.t_end)
    _write_manifest(out / "integrate_manifest.json", summary)
    print(f"wrote {traj_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mrgark`` parser, built once per process; the ``cmd_*`` functions are bound when it is first built."""
    parser = argparse.ArgumentParser(
        prog="mrgark",
        description="Multirate GARK methods: inspection, verification, stability, integration.",
    )
    parser.add_argument("--out-dir", default=None, help="output directory (or set MRGARK_OUTPUT_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-methods", help="list the registered method pairs").set_defaults(fn=cmd_list_methods)

    p = sub.add_parser("dump-tableau", help="dump a method's coefficients at a given M")
    p.add_argument("method")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="file name inside the output directory")
    p.set_defaults(fn=cmd_dump_tableau)

    p = sub.add_parser("verify", help="structure and order verification over an M sweep")
    p.add_argument("method", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--M-sweep", dest="M_sweep", default="1:8")
    p.add_argument("--weights", default="main", choices=get_args(WeightPair))
    p.add_argument("--out", default="residuals.csv")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("converge", help="fixed-step convergence sweep over an H ladder")
    p.add_argument("--method", required=True)
    p.add_argument("--problem", choices=PROBLEM_NAMES, default="linear-two-rate")
    p.add_argument("--problem-params", default="{}", help="JSON overrides for the problem")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--M", default="2,4")
    p.add_argument("--h-ladder", default="1/8,1/16,1/32,1/64,1/128")
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("stability", help="export |R| over the (theta_f, theta_s, rho) grid")
    p.add_argument("method")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--rho-max", type=float, default=6.0)
    p.add_argument("--n-theta", type=int, default=65)
    p.add_argument("--n-rho", type=int, default=129)
    p.add_argument("--out", default="region.csv")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("integrate", help="fixed-step or adaptive integration")
    p.add_argument("--method", required=True)
    p.add_argument("--problem", choices=PROBLEM_NAMES, default="linear-two-rate")
    p.add_argument("--problem-params", default="{}")
    p.add_argument("--H", type=float, default=0.01)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--adaptive", choices=get_args(Strategy),
                   default=None, help="adaptive strategy; fixed steps of --H when omitted")
    p.add_argument("--abstol", type=float, default=1e-6)
    p.add_argument("--reltol", type=float, default=1e-6)
    p.add_argument("--ts-tf-ratio", type=float, default=None,
                   help="synthetic slow/fast cost ratio for the efficiency controller")
    p.set_defaults(fn=cmd_integrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MrGarkError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UnknownMethod, InvalidInput)) else 1
    except OSError as exc:  # an output directory or file that cannot be created or written
        print(f"OSError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
