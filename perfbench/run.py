"""mrgark benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports mrgark from ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it record the
environment and the job statistics.  A full record (per-job table and, when
traced, the spans of the first jobs) goes to ``perfbench/.out/``.  The exit
code is 1 when any correctness oracle fails and 2 on a usage error.

A run builds the seeded job list, warms up, then cycles through the jobs in a
closed loop for ``--seconds`` (always finishing the first pass).  Every job
time is scaled to a reference host speed with the calibration kernel of
``calib.py``, timed between the jobs.  ``wall_s`` is the time of one pass: the
sum over jobs of each job's median scaled time.  With
``--trace 1`` the first half of the time runs untraced and the second half,
in whole passes, traced; per-layer figures are per pass.  NOTES.md explains
the workloads and what each metric should move.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / ".out"
CACHE_DIR = HERE / ".cache"

#: BLAS/OpenMP threads for this process; one keeps timings repeatable on a shared box
BLAS_THREADS = 1
#: set-up samples per run: this process plus fresh interpreters
SETUP_SAMPLES = 5
#: the calibration kernel runs again once this much time has passed since its last run
CALIB_EVERY_S = 0.15
CHILD_TIMEOUT_S = 120

WORKLOADS = ("scalar-adaptive", "gray-scott-explicit", "gray-scott-implicit", "analysis-cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "rhs_evals": "count",
    "err_ratio_gmean": "ratio",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small job list and problem sizes (self-tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the config layout is numpy-version specific; report it as unknown
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def setup(args):
    """Imports, registry, problem build and warm-up; returns (workload, seconds).

    The seconds are scaled to the reference host speed (see ``calib.py``)."""
    import workloads

    from mrgark.schemes import METHOD_NAMES, registry_lookup

    for name in METHOD_NAMES:
        registry_lookup(name)
    scratch = OUT_DIR / f"cli-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny, scratch_dir=scratch)
    wl.warmup()
    elapsed = time.perf_counter() - _T0
    import calib

    return wl, elapsed * calib.Kernel("setup").speed_scale()


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Phase:
    """Per-job samples and verdicts of one timed phase."""

    def __init__(self, n_jobs: int):
        self.samples: list[list[float]] = [[] for _ in range(n_jobs)]  # scaled to the reference speed
        self.raw: list[list[float]] = [[] for _ in range(n_jobs)]  # as measured
        self.first = [None] * n_jobs
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.bytes_written = 0
        self.failures: list[str] = []
        self.unrepeatable: set[int] = set()

    def per_job_times(self, raw: bool = False) -> list[float]:
        """Each job's median over the passes, scaled to the reference speed unless ``raw``."""
        import stats

        return [stats.median(s) for s in (self.raw if raw else self.samples) if s]

    def speed_scale(self) -> float:
        """Seconds at the reference speed per measured second, over all job executions."""
        return sum(map(sum, self.samples)) / sum(map(sum, self.raw))


def run_phase(wl, budget_s: float, kernel, recorder=None, whole_rounds: bool = False) -> Phase:
    """Closed loop over the job list until ``budget_s`` is spent (first pass always completes).

    The calibration ``kernel`` runs before the first job and then every
    ``CALIB_EVERY_S`` between jobs; the jobs in between are scaled by the mean
    of the kernel times on either side of them."""
    from workloads import CheckResult

    phase = Phase(len(wl.jobs))
    pending: list[tuple[int, float]] = []
    before = kernel.sample()
    last_calib = time.perf_counter()

    def calibrate():
        nonlocal before, last_calib
        after = kernel.sample()
        scale = kernel.ref_s / (0.5 * (before + after))
        for idx, raw in pending:
            phase.raw[idx].append(raw)
            phase.samples[idx].append(raw * scale)
        pending.clear()
        before, last_calib = after, time.perf_counter()

    start = time.perf_counter()
    while True:
        for idx, job in enumerate(wl.jobs):
            if phase.rounds and not whole_rounds and time.perf_counter() - start >= budget_s:
                calibrate()
                return phase
            t0 = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.job(idx):
                        outcome = job.run(recorder)
                else:
                    outcome = job.run(None)
                elapsed = time.perf_counter() - t0
                verdict = job.check(outcome)
            except Exception as exc:  # a job that raises is a failed job; keep measuring the rest
                elapsed = time.perf_counter() - t0
                verdict = CheckResult(False, math.inf, 0, f"{type(exc).__name__}: {exc}")
            pending.append((idx, elapsed))
            phase.attempted += 1
            phase.bytes_written += verdict.bytes_written
            if not verdict.ok:
                phase.failed += 1
                if len(phase.failures) < 20:
                    phase.failures.append(f"{job.label}: {verdict.message}")
            first = phase.first[idx]
            if first is None:
                phase.first[idx] = verdict
            elif (verdict.rhs_evals, verdict.err_ratio) != (first.rhs_evals, first.err_ratio):
                phase.unrepeatable.add(idx)
            if time.perf_counter() - last_calib >= CALIB_EVERY_S:
                calibrate()
        phase.rounds += 1
        if time.perf_counter() - start >= budget_s:
            calibrate()
            return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    import stats

    times = phase.per_job_times()
    verdicts = [v for v in phase.first if v is not None]
    ratios = [v.err_ratio for v in verdicts if v.err_ratio is not None]
    return {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "job_p50_s": stats.median(times),
        "job_tail_s": stats.percentile(times, stats.tail_level(len(times))),
        "rhs_evals": sum(v.rhs_evals for v in verdicts),
        "err_ratio_gmean": math.exp(statistics.fmean(math.log(r) for r in ratios)),
        "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec, traced: Phase, untraced: Phase) -> dict:
    """Per-pass layer figures from the traced phase; see NOTES.md for what each should move.

    Span times are scaled to the reference speed by the traced phase's mean scale."""
    snap = rec.snapshot()
    calls, total, self_s, counts = snap["calls"], snap["total_s"], snap["self_s"], snap["counts"]
    by_parent = rec.by_parent
    r = traced.rounds
    c = lambda name: calls.get(name, 0)
    speed = traced.speed_scale()
    t = lambda name: total.get(name, 0.0) * speed
    s = lambda name: self_s.get(name, 0.0) * speed
    k = lambda name: counts.get(name, 0.0)
    rhs_names = ("problems.rhs_fast", "problems.rhs_slow")
    newton_rhs = sum(n for (name, parent), n in by_parent.items()
                     if name in rhs_names and parent == "stepping.newton_solve")
    stage_rhs = c(rhs_names[0]) + c(rhs_names[1]) - newton_rhs
    accepted, rejected = k("accepted"), k("rejected")
    traced_wall = sum(traced.per_job_times())
    job_time = t("bench.job")
    layer_self = sum(s(name) for name in self_s if name != "bench.job")
    values = {
        "stepping.step_self_s": (s("stepping.step") / r, "s"),
        "stepping.macro_steps_per_s": (c("stepping.step") / t("stepping.step") if t("stepping.step") else 0.0, "1/s"),
        "stepping.micro_steps": (k("micro_steps") / r, "count"),
        "tableaux.coupling_calls": (c("tableaux.coupling") / r, "count"),
        "tableaux.coupling_s": (t("tableaux.coupling") / r, "s"),
        "stepping.newton_calls": (c("stepping.newton_solve") / r, "count"),
        "stepping.newton_iterations": (k("newton_iterations") / r, "count"),
        "stepping.newton_self_s": (s("stepping.newton_solve") / r, "s"),
        "stepping.newton_rhs_calls": (newton_rhs / r, "count"),
        "stepping.stage_rhs_calls": (stage_rhs / r, "count"),
        "problems.jac_calls": (c("problems.jac") / r, "count"),
        "problems.jac_s": (t("problems.jac") / r, "s"),
        "problems.rhs_fast_calls": (c("problems.rhs_fast") / r, "count"),
        "problems.rhs_slow_calls": (c("problems.rhs_slow") / r, "count"),
        "problems.rhs_s": ((t(rhs_names[0]) + t(rhs_names[1])) / r, "s"),
        "adaptivity.drive_self_s": (s("adaptivity.drive") / r, "s"),
        "adaptivity.update_calls": (c("adaptivity.update") / r, "count"),
        "adaptivity.update_s": (t("adaptivity.update") / r, "s"),
        "adaptivity.accepted": (accepted / r, "count"),
        "adaptivity.rejected": (rejected / r, "count"),
        "adaptivity.accept_ratio": (accepted / (accepted + rejected) if accepted + rejected else 0.0, "frac"),
        "adaptivity.failed_steps": (k("failed_steps") / r, "count"),
        "stepping.error_estimates_s": (t("stepping.error_estimates") / r, "s"),
        "adaptivity.err_ratio_max": (max((v.err_ratio for v in traced.first if v is not None and v.drive),
                                         default=0.0), "ratio"),
        "stability.scan_s": (t("stability.scan_region") / r, "s"),
        "stability.cells": (k("cells") / r, "count"),
        "stability.cells_per_s": (k("cells") / t("stability.scan_region") if t("stability.scan_region") else 0.0, "1/s"),
        "stability.singular_cells": (k("singular_cells") / r, "count"),
        "cli.self_s": ((s("cli.main") + s("cli.write_csv")) / r, "s"),
        "cli.bytes_written": (traced.bytes_written / r, "B"),
        "assembly.assemble_s": (s("assembly.assemble") / r, "s"),
        "assembly.checks_s": (s("assembly.checks") / r, "s"),
        "order.residuals_s": (s("order.residuals") / r, "s"),
        "order.classify_s": (s("order.classify") / r, "s"),
        "schemes.lookup_s": (t("schemes.lookup") / r, "s"),
        "bench.job_self_s": (s("bench.job") / r, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.accounted_frac": (layer_self / job_time if job_time else 0.0, "frac"),
        "trace.overhead_frac": (traced_wall / sum(untraced.per_job_times()) - 1.0, "frac"),
    }
    return values


def write_record(args, env, jobs, phases, metrics, level, rec=None) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "tail_percentile": level, "metrics": metrics, "phases": []}
    for label, phase in phases:
        record["phases"].append({
            "phase": label, "rounds": phase.rounds, "attempted": phase.attempted,
            "failed": phase.failed, "failures": phase.failures,
            "jobs": [
                {"label": job.label, "samples_s": samples, "raw_samples_s": raw,
                 "rhs_evals": v.rhs_evals if v else None, "err_ratio": v.err_ratio if v else None,
                 "ok": v.ok if v else None}
                for job, samples, raw, v in zip(jobs, phase.samples, phase.raw, phase.first)
            ],
        })
    if rec is not None:
        record["span_totals"] = rec.snapshot()
        record["spans"] = rec.spans()
    with open(path, "w") as fh:
        json.dump(record, fh, default=str)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrgark" / "__init__.py").is_file():
        print(f"perfbench: no mrgark package under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))

    wl, setup_main = setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        import stats
        from calib import Kernel
        from spans import SpanRecorder, instrument

        setup_s = stats.median([setup_main] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)])
        env = environment(args.seed)
        wl.prepare(CACHE_DIR)

        if args.trace:
            kernel = Kernel(args.workload)
            untraced = run_phase(wl, args.seconds / 2, kernel)
            rec = SpanRecorder()
            with instrument(rec):
                traced = run_phase(wl, args.seconds / 2, kernel, rec, whole_rounds=True)
            phases = [("untraced", untraced), ("traced", traced)]
            values = per_layer(rec, traced, untraced)
        else:
            rec = None
            timed = run_phase(wl, args.seconds, Kernel(args.workload))
            phases = [("timed", timed)]
            e2e = end_to_end(timed, setup_s)
            values = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    finally:
        wl.cleanup()

    attempted = sum(p.attempted for _, p in phases)
    failed = sum(p.failed for _, p in phases)
    level = stats.tail_level(len(wl.jobs))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    path = write_record(args, env, wl.jobs, phases, metrics, level, rec)
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"perfbench: workload={args.workload} jobs/pass={len(wl.jobs)} "
          f"passes={','.join(str(p.rounds) for _, p in phases)} executions={attempted} "
          f"job_tail_s=p{level} of {len(wl.jobs)} per-job times; record {path.relative_to(ROOT)}")
    for label, phase in phases:
        raw, scaled = sum(phase.per_job_times(raw=True)), sum(phase.per_job_times())
        print(f"perfbench: {label} pass: {raw:.4g} s as measured, {scaled:.4g} s at the reference speed "
              f"(host at {scaled / raw:.2f}x the reference)")
    for _, phase in phases:
        if phase.unrepeatable:
            print(f"perfbench: WARNING counts differ between passes for {len(phase.unrepeatable)} jobs")
        for msg in phase.failures:
            print(f"perfbench: FAIL {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
