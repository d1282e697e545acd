"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The tiny runs go through ``run.py`` with the same arguments as a full run,
plus ``--tiny`` job lists so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS, WORKLOADS, pin_threads, run_phase  # noqa: E402

pin_threads()  # before numpy is imported, as in a benchmark run

import calib  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, instrument, span_wrap  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_every_oracle(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert out["metrics"]["ok_frac"]["value"] == 1.0
        assert all(out["metrics"][name]["value"] > 0 for name in END_TO_END_UNITS)


def test_same_seed_same_jobs_and_counts():
    first = bench("--workload", "scalar-adaptive", "--seed", "7", "--seconds", "1", "--tiny")
    second = bench("--workload", "scalar-adaptive", "--seed", "7", "--seconds", "1", "--tiny")
    a, b = last_json(first)["metrics"], last_json(second)["metrics"]
    for name in ("rhs_evals", "err_ratio_gmean", "ok_frac"):
        assert a[name]["value"] == b[name]["value"], name
    for name in WORKLOADS:
        labels = [j.label for j in workloads.build(name, 7, tiny=True, scratch_dir=HERE / ".out" / "t").jobs]
        again = [j.label for j in workloads.build(name, 7, tiny=True, scratch_dir=HERE / ".out" / "t").jobs]
        assert labels
        assert labels == again
    other = [j.label for j in workloads.build("scalar-adaptive", 8).jobs]
    assert other != [j.label for j in workloads.build("scalar-adaptive", 7).jobs]


def test_self_times_add_up_to_the_root():
    rec = SpanRecorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = span_wrap(rec, "leaf", leaf)
    wrapped_middle = span_wrap(rec, "middle", middle)
    wrapped_middle()  # outside a job: not recorded
    assert not rec.calls
    with rec.job(0):
        wrapped_middle()
        wrapped_leaf()
    assert rec.calls == {"leaf": 3, "middle": 1, "bench.job": 1}
    assert sum(rec.self_s.values()) == pytest.approx(rec.total_s["bench.job"], rel=1e-9)
    assert rec.by_parent[("leaf", "middle")] == 2 and rec.by_parent[("leaf", "bench.job")] == 1
    spans = rec.spans()
    duration = lambda s: s["end"] - s["start"]
    for i, span in enumerate(spans):
        children = [s for s in spans if s["parent"] == i]
        assert all(span["start"] <= c["start"] <= c["end"] <= span["end"] for c in children)
        if span["name"] == "middle":
            assert len(children) == 2
            assert rec.self_s["middle"] == pytest.approx(duration(span) - sum(map(duration, children)), rel=1e-9)
    root = spans.index([s for s in spans if s["name"] == "bench.job"][0])
    assert sorted(s["name"] for s in spans if s["parent"] == root) == ["leaf", "middle"]


def test_traced_record_self_times_account_for_jobs():
    proc = bench("--workload", "gray-scott-implicit", "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((HERE / ".out" / "gray-scott-implicit-seed5-trace1.json").read_text())
    totals = record["span_totals"]
    assert sum(totals["self_s"].values()) == pytest.approx(totals["total_s"]["bench.job"], rel=1e-9)
    assert totals["by_parent"].get("problems.rhs_slow<stepping.newton_solve", 0) > 0
    layers = last_json(proc)["metrics"]
    assert layers["trace.accounted_frac"]["value"] > 0.9
    assert layers["stepping.newton_rhs_calls"]["value"] > layers["problems.jac_calls"]["value"]


def test_instrument_restores_the_library():
    from mrgark import adaptivity, stepping
    from mrgark.tableaux import MrGarkMethod

    before = (adaptivity.step, stepping.newton_solve, MrGarkMethod.__dict__["coupling"])
    with instrument(SpanRecorder()):
        assert adaptivity.step is not before[0]
    assert (adaptivity.step, stepping.newton_solve, MrGarkMethod.__dict__["coupling"]) == before


def test_job_times_are_scaled_by_the_calibration_kernel():
    class SlowHost:  # the kernel takes 4x its reference time: the host runs at a quarter speed
        ref_s = 0.5

        def sample(self):
            return 2.0

    calls = []
    jobs = [workloads.Job(f"job {i}", lambda rec, i=i: calls.append(i) or sum(range(20000 * (i + 1))),
                          lambda out: workloads.CheckResult(True, 1.0, 1)) for i in range(3)]
    phase = run_phase(workloads.Workload(jobs, warmup=lambda: None), 0.3, SlowHost())
    assert phase.rounds >= 1 and phase.failed == 0
    assert calls[:3] == [0, 1, 2]
    for raw, scaled in zip(phase.raw, phase.samples):
        assert len(raw) >= phase.rounds
        assert scaled == pytest.approx([0.25 * r for r in raw], rel=1e-12)
    assert phase.speed_scale() == pytest.approx(0.25, rel=1e-12)
    assert phase.per_job_times(raw=True) == [stats.median(r) for r in phase.raw]
    for name in calib.KERNELS:
        assert 0.05 < calib.Kernel(name).speed_scale() < 20.0


def test_percentile_helper_on_known_samples():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.75
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert stats.percentile([5.0], 90) == 5.0
    samples = [float(x) for x in range(1, 101)]
    assert stats.percentile(samples, 90) == pytest.approx(90.1)
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    assert [stats.tail_level(n) for n in (10, 20, 32, 40, 72, 144, 1000)] == [50, 50, 68, 75, 86, 93, 99]
    for n in (32, 40, 72, 144):
        assert n * (1 - stats.tail_level(n) / 100) >= 10 - 1e-9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", ".cache", "__pycache__"))
    proc = bench("--workload", "scalar-adaptive", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
