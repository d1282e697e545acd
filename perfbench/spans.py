"""In-memory span recorder and the patches that wrap mrgark's entry points.

Spans are recorded from outside the library: ``instrument`` swaps the public
functions the benchmark cares about for wrappers that open a span, call the
original and close the span, and puts the originals back on exit.  A span
records (name, start, end, parent, job id).  Self time is a span's duration
minus the time covered by its direct children, so the self times of every
span under a job root add up to the root's duration.

Only spans opened inside a job root are recorded; calls made by the
benchmark's own correctness checks run through the same wrappers but leave
no trace.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

#: raw spans kept for the written trace; aggregates always cover every span
RAW_SPAN_CAP = 100_000


class SpanRecorder:
    def __init__(self, raw_span_cap: int = RAW_SPAN_CAP):
        self.raw_span_cap = raw_span_cap
        self.stack: list[list] = []  # [name, start, child_seconds, raw_index]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_parent: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.raw: list[tuple] = []
        self.job_id = -1

    def enter(self, name: str) -> None:
        idx = -1
        if len(self.raw) < self.raw_span_cap:
            idx = len(self.raw)
            self.raw.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, idx])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, idx = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        parent_name = ""
        parent_idx = -1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_name, parent_idx = parent[0], parent[3]
        self.by_parent[(name, parent_name)] += 1
        if idx >= 0:
            self.raw[idx] = (name, start, end, parent_idx, self.job_id)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Root span of one job; everything the job calls nests under it."""
        self.job_id = job_id
        self.enter("bench.job")
        try:
            yield
        finally:
            self.exit()

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in (r for r in self.raw if r is not None)
        ]

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "by_parent": {f"{n}<{p}": c for (n, p), c in self.by_parent.items()},
        }


def span_wrap(rec: SpanRecorder, name: str, fn, on_result=None, on_args=None):
    """Return ``fn`` wrapped in a span; untouched outside a job root."""

    def wrapper(*args, **kwargs):
        if not rec.stack:
            return fn(*args, **kwargs)
        if on_args is not None:
            on_args(rec, args, kwargs)
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if on_result is not None:
            on_result(rec, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _step_args(rec, args, kwargs):
    M = kwargs["M"] if "M" in kwargs else args[5]
    rec.count("micro_steps", M)


def _newton_result(rec, out):
    rec.count("newton_iterations", out.iterations)


def _drive_result(rec, out):
    state = out.state
    rec.count("accepted", state.accepted)
    rec.count("rejected", state.rejected)
    rec.count("failed_steps", sum(1 for r in state.trace if r.eps_total == float("inf")))


def _scan_result(rec, grid):
    import numpy as np

    rec.count("cells", grid.values.size)
    rec.count("singular_cells", int(np.count_nonzero(np.isnan(grid.values))))


def _patch_targets():
    """(owner, attribute, span name, on_result, on_args) for every wrapped entry point."""
    from mrgark import adaptivity, cli, order, stepping
    from mrgark.stability import RegionGrid
    from mrgark.tableaux import MrGarkMethod

    return [
        (adaptivity, "drive", "adaptivity.drive", _drive_result, None),
        (adaptivity, "step", "stepping.step", None, _step_args),
        (stepping, "step", "stepping.step", None, _step_args),
        (adaptivity, "error_estimates", "stepping.error_estimates", None, None),
        (adaptivity, "balancing_update", "adaptivity.update", None, None),
        (adaptivity, "efficiency_update", "adaptivity.update", None, None),
        (stepping, "newton_solve", "stepping.newton_solve", _newton_result, None),
        (MrGarkMethod, "coupling", "tableaux.coupling", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "registry_lookup", "schemes.lookup", None, None),
        (cli, "assemble", "assembly.assemble", None, None),
        (order, "assemble", "assembly.assemble", None, None),
        (cli, "check_internal_consistency", "assembly.checks", None, None),
        (cli, "check_decoupled", "assembly.checks", None, None),
        (cli, "check_stiff_accuracy", "assembly.checks", None, None),
        (cli, "check_telescopic", "assembly.checks", None, None),
        (cli, "derive_schedule", "assembly.checks", None, None),
        (cli, "residuals", "order.residuals", None, None),
        (order, "residuals", "order.residuals", None, None),
        (cli, "classify", "order.classify", None, None),
        (cli, "scan_region", "stability.scan_region", _scan_result, None),
        (RegionGrid, "write_csv", "cli.write_csv", None, None),
    ]


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Wrap the library's entry points for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, on_result, on_args in _patch_targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, span_wrap(rec, name, original, on_result, on_args))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
