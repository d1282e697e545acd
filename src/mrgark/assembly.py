"""Assembly of the full multirate GARK tableau and structural verification.

For a pair with s_f fast and s_s slow stages and multirate ratio M, the
assembled method has s = M*s_f + s_s stages.  Fast stage i of micro-step
lambda sits at global row (lambda-1)*s_f + i, the slow stages occupy the last
s_s rows.  The fast diagonal carries (1/M)*A_ff, completed micro-steps below
it contribute the telescoping rank-one blocks (1/M)*1*b_f^T, and the coupling
families fill the off-diagonal super-blocks (slow-fast blocks scaled by 1/M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoupledMethod, InvalidInput, NotImplicitPartition
from .tableaux import MrGarkMethod, TableauKind, _check_count

__all__ = [
    "GarkMatrix",
    "ConsistencyReport",
    "assemble",
    "check_internal_consistency",
    "check_telescopic",
    "check_decoupled",
    "check_stiff_accuracy",
    "derive_schedule",
    "place_slow_stages",
]

#: assembled tableaus get unwieldy beyond this; integration streams micro-steps
#: instead of materializing the matrix, so the cap only guards this module.
MAX_ASSEMBLED_M = 10_000


@dataclass(frozen=True, eq=False)
class GarkMatrix:
    """Fully assembled (M*s_f + s_s)-stage tableau."""

    M: int
    s_f: int
    s_s: int
    A: np.ndarray  # (s, s)
    b: np.ndarray  # (s,) main weights: [(1/M) b_f repeated, b_s]
    c: np.ndarray  # (s,) abscissae

    @property
    def stage_count(self) -> int:
        return self.M * self.s_f + self.s_s

    # superblock views used by the order-condition evaluators
    @property
    def A_ff(self) -> np.ndarray:
        n = self.M * self.s_f
        return self.A[:n, :n]

    @property
    def A_fs(self) -> np.ndarray:
        n = self.M * self.s_f
        return self.A[:n, n:]

    @property
    def A_sf(self) -> np.ndarray:
        n = self.M * self.s_f
        return self.A[n:, :n]

    @property
    def A_ss(self) -> np.ndarray:
        n = self.M * self.s_f
        return self.A[n:, n:]

    @property
    def c_fast(self) -> np.ndarray:
        return self.c[: self.M * self.s_f]

    @property
    def c_slow(self) -> np.ndarray:
        return self.c[self.M * self.s_f:]


@dataclass(frozen=True)
class ConsistencyReport:
    max_fs_residual: float
    max_sf_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_fs_residual < self.tol and self.max_sf_residual < self.tol


def assemble(method: MrGarkMethod, M: int) -> GarkMatrix:
    """Build the full tableau of the multirate pair at ratio ``M``."""
    M = _check_count(M)
    if M > MAX_ASSEMBLED_M:
        raise InvalidInput(f"M must be in 1..{MAX_ASSEMBLED_M}, got {M}")
    s_f, s_s = method.stage_counts
    n_fast = M * s_f
    s = n_fast + s_s
    A = np.zeros((s, s))
    bf, bs = method.fast.b, method.slow.b
    fs, sf = method.couplings(M)

    for lam in range(1, M + 1):
        r0 = (lam - 1) * s_f
        A[r0:r0 + s_f, r0:r0 + s_f] = method.fast.A / M
        for kap in range(1, lam):
            c0 = (kap - 1) * s_f
            A[r0:r0 + s_f, c0:c0 + s_f] = np.tile(bf / M, (s_f, 1))
    A[:n_fast, n_fast:] = fs.reshape(n_fast, s_s)
    A[n_fast:, :n_fast] = np.concatenate(sf / M, axis=1)
    A[n_fast:, n_fast:] = method.slow.A

    b = np.concatenate([np.tile(bf / M, M), bs])
    c_fast = np.concatenate([(method.fast.c + lam) / M for lam in range(M)])
    c = np.concatenate([c_fast, method.slow.c])
    A.flags.writeable = False
    b.flags.writeable = False
    c.flags.writeable = False
    return GarkMatrix(M=M, s_f=s_f, s_s=s_s, A=A, b=b, c=c)


def check_internal_consistency(g: GarkMatrix, tol: float = 1e-10) -> ConsistencyReport:
    """Row sums of each coupling super-block must reproduce the abscissae.

    Fast and slow right-hand sides are then sampled at identical points in
    time, which is what reduces the coupled order conditions to the small
    catalog handled by the order module.
    """
    fs = float(np.max(np.abs(g.A_fs.sum(axis=1) - g.c_fast)))
    sf = float(np.max(np.abs(g.A_sf.sum(axis=1) - g.c_slow)))
    return ConsistencyReport(max_fs_residual=fs, max_sf_residual=sf, tol=tol)


def check_telescopic(method: MrGarkMethod) -> bool:
    """True iff fast and slow base tableaus are entrywise identical (A and b)."""
    return bool(
        method.fast.stage_count == method.slow.stage_count
        and np.array_equal(method.fast.A, method.slow.A)
        and np.array_equal(method.fast.b, method.slow.b)
    )


def check_decoupled(g: GarkMatrix) -> bool:
    """Sparsity complementarity: A_sf and A_fs^T share no nonzero position."""
    return not np.any((g.A_sf != 0.0) & (g.A_fs.T != 0.0))


def check_stiff_accuracy(method: MrGarkMethod, M: int, partition: str, tol: float = 1e-13) -> bool:
    """Last stage row of the implicit partition must equal the full weights.

    Compares, with the same floats, the blocks of the assembled row that can
    differ from b: its earlier micro-steps hold (1/M) b_f, equal to b exactly.
    """
    part = partition.lower() if isinstance(partition, str) else partition
    if part not in ("fast", "slow"):
        raise InvalidInput(f"partition must be 'fast' or 'slow', got {partition!r}")
    base = method.fast if part == "fast" else method.slow
    if base.kind is not TableauKind.SDIRK:
        raise NotImplicitPartition(f"{method.name}: {part} partition is explicit")
    fs, sf = method.couplings(M)
    bf, bs = method.fast.b / M, method.slow.b
    if part == "fast":
        gap = max(np.max(np.abs(method.fast.A[-1] / M - bf)), np.max(np.abs(fs[-1, -1] - bs)))
    else:
        gap = max(np.max(np.abs(sf[:, -1] / M - bf)), np.max(np.abs(method.slow.A[-1] - bs)))
    return bool(gap < tol)


def _last_nonzero(block: np.ndarray) -> np.ndarray:
    """Column of the last nonzero entry of each row, -1 for an all-zero row."""
    nz = block != 0.0
    return np.where(nz.any(axis=1), nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), -1)


def place_slow_stages(method: MrGarkMethod, fs_blocks, sf_blocks) -> tuple[tuple, tuple[int, ...]]:
    """Place each slow stage, in index order, right after the last fast stage feeding it.

    ``fs_blocks`` and ``sf_blocks`` are the stacks of
    :meth:`MrGarkMethod.couplings`; only their zero pattern is read, in
    O(M*s_f*s_s).  Returns the slow stages to compute before each fast stage
    (lambda-1)*s_f + i, and those left for after the last micro-step.
    """
    s_f, s_s = method.stage_counts
    for base, label in ((method.fast, "fast"), (method.slow, "slow")):
        if np.any(np.triu(base.A, 1) != 0.0):
            raise CoupledMethod(f"{method.name}: {label} stages depend on later {label} stages")
        if base.kind is not TableauKind.SDIRK and np.any(np.diag(base.A) != 0.0):
            raise CoupledMethod(f"{method.name}: a {label} stage is implicit but its partition is explicit")
    # last fast stage feeding each slow stage; slow stages each fast stage needs
    last_feed = np.full(s_s, -1)
    needs: list[int] = []
    for lam, (fs, sf) in enumerate(zip(fs_blocks, sf_blocks)):
        feed = _last_nonzero(sf)
        last_feed = np.where(feed >= 0, lam * s_f + feed, last_feed)
        needs.extend((_last_nonzero(fs) + 1).tolist())
    last_feed = last_feed.tolist()
    before, done = [], 0
    for k, need in enumerate(needs):
        start = done
        while done < s_s and last_feed[done] < k:
            done += 1
        if need > done:
            raise CoupledMethod(f"{method.name}: stage dependencies are cyclic at M={len(fs_blocks)}; "
                                "no decoupled evaluation order exists")
        before.append(tuple(range(start, done)))
    return tuple(before), tuple(range(done, s_s))


def derive_schedule(method: MrGarkMethod, M: int) -> tuple[int, ...]:
    """Evaluation order of the assembled stages, as the stepper runs them.

    Global stage indices (0-based: fast stage i of micro-step lambda is
    (lambda-1)*s_f + i, slow stage j is M*s_f + j) in computation order.
    Ready slow stages go first, in index order, then the next fast stage (see
    :func:`place_slow_stages`), so the permuted assembled tableau is lower
    triangular.  Cyclic dependencies, or an implicit stage in an explicit
    partition, raise :class:`CoupledMethod`.
    """
    before, trailing = place_slow_stages(method, *method.couplings(M))
    n_fast = M * method.fast.stage_count
    order: list[int] = []
    for k, slow in enumerate(before):
        order.extend(n_fast + j for j in slow)
        order.append(k)
    order.extend(n_fast + j for j in trailing)
    return tuple(order)
