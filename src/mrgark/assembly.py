"""Assembly of the full multirate GARK tableau and structural verification.

For a pair with s_f fast and s_s slow stages and multirate ratio M, the
assembled method has s = M*s_f + s_s stages.  Fast stage i of micro-step
lambda sits at global row (lambda-1)*s_f + i, the slow stages occupy the last
s_s rows.  The fast diagonal carries (1/M)*A_ff, completed micro-steps below
it contribute the telescoping rank-one blocks (1/M)*1*b_f^T, and the coupling
super-blocks fill the off-diagonal corners.  :func:`coupling_superblocks` lays
those out in O(M); assembly, the block-form residuals and the structure checks
all read it, so no check builds the dense tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoupledMethod, InvalidInput, NotImplicitPartition, check_choice, check_count, check_type
from .tableaux import MrGarkMethod, TableauKind

__all__ = [
    "GarkMatrix",
    "ConsistencyReport",
    "assemble",
    "coupling_superblocks",
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
#: bounds on the consistency residuals and the stiff-accuracy gap (roundoff for every registered pair)
CONSISTENCY_TOL = 1e-10
STIFF_ACCURACY_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GarkMatrix:
    """Fully assembled (M*s_f + s_s)-stage tableau, with the method it was built from."""

    method: MrGarkMethod
    M: int
    s_f: int
    s_s: int
    A: np.ndarray  # (s, s)
    b: np.ndarray  # (s,) main weights: [(1/M) b_f repeated, b_s]
    c: np.ndarray  # (s,) abscissae

    @property
    def stage_count(self) -> int:
        return self.M * self.s_f + self.s_s


@dataclass(frozen=True)
class ConsistencyReport:
    max_fs_residual: float
    max_sf_residual: float

    @property
    def passed(self) -> bool:
        return self.max_fs_residual < CONSISTENCY_TOL and self.max_sf_residual < CONSISTENCY_TOL


def coupling_superblocks(method: MrGarkMethod, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fast abscissae and the coupling super-blocks A_fs, A_sf, laid out in O(M).

    From :meth:`MrGarkMethod.couplings`: micro-step lambda's abscissae are
    (c_f + lambda - 1)/M, A_fs (M*s_f, s_s) stacks the A^{fs,lambda}, and
    A_sf (s_s, M*s_f) puts the A^{sf,lambda}/M end to end.
    """
    fs, sf = method.couplings(M)
    c_fast = ((method.fast.c + np.arange(M)[:, None]) / M).ravel()
    return c_fast, fs.reshape(M * method.fast.stage_count, -1), np.concatenate(sf / M, axis=1)


def assemble(method: MrGarkMethod, M: int) -> GarkMatrix:
    """Build the full tableau of the multirate pair at ratio ``M``, an integer in 1..MAX_ASSEMBLED_M."""
    check_type(method, "method", MrGarkMethod)
    M = check_count(M)
    if M > MAX_ASSEMBLED_M:
        raise InvalidInput(f"M must be in 1..{MAX_ASSEMBLED_M}, got {M}")
    s_f, s_s = method.stage_counts
    n = M * s_f
    c_fast, A_fs, A_sf = coupling_superblocks(method, M)
    A = np.zeros((n + s_s, n + s_s))
    # A_ff as blocks[lambda, kappa] = (s_f, s_f) block; splitting axes keeps it a view of A
    blocks = A[:n, :n].reshape(M, s_f, M, s_f).transpose(0, 2, 1, 3)
    blocks[np.tri(M, k=-1, dtype=bool)] = method.fast.b / M
    blocks[np.arange(M), np.arange(M)] = method.fast.A / M
    A[:n, n:] = A_fs
    A[n:, :n] = A_sf
    A[n:, n:] = method.slow.A

    b = np.concatenate([np.tile(method.fast.b / M, M), method.slow.b])
    c = np.concatenate([c_fast, method.slow.c])
    for a in (A, b, c):
        a.flags.writeable = False
    return GarkMatrix(method=method, M=M, s_f=s_f, s_s=s_s, A=A, b=b, c=c)


def check_internal_consistency(method: MrGarkMethod, M: int) -> ConsistencyReport:
    """Row sums of each coupling super-block must reproduce the abscissae.

    Fast and slow right-hand sides are then sampled at identical points in
    time, which is what reduces the coupled order conditions to the small
    catalog handled by the order module.
    """
    c_fast, A_fs, A_sf = coupling_superblocks(method, M)
    fs = float(np.max(np.abs(A_fs.sum(axis=1) - c_fast)))
    sf = float(np.max(np.abs(A_sf.sum(axis=1) - method.slow.c)))
    return ConsistencyReport(max_fs_residual=fs, max_sf_residual=sf)


def check_telescopic(method: MrGarkMethod) -> bool:
    """True iff fast and slow base tableaus are entrywise identical (A and b)."""
    return bool(
        method.fast.stage_count == method.slow.stage_count
        and np.array_equal(method.fast.A, method.slow.A)
        and np.array_equal(method.fast.b, method.slow.b)
    )


def check_decoupled(method: MrGarkMethod, M: int) -> bool:
    """Sparsity complementarity: A_sf and A_fs^T share no nonzero position."""
    _, A_fs, A_sf = coupling_superblocks(method, M)
    return not np.any((A_sf != 0.0) & (A_fs.T != 0.0))


def check_stiff_accuracy(method: MrGarkMethod, M: int, partition: str) -> bool:
    """Last stage row of the implicit partition must equal the full weights.

    Compares, with the same floats, the blocks of the assembled row that can
    differ from b: its earlier micro-steps hold (1/M) b_f, equal to b exactly.
    """
    part = check_choice(partition, "partition", ("fast", "slow"))
    base = method.fast if part == "fast" else method.slow
    if base.kind is not TableauKind.SDIRK:
        raise NotImplicitPartition(f"{method.name}: {part} partition is explicit")
    fs, sf = method.couplings(M)
    bf, bs = method.fast.b / M, method.slow.b
    if part == "fast":
        gap = max(np.max(np.abs(method.fast.A[-1] / M - bf)), np.max(np.abs(fs[-1, -1] - bs)))
    else:
        gap = max(np.max(np.abs(sf[:, -1] / M - bf)), np.max(np.abs(method.slow.A[-1] - bs)))
    return bool(gap < STIFF_ACCURACY_TOL)


def _last_nonzero(block: np.ndarray) -> np.ndarray:
    """Column of the last nonzero entry of each row, -1 for an all-zero row."""
    nz = block != 0.0
    return np.where(nz.any(axis=1), nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), -1)


def place_slow_stages(method: MrGarkMethod, fs_blocks, sf_blocks) -> tuple[tuple, tuple[int, ...]]:
    """Place each slow stage, in index order, right after the last fast stage feeding it.

    ``fs_blocks`` and ``sf_blocks`` are the stacks of :meth:`MrGarkMethod.couplings`;
    only their zero pattern is read, in O(M*s_f*s_s).  Returns the slow stages to
    compute before each fast stage (lambda-1)*s_f + i, and those left for after the
    last micro-step.  A cycle, the one fault left to find here, raises :class:`CoupledMethod`.
    """
    s_f, s_s = method.stage_counts
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
    triangular.  Cyclic dependencies raise :class:`CoupledMethod`.
    """
    before, trailing = place_slow_stages(method, *method.couplings(M))
    n_fast = M * method.fast.stage_count
    order: list[int] = []
    for k, slow in enumerate(before):
        order.extend(n_fast + j for j in slow)
        order.append(k)
    order.extend(n_fast + j for j in trailing)
    return tuple(order)
