"""Core method data types: Butcher tableaus and multirate pairs.

A multirate GARK method advances a two-way additively partitioned ODE with a
slow base Runge-Kutta method taking one macro-step H while the fast base
method takes M micro-steps of size h = H/M.  The cross coupling is described
by two families of matrices, one per micro-step index lambda: a fast-slow
block (slow information entering fast stages) and a slow-fast block (fast
information entering slow stages).  Both are functions of (lambda, M);
every consumer reads the whole family at one M from :meth:`MrGarkMethod.couplings`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidInput, LambdaOutOfRange, check_choice, check_count, check_real_array

__all__ = [
    "TableauKind",
    "MethodFlag",
    "ButcherTableau",
    "MrGarkMethod",
]

#: a tableau's sums and diagonal hold within this times max(1, the size of their terms), e.g. sum|b| for sum(b) = 1
_ROWSUM_TOL = 1e-13


class TableauKind(enum.Enum):
    EXPLICIT = "explicit"
    SDIRK = "sdirk"


class MethodFlag(enum.Enum):
    """Structural properties a registered method declares (and tests verify)."""

    TELESCOPIC = "telescopic"
    NATURALLY_ADAPTIVE = "naturally-adaptive"
    STIFFLY_ACCURATE_SLOW = "stiffly-accurate-slow"
    STIFFLY_ACCURATE_FAST = "stiffly-accurate-fast"
    FSAL = "fsal"


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """One base Runge-Kutta method (A, b, embedded b_hat, c).

    Checked when built (InvalidInput): finite real A (s, s) and b, b_hat, c (s,), s >= 1,
    rows of A summing to c and b summing to 1; ``kind`` EXPLICIT with A strictly lower
    triangular and no ``gamma``, or SDIRK with A lower triangular and its diagonal a
    finite ``gamma`` > 0.  Instances are immutable; the arrays are read-only.
    """

    A: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    c: np.ndarray
    kind: TableauKind
    gamma: float | None = None

    def __post_init__(self):
        for key in ("A", "b", "b_hat", "c"):
            object.__setattr__(self, key, _freeze(check_real_array(getattr(self, key), f"tableau {key}")))
        A, b, c, s = self.A, self.b, self.c, self.b.size
        shapes = A.shape, b.shape, self.b_hat.shape, c.shape
        if not s or shapes != ((s, s), (s,), (s,), (s,)) or not np.isfinite(np.vstack([A, b, self.b_hat, c])).all():
            raise InvalidInput(f"tableau A, b, b_hat, c must be finite, shaped (s, s), (s,), (s,), (s,), got {shapes}")
        if not isinstance(self.kind, TableauKind) or self.is_implicit == (self.gamma is None):
            raise InvalidInput(f"tableau needs a TableauKind, gamma None iff EXPLICIT: {self.kind!r}, {self.gamma!r}")
        if self.is_implicit:
            gamma = check_real_array(self.gamma, "SDIRK gamma")  # unlike check_real, refuses an int past the float range
            if gamma.shape or not 0.0 < gamma < np.inf:
                raise InvalidInput(f"SDIRK gamma must be a finite real > 0, got {self.gamma!r}")
            object.__setattr__(self, "gamma", float(gamma))
        g = self.gamma or 0.0  # the diagonal; an explicit one is zero exactly
        if np.triu(A, int(self.is_implicit)).any() or np.any(np.abs(np.diag(A) - g) > _ROWSUM_TOL * max(1.0, g)):
            raise InvalidInput(f"{self.kind.value} tableau A must be lower triangular with diagonal {g}")
        if (np.any(np.abs(A.sum(axis=1) - c) > _ROWSUM_TOL * np.maximum(1.0, np.abs(A).sum(axis=1)))
                or abs(b.sum() - 1.0) > _ROWSUM_TOL * max(1.0, np.abs(b).sum())):
            raise InvalidInput("the rows of a tableau's A must sum to c, and b must sum to 1")

    @property
    def stage_count(self) -> int:
        return self.b.shape[0]

    @property
    def is_implicit(self) -> bool:
        return self.kind is TableauKind.SDIRK


@dataclass(frozen=True, eq=False)
class MrGarkMethod:
    """A fast/slow base pair plus both coupling families and declared metadata.

    ``name`` follows the multirate GARK naming convention
    ``FAST-SLOW p(phat) [stages] type``, e.g. ``"EX-IM 2(1)A"``.
    ``order`` is the order of the main solution, ``embedded_order`` that of
    the embedded solution used for error estimation (integers >= 1).  ``fs_coupling``
    and ``sf_coupling`` are pure functions (lambda, M) -> finite real block;
    ``free_parameters`` names the constants baked into them (the type-S abscissa c2, ...).
    ``m_max`` is the largest M the M-adapting controllers may choose for the
    pair (None: no ceiling); it narrows their M bounds and never lowers their
    floor.  Fixed-M callers (``step``, ``verify``, ``stability``) ignore it.
    ``MethodFlag.FSAL`` (first same as last) needs an explicit fast base; on
    an SDIRK one, whose first stage is solved for, it raises InvalidInput.
    """

    name: str
    fast: ButcherTableau
    slow: ButcherTableau
    fs_coupling: Callable[[int, int], np.ndarray]
    sf_coupling: Callable[[int, int], np.ndarray]
    order: int
    embedded_order: int
    flags: frozenset[MethodFlag] = frozenset()
    free_parameters: Mapping[str, float] = field(default_factory=dict)
    m_max: int | None = None

    def __post_init__(self):
        if not (isinstance(self.fast, ButcherTableau) and isinstance(self.slow, ButcherTableau)):
            raise InvalidInput(f"{self.name}: fast and slow must be ButcherTableau instances")
        if MethodFlag.FSAL in self.flags and self.fast.is_implicit:
            raise InvalidInput(f"{self.name}: first-same-as-last needs an explicit fast base, not an SDIRK one")
        for key in ("order", "embedded_order") + (("m_max",) if self.m_max is not None else ()):
            object.__setattr__(self, key, check_count(getattr(self, key), key))

    @property
    def stage_counts(self) -> tuple[int, int]:
        """(fast stages per micro-step, slow stages)."""
        return self.fast.stage_count, self.slow.stage_count

    def has_flag(self, flag: MethodFlag) -> bool:
        return flag in self.flags

    def coupling(self, side: str, lam: int, M: int) -> np.ndarray:
        """Evaluate A^{fs,lambda} (side="fs") or A^{sf,lambda} (side="sf"), read-only."""
        check_choice(side, "side", ("fs", "sf"))
        if not 1 <= lam <= M:
            raise LambdaOutOfRange(f"lambda={lam} outside 1..{M}")
        s_f, s_s = self.stage_counts
        shape, rule = ((s_f, s_s), self.fs_coupling) if side == "fs" else ((s_s, s_f), self.sf_coupling)
        where = f"{self.name}: {side} coupling at lambda={lam}, M={M}"
        out = check_real_array(rule(lam, M), where)
        if out.shape != shape or not np.isfinite(out).all():
            raise InvalidInput(f"{where} must be a finite {shape} array (the stage counts), got shape {out.shape}")
        return _freeze(out)

    # typed: a bool or float M is its own key, so it is checked, not served a cached int's stacks
    @lru_cache(maxsize=1024, typed=True)
    def couplings(self, M: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only stacks ``fs`` (M, s_f, s_s) and ``sf`` (M, s_s, s_f) with
        ``fs[lambda-1]`` = A^{fs,lambda}, ``sf[lambda-1]`` = A^{sf,lambda}; cached per (method, M)."""
        M = check_count(M)
        return tuple(_freeze(np.stack([self.coupling(side, lam, M) for lam in range(1, M + 1)]))
                     for side in ("fs", "sf"))
