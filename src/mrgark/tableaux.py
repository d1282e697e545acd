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

from .errors import InvalidInput, LambdaOutOfRange, check_choice, check_count

__all__ = [
    "TableauKind",
    "MethodFlag",
    "ButcherTableau",
    "MrGarkMethod",
]

#: defaults for the structural invariants checked by ``ButcherTableau.validate``
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

    ``kind`` distinguishes explicit tableaus (strictly lower triangular A)
    from SDIRK ones (lower triangular with constant diagonal ``gamma``).
    Instances are immutable; the arrays are read-only views.
    """

    A: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    c: np.ndarray
    kind: TableauKind
    gamma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "b", _freeze(self.b))
        object.__setattr__(self, "b_hat", _freeze(self.b_hat))
        object.__setattr__(self, "c", _freeze(self.c))

    @property
    def stage_count(self) -> int:
        return self.b.shape[0]

    def validate(self, tol: float = _ROWSUM_TOL) -> None:
        """Raise AssertionError if the structural invariants do not hold."""
        s = self.stage_count
        assert self.A.shape == (s, s)
        assert self.b_hat.shape == (s,) and self.c.shape == (s,)
        assert np.max(np.abs(self.A.sum(axis=1) - self.c)) < tol, "row sums of A must equal c"
        assert abs(self.b.sum() - 1.0) < tol, "sum(b) must be 1"
        if self.kind is TableauKind.EXPLICIT:
            assert self.gamma is None
            assert not np.any(np.triu(self.A) != 0.0), "explicit A must be strictly lower triangular"
        else:
            assert self.gamma is not None and self.gamma > 0
            assert not np.any(np.triu(self.A, 1) != 0.0), "SDIRK A must be lower triangular"
            assert np.max(np.abs(np.diag(self.A) - self.gamma)) < tol, "SDIRK diagonal must equal gamma"

    @property
    def is_implicit(self) -> bool:
        return self.kind is TableauKind.SDIRK


@dataclass(frozen=True, eq=False)
class MrGarkMethod:
    """A fast/slow base pair plus both coupling families and declared metadata.

    ``name`` follows the multirate GARK naming convention
    ``FAST-SLOW p(phat) [stages] type``, e.g. ``"EX-IM 2(1)A"``.
    ``order`` is the order of the main solution, ``embedded_order`` that of
    the embedded solution used for error estimation.  ``fs_coupling`` and
    ``sf_coupling`` are pure functions (lambda, M) -> block; ``free_parameters``
    names the constants baked into them (the type-S abscissa c2, ...).
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
        if MethodFlag.FSAL in self.flags and self.fast.is_implicit:
            raise InvalidInput(f"{self.name}: first-same-as-last needs an explicit fast base, not an SDIRK one")
        if self.m_max is not None:
            object.__setattr__(self, "m_max", check_count(self.m_max, "m_max"))

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
        out = _freeze(rule(lam, M))
        if out.shape != shape:
            raise InvalidInput(f"{self.name}: {side} coupling returned shape {out.shape}, stage counts give {shape}")
        return out

    # typed: a bool or float M is its own key, so it is checked, not served a cached int's stacks
    @lru_cache(maxsize=1024, typed=True)
    def couplings(self, M: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only stacks ``fs`` (M, s_f, s_s) and ``sf`` (M, s_s, s_f) with
        ``fs[lambda-1]`` = A^{fs,lambda}, ``sf[lambda-1]`` = A^{sf,lambda}; cached per (method, M)."""
        M = check_count(M)
        return tuple(_freeze(np.stack([self.coupling(side, lam, M) for lam in range(1, M + 1)]))
                     for side in ("fs", "sf"))
