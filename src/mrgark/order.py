"""Order-condition residuals for multirate GARK methods, up to order 4.

One catalog states every condition once, in GARK form: weights dotted with
products of the four super-blocks and powers of the abscissae.  It covers, for
an internally consistent pair:

* per-partition base conditions of orders 1..4 (weights dotted with powers of
  the assembled abscissae and powers of the same-partition super-block), and
* the two order-3 plus ten order-4 coupled conditions that involve both
  coupling super-blocks.

:func:`residuals` evaluates the catalog in O(M) on operators built from the
base tableaus and the per-micro-step coupling blocks ("block form"), without
assembling the tableau; :func:`classify` and the ``verify`` command read it.
:func:`assembled_residuals` evaluates the same catalog on the super-blocks of
the assembled tableau ("matrix form") and is kept as the reference the block
form is tested against.  Both report all 28 conditions with the same ids and
rhs, and agree up to roundoff.  A report forms the four order-3 products
A_ff c_f, A_fs c_s, A_sf c_f and A_ss c_s once; the conditions that nest them
read those, so the block form applies A_ff four times per report.

Residual sign convention: ``value - rhs``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

import numpy as np

from .assembly import assemble, coupling_superblocks
from .errors import InvalidInput, check_choice, check_count
from .tableaux import MrGarkMethod

__all__ = [
    "Condition",
    "ConditionCatalog",
    "ResidualEntry",
    "ResidualReport",
    "WeightPair",
    "residuals",
    "assembled_residuals",
    "classify",
    "Classification",
]

WeightPair = Literal["main", "embedded", "mixed-slow-hat", "mixed-fast-hat"]

#: pass/fail tolerance used by :func:`classify`; the order-4 pairs carry
#: rationals large enough that double evaluation leaves ~1e-12 noise, so the
#: threshold is generous while still far below any genuine residual.
CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class Condition:
    id: str
    order: int
    group: Literal["slow", "fast", "coupling"]
    rhs: Fraction
    matrix_eval: Callable[[dict], float]


@dataclass(frozen=True)
class ResidualEntry:
    id: str
    order: int
    group: str
    value: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.value - self.rhs


@dataclass(frozen=True)
class ResidualReport:
    method: str
    M: int
    weights: str
    entries: tuple[ResidualEntry, ...]

    def max_abs(self, order: int | None = None, group: str | None = None) -> float:
        vals = [
            abs(e.residual)
            for e in self.entries
            if (order is None or e.order == order) and (group is None or e.group == group)
        ]
        return max(vals) if vals else 0.0

    def entry(self, cond_id: str) -> ResidualEntry:
        for e in self.entries:
            if e.id == cond_id:
                return e
        raise KeyError(cond_id)


def _build_catalog() -> tuple[Condition, ...]:
    F = Fraction
    conds: list[Condition] = []

    def add(cid, order, group, rhs, fn):
        conds.append(Condition(cid, order, group, rhs, fn))

    # ctx keys: bf, bs (assembled weights), cf, cs, the super-blocks Aff, Afs, Asf, Ass, and the
    # order-3 products Aff_cf, Afs_cs, Asf_cf, Ass_cs, formed once per report and nested below
    add("slow:b.1", 1, "slow", F(1), lambda x: x["bs"].sum())
    add("fast:b.1", 1, "fast", F(1), lambda x: x["bf"].sum())
    add("slow:b.c", 2, "slow", F(1, 2), lambda x: x["bs"] @ x["cs"])
    add("fast:b.c", 2, "fast", F(1, 2), lambda x: x["bf"] @ x["cf"])

    add("slow:b.c^2", 3, "slow", F(1, 3), lambda x: x["bs"] @ x["cs"] ** 2)
    add("fast:b.c^2", 3, "fast", F(1, 3), lambda x: x["bf"] @ x["cf"] ** 2)
    add("slow:b.Ass.c", 3, "slow", F(1, 6), lambda x: x["bs"] @ x["Ass_cs"])
    add("fast:b.Aff.c", 3, "fast", F(1, 6), lambda x: x["bf"] @ x["Aff_cf"])
    add("coupling:b.Afs.c", 3, "coupling", F(1, 6), lambda x: x["bf"] @ x["Afs_cs"])
    add("coupling:b.Asf.c", 3, "coupling", F(1, 6), lambda x: x["bs"] @ x["Asf_cf"])

    add("slow:b.c^3", 4, "slow", F(1, 4), lambda x: x["bs"] @ x["cs"] ** 3)
    add("fast:b.c^3", 4, "fast", F(1, 4), lambda x: x["bf"] @ x["cf"] ** 3)
    add("slow:b.(cxAss.c)", 4, "slow", F(1, 8), lambda x: x["bs"] @ (x["cs"] * x["Ass_cs"]))
    add("fast:b.(cxAff.c)", 4, "fast", F(1, 8), lambda x: x["bf"] @ (x["cf"] * x["Aff_cf"]))
    add("slow:b.Ass.c^2", 4, "slow", F(1, 12), lambda x: x["bs"] @ (x["Ass"] @ x["cs"] ** 2))
    add("fast:b.Aff.c^2", 4, "fast", F(1, 12), lambda x: x["bf"] @ (x["Aff"] @ x["cf"] ** 2))
    add("slow:b.Ass.Ass.c", 4, "slow", F(1, 24), lambda x: x["bs"] @ (x["Ass"] @ x["Ass_cs"]))
    add("fast:b.Aff.Aff.c", 4, "fast", F(1, 24), lambda x: x["bf"] @ (x["Aff"] @ x["Aff_cf"]))

    add("coupling:b.(cxAfs.c)", 4, "coupling", F(1, 8), lambda x: x["bf"] @ (x["cf"] * x["Afs_cs"]))
    add("coupling:b.(cxAsf.c)", 4, "coupling", F(1, 8), lambda x: x["bs"] @ (x["cs"] * x["Asf_cf"]))
    add("coupling:b.Afs.c^2", 4, "coupling", F(1, 12), lambda x: x["bf"] @ (x["Afs"] @ x["cs"] ** 2))
    add("coupling:b.Asf.c^2", 4, "coupling", F(1, 12), lambda x: x["bs"] @ (x["Asf"] @ x["cf"] ** 2))
    add("coupling:b.Ass.Asf.c", 4, "coupling", F(1, 24), lambda x: x["bs"] @ (x["Ass"] @ x["Asf_cf"]))
    add("coupling:b.Asf.Afs.c", 4, "coupling", F(1, 24), lambda x: x["bs"] @ (x["Asf"] @ x["Afs_cs"]))
    add("coupling:b.Asf.Aff.c", 4, "coupling", F(1, 24), lambda x: x["bs"] @ (x["Asf"] @ x["Aff_cf"]))
    add("coupling:b.Aff.Afs.c", 4, "coupling", F(1, 24), lambda x: x["bf"] @ (x["Aff"] @ x["Afs_cs"]))
    add("coupling:b.Afs.Ass.c", 4, "coupling", F(1, 24), lambda x: x["bf"] @ (x["Afs"] @ x["Ass_cs"]))
    add("coupling:b.Afs.Asf.c", 4, "coupling", F(1, 24), lambda x: x["bf"] @ (x["Afs"] @ x["Asf_cf"]))

    return tuple(conds)


class ConditionCatalog:
    """All order conditions evaluated by this toolkit (orders 1..4)."""

    conditions: tuple[Condition, ...] = _build_catalog()


#: the catalog's rhs as floats, converted once rather than in every report
_RHS = tuple(float(c.rhs) for c in ConditionCatalog.conditions)


def _weight_pair(method: MrGarkMethod, which: WeightPair) -> tuple[np.ndarray, np.ndarray]:
    table = {
        "main": (method.fast.b, method.slow.b),
        "embedded": (method.fast.b_hat, method.slow.b_hat),
        "mixed-slow-hat": (method.fast.b, method.slow.b_hat),
        "mixed-fast-hat": (method.fast.b_hat, method.slow.b),
    }
    return table[check_choice(which, "weight pair", table)]


class _BlockOperator:
    """The fast super-block A_ff, applied to a vector micro-step by micro-step.

    Its diagonal blocks are (1/M)*A_f, and every earlier micro-step adds the
    telescoping rank-one block (1/M)*1*b_f^T below them, which one cumulative
    sum over the micro-steps covers: O(M*s_f^2) work, no (M*s_f)^2 matrix.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, M: int):
        self.A, self.b, self.M = A, b, M

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = v.reshape(self.M, -1)
        done = (v @ self.b).cumsum()  # b_f . v summed over micro-steps 1..lambda
        earlier = np.concatenate(([0.0], done[:-1]))
        return ((v @ self.A.T + earlier[:, None]) / self.M).ravel()


def residuals(method: MrGarkMethod, M: int, weights: WeightPair = "main") -> ResidualReport:
    """Evaluate the full catalog in O(M), without assembling the tableau.

    A_ff is a :class:`_BlockOperator`; the fast abscissae, A_fs and A_sf are
    those of :func:`assembly.coupling_superblocks`, O(M) in size.

    The mixed pairs isolate the slow or fast error only up to coupling trees:
    for methods that are not naturally adaptive, ``mixed-slow-hat`` counts
    the coupling trees with a slow-colored root in the slow group, and
    ``mixed-fast-hat`` those with a fast-colored root in the fast group.
    """
    M = check_count(M)
    cf, Afs, Asf = coupling_superblocks(method, M)
    ctx = dict(cf=cf, cs=method.slow.c, Aff=_BlockOperator(method.fast.A, method.fast.b, M),
               Afs=Afs, Asf=Asf, Ass=method.slow.A)
    return _report(method, M, weights, ctx)


def assembled_residuals(method: MrGarkMethod, M: int, weights: WeightPair = "main") -> ResidualReport:
    """The reference for :func:`residuals`: the catalog on the super-blocks of :func:`assembly.assemble`.

    Same ids, rhs and values as :func:`residuals`, up to roundoff, at the cost
    of the (M*s_f + s_s)-square tableau.
    """
    g = assemble(method, M)
    n, A = g.M * g.s_f, g.A
    ctx = dict(cf=g.c[:n], cs=g.c[n:], Aff=A[:n, :n], Afs=A[:n, n:], Asf=A[n:, :n], Ass=A[n:, n:])
    return _report(method, g.M, weights, ctx)


def _report(method: MrGarkMethod, M: int, weights: WeightPair, ctx: dict) -> ResidualReport:
    """Every catalog condition, on the super-blocks and abscissae in ``ctx`` and the ``weights`` pair."""
    wf, ws = _weight_pair(method, weights)
    cf, cs = ctx["cf"], ctx["cs"]
    ctx = dict(ctx, bf=np.tile(wf / M, M), bs=ws, Aff_cf=ctx["Aff"] @ cf, Afs_cs=ctx["Afs"] @ cs,
               Asf_cf=ctx["Asf"] @ cf, Ass_cs=ctx["Ass"] @ cs)
    entries = tuple(
        ResidualEntry(c.id, c.order, c.group, float(c.matrix_eval(ctx)), rhs)
        for c, rhs in zip(ConditionCatalog.conditions, _RHS)
    )
    return ResidualReport(method.name, M, weights, entries)


@dataclass(frozen=True)
class Classification:
    verified_order: int
    verified_embedded_order: int
    naturally_adaptive: bool


def classify(
    method: MrGarkMethod,
    M_sweep: Iterable[int | tuple[ResidualReport, ResidualReport]] = tuple(range(1, 9)),
) -> Classification:
    """Verify order, embedded order and natural adaptivity over an M sweep.

    Each sweep entry is a multirate ratio M, or the tuple of "main" and
    "embedded" residual reports of ``method`` that a caller already computed
    for one M; for a ratio both reports come from :func:`residuals`.  An empty
    sweep, or any other entry, is InvalidInput.

    ``verified_order`` is the largest q <= 4 with every order-<=q residual
    below ``CLASSIFY_TOL`` for all swept M, using the main weights; the embedded order
    uses the embedded weights.  Natural adaptivity asks the coupling residuals
    one order above the verified order to vanish as well; it is a property of
    genuinely multirate operation, so only swept values M >= 2 enter that
    check (at M = 1 the telescopic pairs degenerate to their base scheme,
    which cannot cancel cross terms).  Orders above 4 are outside the catalog,
    so a verified order of 4 reports ``naturally_adaptive=False``.
    """
    sweep = list(M_sweep) if isinstance(M_sweep, Iterable) else []
    if not sweep:
        raise InvalidInput(f"M_sweep must be a non-empty iterable, got {M_sweep!r}")

    main, emb = [], []
    for entry in sweep:
        if not isinstance(entry, tuple):
            M = check_count(entry, "M_sweep entry")
            entry = residuals(method, M, "main"), residuals(method, M, "embedded")
        elif not (len(entry) == 2 and all(isinstance(r, ResidualReport) and r.method == method.name for r in entry)
                  and entry[0].M == entry[1].M and (entry[0].weights, entry[1].weights) == ("main", "embedded")):
            raise InvalidInput(f"M_sweep entry must be an integer M or the (main, embedded) residual "
                               f"reports of {method.name} at one M")
        main.append(entry[0])
        emb.append(entry[1])

    def verified(reports) -> int:
        q = 0
        while q < 4 and all(r.max_abs(order=q + 1) < CLASSIFY_TOL for r in reports):
            q += 1
        return q

    p = verified(main)
    multirate = [r for r in main if r.M >= 2]
    nat = 1 <= p <= 3 and bool(multirate) and all(
        r.max_abs(order=p + 1, group="coupling") < CLASSIFY_TOL for r in multirate)
    return Classification(p, verified(emb), nat)
