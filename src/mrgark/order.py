"""Order-condition residuals for multirate GARK methods, up to order 4.

The catalog covers, for an internally consistent pair:

* per-partition base conditions of orders 1..4 (weights dotted with powers of
  the assembled abscissae and powers of the same-partition super-block), and
* the two order-3 plus ten order-4 coupled conditions that involve both
  coupling super-blocks.

Each condition can be evaluated two ways: on the assembled tableau
("matrix form"), or as sums over the per-micro-step coupling blocks
("block form") that never materialize the full matrix.  The two agree up to
roundoff; the block form is the one usable at large M.

Residual sign convention: ``value - rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

import numpy as np

from .assembly import GarkMatrix, assemble
from .errors import InvalidInput
from .schemes import registry_lookup
from .tableaux import MrGarkMethod

__all__ = [
    "Condition",
    "ConditionCatalog",
    "ResidualEntry",
    "ResidualReport",
    "WeightPair",
    "residuals",
    "block_form_residuals",
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

    # ctx keys: bf, bs (assembled weights), cf, cs, Aff, Afs, Asf, Ass
    add("slow:b.1", 1, "slow", F(1), lambda x: x["bs"].sum())
    add("fast:b.1", 1, "fast", F(1), lambda x: x["bf"].sum())
    add("slow:b.c", 2, "slow", F(1, 2), lambda x: x["bs"] @ x["cs"])
    add("fast:b.c", 2, "fast", F(1, 2), lambda x: x["bf"] @ x["cf"])

    add("slow:b.c^2", 3, "slow", F(1, 3), lambda x: x["bs"] @ x["cs"] ** 2)
    add("fast:b.c^2", 3, "fast", F(1, 3), lambda x: x["bf"] @ x["cf"] ** 2)
    add("slow:b.Ass.c", 3, "slow", F(1, 6), lambda x: x["bs"] @ (x["Ass"] @ x["cs"]))
    add("fast:b.Aff.c", 3, "fast", F(1, 6), lambda x: x["bf"] @ (x["Aff"] @ x["cf"]))
    add("coupling:b.Afs.c", 3, "coupling", F(1, 6), lambda x: x["bf"] @ (x["Afs"] @ x["cs"]))
    add("coupling:b.Asf.c", 3, "coupling", F(1, 6), lambda x: x["bs"] @ (x["Asf"] @ x["cf"]))

    add("slow:b.c^3", 4, "slow", F(1, 4), lambda x: x["bs"] @ x["cs"] ** 3)
    add("fast:b.c^3", 4, "fast", F(1, 4), lambda x: x["bf"] @ x["cf"] ** 3)
    add("slow:b.(cxAss.c)", 4, "slow", F(1, 8), lambda x: x["bs"] @ (x["cs"] * (x["Ass"] @ x["cs"])))
    add("fast:b.(cxAff.c)", 4, "fast", F(1, 8), lambda x: x["bf"] @ (x["cf"] * (x["Aff"] @ x["cf"])))
    add("slow:b.Ass.c^2", 4, "slow", F(1, 12), lambda x: x["bs"] @ (x["Ass"] @ x["cs"] ** 2))
    add("fast:b.Aff.c^2", 4, "fast", F(1, 12), lambda x: x["bf"] @ (x["Aff"] @ x["cf"] ** 2))
    add("slow:b.Ass.Ass.c", 4, "slow", F(1, 24), lambda x: x["bs"] @ (x["Ass"] @ (x["Ass"] @ x["cs"])))
    add("fast:b.Aff.Aff.c", 4, "fast", F(1, 24), lambda x: x["bf"] @ (x["Aff"] @ (x["Aff"] @ x["cf"])))

    add("coupling:b.(cxAfs.c)", 4, "coupling", F(1, 8),
        lambda x: x["bf"] @ (x["cf"] * (x["Afs"] @ x["cs"])))
    add("coupling:b.(cxAsf.c)", 4, "coupling", F(1, 8),
        lambda x: x["bs"] @ (x["cs"] * (x["Asf"] @ x["cf"])))
    add("coupling:b.Afs.c^2", 4, "coupling", F(1, 12),
        lambda x: x["bf"] @ (x["Afs"] @ x["cs"] ** 2))
    add("coupling:b.Asf.c^2", 4, "coupling", F(1, 12),
        lambda x: x["bs"] @ (x["Asf"] @ x["cf"] ** 2))
    add("coupling:b.Ass.Asf.c", 4, "coupling", F(1, 24),
        lambda x: x["bs"] @ (x["Ass"] @ (x["Asf"] @ x["cf"])))
    add("coupling:b.Asf.Afs.c", 4, "coupling", F(1, 24),
        lambda x: x["bs"] @ (x["Asf"] @ (x["Afs"] @ x["cs"])))
    add("coupling:b.Asf.Aff.c", 4, "coupling", F(1, 24),
        lambda x: x["bs"] @ (x["Asf"] @ (x["Aff"] @ x["cf"])))
    add("coupling:b.Aff.Afs.c", 4, "coupling", F(1, 24),
        lambda x: x["bf"] @ (x["Aff"] @ (x["Afs"] @ x["cs"])))
    add("coupling:b.Afs.Ass.c", 4, "coupling", F(1, 24),
        lambda x: x["bf"] @ (x["Afs"] @ (x["Ass"] @ x["cs"])))
    add("coupling:b.Afs.Asf.c", 4, "coupling", F(1, 24),
        lambda x: x["bf"] @ (x["Afs"] @ (x["Asf"] @ x["cf"])))

    return tuple(conds)


class ConditionCatalog:
    """All order conditions evaluated by this toolkit (orders 1..4)."""

    conditions: tuple[Condition, ...] = _build_catalog()


def _weight_pair(method: MrGarkMethod, which: WeightPair) -> tuple[np.ndarray, np.ndarray]:
    table = {
        "main": (method.fast.b, method.slow.b),
        "embedded": (method.fast.b_hat, method.slow.b_hat),
        "mixed-slow-hat": (method.fast.b, method.slow.b_hat),
        "mixed-fast-hat": (method.fast.b_hat, method.slow.b),
    }
    try:
        return table[which]
    except KeyError:
        raise ValueError(f"unknown weight pair {which!r}") from None


def residuals(
    method: MrGarkMethod,
    M: int,
    weights: WeightPair = "main",
    g: GarkMatrix | None = None,
) -> ResidualReport:
    """Evaluate the full catalog on the assembled tableau.

    The mixed pairs isolate the slow or fast error only up to coupling trees:
    for methods that are not naturally adaptive, ``mixed-slow-hat`` counts
    the coupling trees with a slow-colored root in the slow group, and
    ``mixed-fast-hat`` those with a fast-colored root in the fast group.
    """
    if g is None:
        g = assemble(method, M)
    wf, ws = _weight_pair(method, weights)
    ctx = {
        "bf": np.tile(wf / g.M, g.M),
        "bs": ws,
        "cf": g.c_fast,
        "cs": g.c_slow,
        "Aff": g.A_ff,
        "Afs": g.A_fs,
        "Asf": g.A_sf,
        "Ass": g.A_ss,
    }
    entries = tuple(
        ResidualEntry(c.id, c.order, c.group, float(c.matrix_eval(ctx)), float(c.rhs))
        for c in ConditionCatalog.conditions
    )
    return ResidualReport(method.name, M, weights, entries)


def block_form_residuals(method: MrGarkMethod, M: int, weights: WeightPair = "main") -> ResidualReport:
    """Evaluate the twelve coupled conditions from the per-lambda blocks.

    Sums run over the coupling blocks directly; values are normalized by the
    telescoping powers of M so the entries are directly comparable with
    :func:`residuals` output (same ids, same rhs).
    """
    wf, ws = _weight_pair(method, weights)
    bf_base = method.fast.b  # telescoping weights inside the fast super-block
    Aff, Ass = method.fast.A, method.slow.A
    cf, cs = method.fast.c, method.slow.c
    s_f = method.fast.stage_count
    one = np.ones(s_f)

    fs = [method.coupling("fs", lam, M) for lam in range(1, M + 1)]
    sf = [method.coupling("sf", lam, M) for lam in range(1, M + 1)]

    # per-lambda building blocks
    fs_cs = [A @ cs for A in fs]                      # A^{fs,l} c^s
    sf_shift = [sf[l] @ ((l) * one + cf) for l in range(M)]  # A^{sf,l+1}((l)1+c^f)

    v = {}
    v["coupling:b.Afs.c"] = sum(wf @ fs_cs[l] for l in range(M)) / M
    v["coupling:b.Asf.c"] = sum(ws @ sf_shift[l] for l in range(M)) / M**2
    v["coupling:b.(cxAfs.c)"] = (
        sum(l * (wf @ fs_cs[l]) for l in range(M))
        + sum(wf @ (cf * fs_cs[l]) for l in range(M))
    ) / M**2
    v["coupling:b.(cxAsf.c)"] = sum(ws @ (cs * sf_shift[l]) for l in range(M)) / M**2
    v["coupling:b.Afs.c^2"] = sum(wf @ (fs[l] @ cs**2) for l in range(M)) / M
    v["coupling:b.Asf.c^2"] = (
        sum(ws @ (sf[l] @ cf**2) for l in range(M))
        + sum(l**2 * (ws @ (sf[l] @ one)) for l in range(M))
        + 2 * sum(l * (ws @ (sf[l] @ cf)) for l in range(M))
    ) / M**3
    v["coupling:b.Ass.Asf.c"] = sum(ws @ (Ass @ sf_shift[l]) for l in range(M)) / M**2
    v["coupling:b.Asf.Afs.c"] = sum(ws @ (sf[l] @ fs_cs[l]) for l in range(M)) / M
    v["coupling:b.Asf.Aff.c"] = (
        sum(l**2 / 2 * (ws @ (sf[l] @ one)) for l in range(M))
        + sum(l * (ws @ (sf[l] @ cf)) for l in range(M))
        + sum(ws @ (sf[l] @ (Aff @ cf)) for l in range(M))
    ) / M**3
    v["coupling:b.Aff.Afs.c"] = (
        float(wf.sum()) * sum((bf_base @ fs_cs[k]) for l in range(M) for k in range(l))
        + sum(wf @ (Aff @ fs_cs[l]) for l in range(M))
    ) / M**2
    v["coupling:b.Afs.Ass.c"] = sum(wf @ (fs[l] @ (Ass @ cs)) for l in range(M)) / M
    v["coupling:b.Afs.Asf.c"] = (
        sum(wf @ (fs[l] @ sf_shift[k]) for l in range(M) for k in range(M))
    ) / M**3

    entries = tuple(
        ResidualEntry(c.id, c.order, c.group, float(v[c.id]), float(c.rhs))
        for c in ConditionCatalog.conditions
        if c.group == "coupling"
    )
    return ResidualReport(method.name, M, weights, entries)


@dataclass(frozen=True)
class Classification:
    verified_order: int
    verified_embedded_order: int
    naturally_adaptive: bool


def classify(
    method: MrGarkMethod | str,
    M_sweep: Sequence[int | tuple[ResidualReport, ResidualReport]] = tuple(range(1, 9)),
    tol: float = CLASSIFY_TOL,
) -> Classification:
    """Verify order, embedded order and natural adaptivity over an M sweep.

    Each sweep entry is a multirate ratio M, or the ("main", "embedded")
    residual reports a caller already computed for one M; a ratio is
    assembled once for both reports.

    ``verified_order`` is the largest q <= 4 with every order-<=q residual
    below ``tol`` for all swept M, using the main weights; the embedded order
    uses the embedded weights.  Natural adaptivity asks the coupling residuals
    one order above the verified order to vanish as well; it is a property of
    genuinely multirate operation, so only swept values M >= 2 enter that
    check (at M = 1 the telescopic pairs degenerate to their base scheme,
    which cannot cancel cross terms).  Orders above 4 are outside the catalog,
    so a verified order of 4 reports ``naturally_adaptive=False``.
    """
    if isinstance(method, str):
        method = registry_lookup(method)
    if not M_sweep:
        raise InvalidInput("M_sweep must be non-empty")

    main, emb = [], []
    for entry in M_sweep:
        if not isinstance(entry, tuple):
            g = assemble(method, entry)
            entry = residuals(method, entry, "main", g=g), residuals(method, entry, "embedded", g=g)
        main.append(entry[0])
        emb.append(entry[1])

    def verified(reports) -> int:
        q = 0
        for order in (1, 2, 3, 4):
            if all(r.max_abs(order=order) < tol for r in reports):
                q = order
            else:
                break
        return q

    p = verified(main)
    p_hat = verified(emb)

    nat = False
    if 1 <= p <= 3:
        nat = all(
            r.max_abs(order=p + 1, group="coupling") < tol
            for r in main
            if r.M >= 2
        )
        nat = nat and any(r.M >= 2 for r in main)
    return Classification(p, p_hat, nat)
