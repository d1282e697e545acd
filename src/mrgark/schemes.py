"""Registry of the twelve multirate GARK method pairs.

Coefficients are stored as exact rationals (``fractions.Fraction``) wherever
they are rational, and evaluated to double precision only on output.  A few
constants are irrational (sqrt(2) for the two-stage SDIRK, the cubic root
``gamma`` of the three-stage SDIRK); those enter as correctly rounded doubles.
The fourth-order implicit pairs carry rationals whose numerators exceed 2**53,
so keeping ``Fraction`` arithmetic all the way to the final conversion is what
makes the printed values round-trip bit-exactly to double.

Naming convention: ``FAST-SLOW p(phat)[stages-]type`` where FAST/SLOW is EX or
IM, ``p`` the order, ``phat`` the embedded order, and type A (optimized for
accuracy) or S (optimized for simplicity/stability).  Type-S schemes carry a
free abscissa ``c2``, listed in the method's ``free_parameters``; the split
index ``L2 = floor(c2*M)`` controls which micro-steps see which slow stages.

Every pair is built by one constructor, :func:`_pair`, which flags it stiffly
accurate in each SDIRK partition.  The six telescopic (EX-EX) pairs go through
:func:`_telescopic`, which states what they share, the M = 1 rule included.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import cache
from typing import Callable

import numpy as np

from .errors import InvalidInput, UnknownMethod, check_choice, check_rational
from .tableaux import ButcherTableau, MethodFlag, MrGarkMethod, TableauKind

__all__ = [
    "METHOD_NAMES",
    "registry_lookup",
    "list_methods",
    "SDIRK3_GAMMA",
    "sdirk3_gamma_closed_form",
]

SQRT2 = math.sqrt(2.0)

#: 20-significant-digit value of the three-stage SDIRK diagonal.
SDIRK3_GAMMA = float("0.43586652150845899942")
#: factors of the SDIRK3 coefficients, shared by its tableau and the EX-IM/IM-EX 3(2)A couplings
_SDIRK3_DEN = 3 * SDIRK3_GAMMA**3 - 9 * SDIRK3_GAMMA**2 + 6 * SDIRK3_GAMMA - 1
_SDIRK3_Q = 2 * SDIRK3_GAMMA**2 - 4 * SDIRK3_GAMMA + 1


def sdirk3_gamma_closed_form() -> float:
    """Trigonometric closed form of the SDIRK3 diagonal (root of a cubic)."""
    phi = math.atan(1.0 / (2.0 * SQRT2)) / 3.0
    return 0.5 * (2.0 + math.sqrt(6.0) * math.sin(phi) - SQRT2 * math.cos(phi))


def _mat(rows) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def _vec(entries) -> np.ndarray:
    return np.array([float(x) for x in entries], dtype=float)


# ---------------------------------------------------------------------------
# base tableaus
# ---------------------------------------------------------------------------

def _ralston2() -> ButcherTableau:
    # two-stage second order, c2 = 2/3
    return ButcherTableau(
        A=_mat([[0, 0], [F(2, 3), 0]]),
        b=_vec([F(1, 4), F(3, 4)]),
        b_hat=_vec([1, 0]),
        c=_vec([0, F(2, 3)]),
        kind=TableauKind.EXPLICIT,
    )


def _ralston3() -> ButcherTableau:
    # three-stage third order
    return ButcherTableau(
        A=_mat([[0, 0, 0], [F(1, 2), 0, 0], [0, F(3, 4), 0]]),
        b=_vec([F(2, 9), F(1, 3), F(4, 9)]),
        b_hat=_vec([F(1, 40), F(37, 40), F(1, 20)]),
        c=_vec([0, F(1, 2), F(3, 4)]),
        kind=TableauKind.EXPLICIT,
    )


def _sdirk2() -> ButcherTableau:
    # two-stage, stiffly accurate, L-stable, gamma = 1 - 1/sqrt(2)
    g = 1.0 - 1.0 / SQRT2
    return ButcherTableau(
        A=_mat([[g, 0], [1.0 / SQRT2, g]]),
        b=_vec([1.0 / SQRT2, g]),
        b_hat=_vec([F(3, 5), F(2, 5)]),
        c=_vec([g, 1.0]),
        kind=TableauKind.SDIRK,
        gamma=g,
    )


def _sdirk3() -> ButcherTableau:
    # three-stage, stiffly accurate, L-stable
    g, den, q = SDIRK3_GAMMA, _SDIRK3_DEN, _SDIRK3_Q
    a21 = -2 * den / (3 * q)
    b1 = (4 * g - 1) / (4 * den)
    b2 = -3 * q**2 / (4 * den)
    bh1 = (-6 * g**2 + 6 * g - 1) / (4 * den)
    bh2 = 3 * (4 * g**3 - 10 * g**2 + 6 * g - 1) / (4 * den)
    return ButcherTableau(
        A=_mat([[g, 0, 0], [a21, g, 0], [b1, b2, g]]),
        b=_vec([b1, b2, g]),
        b_hat=_vec([bh1, bh2, 0.0]),
        c=_vec([g, a21 + g, 1.0]),
        kind=TableauKind.SDIRK,
        gamma=g,
    )


def _explicit4_fsal5() -> ButcherTableau:
    # five-stage fourth order with first-same-as-last final stage
    A = [
        [0, 0, 0, 0, 0],
        [F(2, 5), 0, 0, 0, 0],
        [F(-3, 20), F(3, 4), 0, 0, 0],
        [F(19, 44), F(-15, 44), F(10, 11), 0, 0],
        [F(11, 72), F(25, 72), F(25, 72), F(11, 72), 0],
    ]
    return ButcherTableau(
        A=_mat(A),
        b=_vec([F(11, 72), F(25, 72), F(25, 72), F(11, 72), 0]),
        b_hat=_vec(
            [
                F(1251515, 8970912),
                F(3710105, 8970912),
                F(2519695, 8970912),
                F(61105, 8970912),
                F(119041, 747576),
            ]
        ),
        c=_vec([0, F(2, 5), F(3, 5), 1, 1]),
        kind=TableauKind.EXPLICIT,
    )


def _explicit4_4s() -> ButcherTableau:
    # four-stage fourth order member of the same family: the first four stages above
    five = _explicit4_fsal5()
    return ButcherTableau(
        A=five.A[:4, :4],
        b=five.b[:4],
        b_hat=_vec([F(1, 5), F(1, 4), F(3, 8), F(7, 40)]),
        c=five.c[:4],
        kind=TableauKind.EXPLICIT,
    )


def _explicit3_4s() -> ButcherTableau:
    # four-stage third order with an extra stage spent on coupling freedom
    c4 = F(833, 7680) + F(833, 9216) + F(3213, 5120)  # = 119/144
    A = [
        [0, 0, 0, 0],
        [F(1, 3), 0, 0, 0],
        [0, F(5, 9), 0, 0],
        [F(833, 7680), F(833, 9216), F(3213, 5120), 0],
    ]
    return ButcherTableau(
        A=_mat(A),
        b=_vec([F(101, 714), F(1, 3), F(1, 6), F(128, 357)]),
        b_hat=_vec([F(7, 40), F(-425, 8784), F(100037, 131760), F(188, 1647)]),
        c=_vec([0, F(1, 3), F(5, 9), c4]),
        kind=TableauKind.EXPLICIT,
    )


def _rkf45_fast() -> ButcherTableau:
    # six-stage fourth order with fifth-order embedded weights
    A = [
        [0, 0, 0, 0, 0, 0],
        [F(1, 4), 0, 0, 0, 0, 0],
        [F(3, 32), F(9, 32), 0, 0, 0, 0],
        [F(1932, 2197), F(-7200, 2197), F(7296, 2197), 0, 0, 0],
        [F(439, 216), -8, F(3680, 513), F(-845, 4104), 0, 0],
        [F(-8, 27), 2, F(-3544, 2565), F(1859, 4104), F(-11, 40), 0],
    ]
    c = [0, F(1, 4), F(3, 8), F(12, 13), 1, F(1, 2)]
    return ButcherTableau(
        A=_mat(A),
        b=_vec([F(25, 216), 0, F(1408, 2565), F(2197, 4104), F(-1, 5), 0]),
        b_hat=_vec([F(16, 135), 0, F(6656, 12825), F(28561, 56430), F(-9, 50), F(2, 55)]),
        c=_vec(c),
        kind=TableauKind.EXPLICIT,
    )


def _sdirk4_5s() -> ButcherTableau:
    # five-stage fourth order SDIRK, gamma = 1/4, stiffly accurate
    A = [
        [F(1, 4), 0, 0, 0, 0],
        [F(13, 20), F(1, 4), 0, 0, 0],
        [F(580, 1287), F(-175, 5148), F(1, 4), 0, 0],
        [F(12698, 37375), F(-201, 2990), F(891, 11500), F(1, 4), 0],
        [F(944, 1365), F(-400, 819), F(99, 35), F(-575, 252), F(1, 4)],
    ]
    b = A[4]
    b_hat = [F(41911, 60060), F(-83975, 144144), F(3393, 1120), F(-27025, 11088), F(103, 352)]
    c = [sum(row) for row in A]
    return ButcherTableau(
        A=_mat(A), b=_vec(b), b_hat=_vec(b_hat), c=_vec(c),
        kind=TableauKind.SDIRK, gamma=0.25,
    )


def _sdirk4_6s() -> ButcherTableau:
    # six-stage fourth order SDIRK, gamma = 191/1000, stiffly accurate.
    # Several entries have numerators beyond 2**53; Fraction keeps them exact
    # until the single final rounding to double.
    g = F(191, 1000)
    A = [
        [g, 0, 0, 0, 0, 0],
        [F(209, 1000), g, 0, 0, 0, 0],
        [F(8466728223, 12920014250), F(-12729769579, 51680057000), g, 0, 0, 0],
        [
            F(102093693512533448034070599559771, 222819131395744425631166002057000),
            F(-17248151203963882893894684614, 68098756539041694875050734125),
            F(783289327941232988291717301, 1938400447113914098574736860),
            g, 0, 0,
        ],
        [
            F(1837041228720545025825201951582239534326, 2195453146940870392428577778808091404375),
            F(-12181532573386077454382848427541846123, 17628427274186874088578235825358750000),
            F(4528991149246665992465958589958885289, 8624433917634487442857055565277187500),
            F(83750160542686187, 606298988321250000),
            g, 0,
        ],
        [
            F(2288000, 4732539), F(-2203, 14250), F(247273, 613500),
            F(30767, 152250), F(-1, 8), g,
        ],
    ]
    b = A[5]
    b_hat = A[4][:4] + [g, F(0)]
    c = [sum(row) for row in A]
    return ButcherTableau(
        A=_mat(A), b=_vec(b), b_hat=_vec(b_hat), c=_vec(c),
        kind=TableauKind.SDIRK, gamma=0.191,
    )


# ---------------------------------------------------------------------------
# coupling families
# ---------------------------------------------------------------------------
# Evaluators take (lam, M) with ints and build matrices in exact rational
# arithmetic; float enters only through sqrt(2)/gamma where unavoidable.


_Rule = Callable[[int, int], np.ndarray]


def _pair(name: str, fast: ButcherTableau, slow: ButcherTableau, fs: _Rule, sf: _Rule, order: int,
          embedded_order: int, *flags: MethodFlag, **free_parameters: F) -> MrGarkMethod:
    """The pair ``name``: bases ``fast`` and ``slow``, couplings ``fs`` and ``sf``.

    Every registered SDIRK base is stiffly accurate, so the pair is flagged
    stiffly accurate in each SDIRK partition (``verify`` checks the flag
    against the coupled tableau), and ``flags``; ``free_parameters`` are the
    rationals baked into the formulas, recorded as floats.
    """
    stiffly_accurate = {MethodFlag.STIFFLY_ACCURATE_FAST: fast, MethodFlag.STIFFLY_ACCURATE_SLOW: slow}
    return MrGarkMethod(
        name=name,
        fast=fast, slow=slow,
        fs_coupling=fs,
        sf_coupling=sf,
        order=order, embedded_order=embedded_order,
        flags=frozenset({*flags, *(flag for flag, base in stiffly_accurate.items() if base.is_implicit)}),
        free_parameters={key: float(value) for key, value in free_parameters.items()},
    )


def _telescopic(name: str, base: ButcherTableau, fs: _Rule, sf: _Rule, order: int, embedded_order: int,
                *flags: MethodFlag, **free_parameters: F) -> MrGarkMethod:
    """The telescopic (EX-EX) pair ``name``: ``base`` on both sides, couplings ``fs`` and ``sf``.

    M = 1 degenerates to single-rate stepping: both couplings are then
    ``base.A`` itself, which makes one macro-step identical to one step of the
    base method applied to the full right-hand side.  The published
    lambda-formulas target M >= 2 and do not all remain meaningful at M = 1
    (several carry 1/(M-1) or 1/L2 factors).  The pair is flagged TELESCOPIC
    and ``flags``; ``free_parameters`` go to :func:`_pair`.
    """

    def or_base_at_m1(rule: _Rule) -> _Rule:
        return lambda lam, M: base.A if M == 1 else rule(lam, M)

    return _pair(name, base, base, or_base_at_m1(fs), or_base_at_m1(sf), order, embedded_order,
                 MethodFlag.TELESCOPIC, *flags, **free_parameters)


def _split(c2: F, M: int) -> int:
    """The type-S split L2 = floor(c2*M); at least one micro-step must precede slow stage 2."""
    return max(1, math.floor(c2 * M))


def _exex21a() -> MrGarkMethod:
    base = _ralston2()

    def fs(lam, M):
        if lam == 1:
            return _mat([[0, 0], [F(2, 3 * M), 0]])
        return _mat([
            [
                F(3 * M**3 - 11 * M**2 + 20 * lam * M - 20 * M - 20 * lam + 20, 20 * (M - 1) * M),
                F(-M * (3 * M - 11), 20 * (M - 1)),
            ],
            [
                F(-3 * M**3 - 9 * M**2 + 60 * lam * M - 20 * M - 60 * lam + 20, 60 * (M - 1) * M),
                F(M * (M + 3), 20 * (M - 1)),
            ],
        ])

    def sf(lam, M):
        if lam == 1:
            return _mat([[0, 0], [F(-(M - 2) * M, 3), F(M**2, 3)]])
        return np.zeros((2, 2))

    return _telescopic("EX-EX 2(1)A", base, fs, sf, 2, 1, MethodFlag.NATURALLY_ADAPTIVE)


def _exex21s(c2: F = F(2, 3)) -> MrGarkMethod:
    if not 0 < c2 < 1:
        raise InvalidInput(f"c2 must lie in (0, 1), got {c2}")
    base = ButcherTableau(
        A=_mat([[0, 0], [c2, 0]]),
        b=_vec([(2 * c2 - 1) / (2 * c2), 1 / (2 * c2)]),
        b_hat=_vec([1, 0]),
        c=_vec([0, c2]),
        kind=TableauKind.EXPLICIT,
    )

    def fs(lam, M):
        L2 = _split(c2, M)
        if lam <= L2:
            return _mat([[F(lam - 1, M), 0], [(c2 + lam - 1) / M, 0]])
        return _mat([
            [(lam - 1) * (2 * c2 - 1) / (2 * M * c2), F(lam - 1) / (2 * M * c2)],
            [
                F(M, 3 * (L2 - M)) + (-lam + 2 * c2 * (2 * lam + c2 - 2) + 1) / (2 * M * c2),
                F(M, 3 * (M - L2)) + F(lam - 1) / (2 * M * c2) + F(1 - lam, M),
            ],
        ])

    def sf(lam, M):
        L2 = _split(c2, M)
        if lam <= L2:
            return _mat([
                [0, 0],
                [M * (-2 * M + 6 * c2 + 3 * L2 - 3) / (6 * L2), F(M * (2 * M - 3 * L2 + 3), 6 * L2)],
            ])
        return np.zeros((2, 2))

    return _telescopic("EX-EX 2(1)S", base, fs, sf, 2, 1, MethodFlag.NATURALLY_ADAPTIVE, c2=c2)


def _exim21a() -> MrGarkMethod:
    fast = _ralston2()
    slow = _sdirk2()

    def fs(lam, M):
        return _mat([[F(lam - 1, M), 0], [F(3 * lam - 1, 3 * M), 0]])

    def sf(lam, M):
        if lam == 1:
            return _mat([[M - M / SQRT2, 0], [F(1, 4), F(3, 4)]])
        return _mat([[0, 0], [F(1, 4), F(3, 4)]])

    return _pair("EX-IM 2(1)A", fast, slow, fs, sf, 2, 1)


def _imex21a() -> MrGarkMethod:
    fast = _sdirk2()
    slow = _ralston2()

    def fs(lam, M):
        if lam == M:
            return _mat([[(2 * M - SQRT2) / (2 * M), 0], [F(1, 4), F(3, 4)]])
        return _mat([[(2 * lam - SQRT2) / (2 * M), 0], [F(lam, M), 0]])

    def sf(lam, M):
        return _mat([[0, 0], [F(2, 3), 0]])

    return _pair("IM-EX 2(1)A", fast, slow, fs, sf, 2, 1)


def _exex32a_3s() -> MrGarkMethod:
    base = _ralston3()

    def fs(lam, M):
        if lam == 1:
            return _mat([[0, 0, 0], [F(1, 2 * M), 0, 0], [0, F(3, 4 * M), 0]])
        return _mat([
            [
                F(3 * M**3 - 8 * M**2 + 6 * lam * M - 6 * lam + 6, 6 * (M - 1) * M),
                F(-3 * M**2 + 8 * M - 6, 6 * (M - 1)),
                0,
            ],
            [
                F(-2 * M**2 + 6 * lam * M - 3 * M - 6 * lam + 3, 6 * (M - 1) * M),
                F(M, 3 * (M - 1)),
                0,
            ],
            [
                F(-3 * M**3 + 2 * M**2 + 12 * lam * M - 9 * M - 12 * lam + 12, 12 * (M - 1) * M),
                F(3 * M**3 - 2 * M**2 + 6 * M - 9, 12 * (M - 1) * M),
                0,
            ],
        ])

    def sf(lam, M):
        if lam == 1:
            return _mat([
                [0, 0, 0],
                [F(-M * (16 * M - 33), 66), F(8 * M**2, 33), 0],
                [
                    F(11 * M**4 - 22 * M**3 + 26 * M**2 + 11 * M + 44, 264),
                    F(-11 * M**4 + 22 * M**3 - 16 * M**2 - 11 * M + 22, 88),
                    F(M**4 - 2 * M**3 + M**2 + M + 4, 12),
                ],
            ])
        return _mat([
            [0, 0, 0],
            [0, 0, 0],
            [
                F(-M**4 + 2 * M**3 + 2 * M**2 + 3 * M - 4, 24 * (M - 1)),
                F(M**3 - M**2 - M + 2, 8),
                F(-M**4 + 2 * M**3 - M**2 + 3 * M - 4, 12 * (M - 1)),
            ],
        ])

    return _telescopic("EX-EX 3(2)3s-A", base, fs, sf, 3, 2)


def _exex32a_4s() -> MrGarkMethod:
    base = _explicit3_4s()

    def fs(lam, M):
        if lam == 1:
            return _mat([
                [0, 0, 0, 0],
                [F(1, 3 * M), 0, 0, 0],
                [
                    F(5 * (518 * M**3 - 2140 * M**2 + 2399 * M - 777), 2331 * M * (3 * M - 4)),
                    F(-5 * (518 * M**3 - 2140 * M**2 + 1622 * M + 259), 2331 * M * (3 * M - 4)),
                    0, 0,
                ],
                [
                    F(17 * (141932 * M**3 - 445231 * M**2 + 481160 * M - 178710), 852480 * M * (3 * M - 4)),
                    F(-17 * (94535 * M**3 - 228442 * M**2 + 142736 * M - 5180), 340992 * M * (3 * M - 4)),
                    F(3213 * M, 5120),
                    0,
                ],
            ])
        den = 3 * M**2 - 7 * M + 4  # (3M-4)(M-1)
        return _mat([
            [F(lam - 1, M), 0, 0, 0],
            [F(3 * lam - 2, 3 * M), 0, 0, 0],
            [
                F(
                    -5965 * M**3 + 6993 * lam * M**2 + 12092 * M**2 - 16317 * lam * M
                    - 858 * M + 9324 * lam - 5439,
                    2331 * M * den,
                ),
                F(5 * (1193 * M**3 - 3040 * M**2 + 1622 * M + 259), 2331 * M * den),
                0, 0,
            ],
            [
                F(
                    -867119 * M**3 + 511488 * lam * M**2 + 1937719 * M**2 - 1193472 * lam * M
                    - 1006056 * M + 681984 * lam - 74370,
                    170496 * M * den,
                ),
                F(17 * (51007 * M**3 - 119207 * M**2 + 71368 * M - 2590), 170496 * M * den),
                0, 0,
            ],
        ])

    def sf(lam, M):
        if lam == 1:
            return _mat([
                [0, 0, 0, 0],
                [F(361 * M - 102 * M**2, 1083), F(34 * M**2, 361), 0, 0],
                [0, F(-5 * M * (981 * M - 1805), 6498), F(5 * M * (327 * M - 361), 2166), 0],
                [
                    F(M * (1480461 * M**2 - 3944118 * M + 3007130), 2772480),
                    F(-119 * M * (3249 * M**2 - 20358 * M + 18050), 3326976),
                    F(-119 * M * (66063 * M**2 - 78954 * M - 18050), 5544960),
                    F((M - 1) * M**2),
                ],
            ])
        return np.zeros((4, 4))

    return _telescopic("EX-EX 3(2)4s-A", base, fs, sf, 3, 2, MethodFlag.NATURALLY_ADAPTIVE)


def _exex32s(c2: F = F(1, 2), b_hat_2: F = F(1, 2)) -> MrGarkMethod:
    if not 0 < c2 < 1 or c2 == F(2, 3):
        raise InvalidInput(f"c2 must lie in (0, 1) and differ from 2/3, got {c2}")
    # base family with c3 = 1
    A = [
        [0, 0, 0],
        [c2, 0, 0],
        [(3 * c2**2 - 3 * c2 + 1) / (c2 * (3 * c2 - 2)), (c2 - 1) / (c2 * (3 * c2 - 2)), 0],
    ]
    b = [(3 * c2 - 1) / (6 * c2), -1 / (6 * (c2 - 1) * c2), (3 * c2 - 2) / (6 * (c2 - 1))]
    b_hat = [b_hat_2 * (c2 - 1) + F(1, 2), b_hat_2, (1 - 2 * b_hat_2 * c2) / 2]
    base = ButcherTableau(
        A=_mat(A), b=_vec(b), b_hat=_vec(b_hat), c=_vec([0, c2, 1]),
        kind=TableauKind.EXPLICIT,
    )

    def fs(lam, M):
        L2 = _split(c2, M)
        if lam <= L2:
            return _mat([
                [F(lam - 1, M), 0, 0],
                [(c2 + lam - 1) / M, 0, 0],
                [F(lam, M), 0, 0],
            ])
        x = F(2 * lam - 1) / (12 * c2 * (L2 - M)) + F(1 - 2 * lam) / (12 * c2 * (L2 + M))
        y = F(2 * lam - 1) / (12 * c2 * (L2 + M)) + F(1 - 2 * lam) / (12 * c2 * (L2 - M))
        col1 = x + F(2 * lam - 1, 2 * M)
        return _mat([
            [col1, y - F(1, 2 * M), 0],
            [col1, y + (2 * c2 - 1) / (2 * M), 0],
            [col1, y + F(1, 2 * M), 0],
        ])

    def sf(lam, M):
        L2 = _split(c2, M)
        if lam <= L2:
            g = c2 * lam * (c2 * (4 * L2 - 3) - 3 * L2 + 3) / (
                (c2 - 1) * (3 * c2**2 + 4 * c2 + 1) * (L2 + 1)
            )
            return _mat([
                [0, 0, 0],
                [2 * g + M * c2 / L2, -g, -g],
                [2 * g, -g, -g],
            ])
        return _mat([
            [0, 0, 0],
            [0, 0, 0],
            [
                lam / (3 * c2 - 2) + (c2 * (3 * L2 - 4) - 3 * L2 + 3) / (6 * c2 - 4) + F(M, M - L2),
                lam / (2 - 3 * c2),
                (c2 * (4 - 3 * L2) + 3 * (L2 - 1)) / (6 * c2 - 4),
            ],
        ])

    return _telescopic("EX-EX 3(2)S", base, fs, sf, 3, 2, c2=c2, b_hat_2=b_hat_2)


def _exex43a() -> MrGarkMethod:
    base = _explicit4_fsal5()

    def fs(lam, M):
        if lam == 1:
            return _mat([
                [0, 0, 0, 0, 0],
                [F(2, 5 * M), 0, 0, 0, 0],
                [
                    F(3 * (10 * M**3 - 30 * M**2 + 22 * M - 1), 20 * M * (3 * M - 4)),
                    F(-3 * (2 * M**3 - 6 * M**2 + 2 * M + 3), 4 * M * (3 * M - 4)),
                    0, 0, 0,
                ],
                [
                    0,
                    F(3 * (10 * M**3 - 50 * M**2 + 116 * M - 83), 22 * M * (3 * M - 4)),
                    F(-30 * M**3 + 150 * M**2 - 282 * M + 161, 22 * M * (3 * M - 4)),
                    0, 0,
                ],
                [F(11, 72 * M), F(25, 72 * M), F(25, 72 * M), F(11, 72 * M), 0],
            ])
        den = 3 * M**2 - 7 * M + 4
        return _mat([
            [F(11 * (lam - 1), 72 * M), F(25 * (lam - 1), 72 * M), F(25 * (lam - 1), 72 * M), F(11 * (lam - 1), 72 * M), 0],
            [
                F(-450 * M**2 + 956 * lam * M - 497 * M - 956 * lam + 776, 450 * (M - 1) * M),
                F(450 * M**2 - 506 * lam * M + 227 * M + 506 * lam - 506, 450 * (M - 1) * M),
                0, 0, 0,
            ],
            [
                F(
                    -900 * M**3 + 1239 * lam * M**2 + 2217 * M**2 - 2891 * lam * M
                    - 97 * M + 1652 * lam - 1562,
                    600 * M * den,
                ),
                F(
                    900 * M**3 + 561 * lam * M**2 - 2937 * M**2 - 1309 * lam * M
                    + 1777 * M + 748 * lam + 602,
                    600 * M * den,
                ),
                0, 0, 0,
            ],
            [
                0,
                F(
                    -90 * M**3 + 99 * lam * M**2 + 197 * M**2 - 231 * lam * M
                    - 205 * M + 132 * lam + 117,
                    22 * M * den,
                ),
                F(
                    3240 * M**3 - 825 * lam * M**2 - 7455 * M**2 + 1925 * lam * M
                    + 8227 * M - 1100 * lam - 4696,
                    792 * M * den,
                ),
                F(-11 * (lam - 1), 72 * M),
                0,
            ],
            [F(11 * lam, 72 * M), F(25 * lam, 72 * M), F(25 * lam, 72 * M), F(11 * lam, 72 * M), 0],
        ])

    def sf(lam, M):
        if lam == 1:
            return _mat([
                [0, 0, 0, 0, 0],
                [F(2 * M, 5), 0, 0, 0, 0],
                [F(-3 * M * (5 * M - 4), 20), F(3 * M**2, 4), 0, 0, 0],
                [
                    F(M * (56 * M**2 - 81 * M + 44), 44),
                    F(-5 * M**2 * (16 * M - 13), 44),
                    F(-5 * (M - 3) * M**2, 11),
                    F((M - 1) * M**2),
                    0,
                ],
                [F(11, 72), F(25, 72), F(25, 72), F(11, 72), 0],
            ])
        return _mat([[0] * 5] * 4 + [[F(11, 72), F(25, 72), F(25, 72), F(11, 72), 0]])

    return _telescopic("EX-EX 4(3)A", base, fs, sf, 4, 3, MethodFlag.FSAL)


def _exim32a() -> MrGarkMethod:
    fast = _ralston3()
    slow = _sdirk3()
    g, den, q = SDIRK3_GAMMA, _SDIRK3_DEN, _SDIRK3_Q

    def fs(lam, M):
        r3_1 = (
            -60 * lam * g**3 + 42 * g**3 + 18 * M * g**2 + 72 * lam * g**2 - 72 * g**2
            - 36 * M * g + 42 * lam * g + 3 * g + 9 * M - 16 * lam + 4
        ) / (16 * M * den)
        r3_2 = -9 * q * (M + 3 * g - 6 * g * lam) / (16 * M * den)
        return _mat([
            [F(lam - 1, M), 0, 0],
            [F(2 * lam - 1, 2 * M), 0, 0],
            [r3_1, r3_2, 0],
        ])

    def sf(lam, M):
        if lam == 1:
            r2_1 = -M * (
                36 * M * g**4 - 36 * g**4 - 120 * M * g**3 + 126 * g**3 + 108 * M * g**2
                - 138 * g**2 - 36 * M * g + 51 * g + 4 * M - 6
            ) / (9 * q**2)
            r2_2 = 4 * M**2 * (9 * g**4 - 30 * g**3 + 27 * g**2 - 9 * g + 1) / (9 * q**2)
            return _mat([
                [M * g, 0, 0],
                [r2_1, r2_2, 0],
                [F(2, 9), F(1, 3), F(4, 9)],
            ])
        return _mat([[0, 0, 0], [0, 0, 0], [F(2, 9), F(1, 3), F(4, 9)]])

    return _pair("EX-IM 3(2)A", fast, slow, fs, sf, 3, 2)


def _imex32a() -> MrGarkMethod:
    fast = _sdirk3()
    slow = _ralston3()
    g, den, q = SDIRK3_GAMMA, _SDIRK3_DEN, _SDIRK3_Q

    def fs(lam, M):
        if lam == M:
            r2_1 = (
                12 * M**2 * g**3 - 36 * M * g**3 + 18 * g**3 - 36 * M**2 * g**2
                + 108 * M * g**2 - 42 * g**2 + 24 * M**2 * g - 60 * M * g + 21 * g
                - 4 * M**2 + 9 * M - 3
            ) / (9 * M * q**2)
            r2_2 = -4 * (M - 3 * g) * den / (9 * q**2)
            return _mat([
                [(M + g - 1) / M, 0, 0],
                [r2_1, r2_2, 0],
                [F(2, 9), F(1, 3), F(4, 9)],
            ])
        return _mat([
            [(g + lam - 1) / M, 0, 0],
            [(6 * lam * g**2 - 12 * lam * g + 3 * g + 3 * lam - 1) / (3 * M * q), 0, 0],
            [F(lam, M), 0, 0],
        ])

    def sf(lam, M):
        r3_1 = -3 * (12 * g**3 + 6 * M * g**2 - 18 * g**2 - 12 * M * g + 6 * g + 3 * M - 1) / (32 * den)
        r3_2 = 9 * (M + 6 * g - 3) * q / (32 * den)
        return _mat([[0, 0, 0], [F(1, 2), 0, 0], [r3_1, r3_2, 0]])

    return _pair("IM-EX 3(2)A", fast, slow, fs, sf, 3, 2)


def _exim43a() -> MrGarkMethod:
    fast = _rkf45_fast()
    slow = _sdirk4_5s()

    def fs(lam, M):
        return _mat([
            [F(lam - 1, M), 0, 0, 0, 0],
            [F(4 * lam - 3, 4 * M), 0, 0, 0, 0],
            [
                F(45 * M**3 - 90 * M**2 + 551 * lam * M - 335 * M + 90 * lam - 90, 416 * M**2),
                F(-15 * (3 * M**3 - 6 * M**2 + 9 * lam * M - 5 * M + 6 * lam - 6), 416 * M**2),
                0, 0, 0,
            ],
            [
                F(1440 * M**3 - 2880 * M**2 + 6517 * lam * M - 3709 * M - 3960 * lam + 3960, 2197 * M**2),
                F(-60 * (24 * M**3 - 48 * M**2 + 72 * lam * M - 59 * M - 66 * lam + 66), 2197 * M**2),
                0, 0, 0,
            ],
            [
                F(560 * M**3 - 362 * M**2 + 386 * lam * M - 529 * M - 1155 * lam + 1155, 273 * M**2),
                F(-5 * (672 * M**3 - 2439 * M**2 + 4046 * lam * M - 2590 * M - 1386 * lam + 1386), 1638 * M**2),
                F(-33 * (11 * M - 14 * lam + 7), 28 * M),
                F(575 * (3 * M - 2 * lam + 1), 252 * M),
                0,
            ],
            [
                0, 0,
                F(160 * M**3 - 109 * M**2 - 300 * M + 165, 32 * M**2),
                F(-160 * M**3 + 109 * M**2 + 32 * lam * M + 284 * M - 165, 32 * M**2),
                0,
            ],
        ])

    def sf(lam, M):
        bf = [F(25, 216), F(0), F(1408, 2565), F(2197, 4104), F(-1, 5), F(0)]
        if lam == 1:
            return _mat([
                [F(M, 4), 0, 0, 0, 0, 0],
                [F(-M * (169 * M - 90), 100), F(169 * M**2, 100), 0, 0, 0, 0],
                [F(-M * (155 * M - 132), 198), F(155 * M**2, 198), 0, 0, 0, 0],
                [F(-M * (497 * M - 552), 920), F(14 * M**2, 23), F(-896 * M**2, 10925), F(1183 * M**2, 87400), 0, 0],
                bf,
            ])
        return _mat([[0] * 6] * 4 + [bf])

    return _pair("EX-IM 4(3)A", fast, slow, fs, sf, 4, 3)


def _imex42a() -> MrGarkMethod:
    fast = _sdirk4_6s()
    slow = _explicit4_4s()

    def fs(lam, M):
        if lam < M:
            return _mat([
                [F(1000 * lam - 809, 1000 * M), 0, 0, 0],
                [F(5 * lam - 3, 5 * M), 0, 0, 0],
                [F(5 * lam - 2, 5 * M), 0, 0, 0],
                [F(5 * lam - 1, 5 * M), 0, 0, 0],
                [F(lam, M), 0, 0, 0],
                [F(lam, M), 0, 0, 0],
            ])
        return _mat([
            [F(1000 * M - 809, 1000 * M), 0, 0, 0],
            [
                F(11380195070453 * M**3 - 18408895671188 * M**2 + 14477055081282 * M - 5016867120000, 8361445200000 * M),
                F(-209 * (54450694117 * M**2 - 88080840532 * M + 29261291298), 8361445200000),
                0, 0,
            ],
            [
                F(
                    -45728475609635251 * M**3 - 421177045491040004 * M**2
                    + 701106234145018506 * M - 206755963893960000,
                    516889909734900000 * M,
                ),
                F(409 * (111805563837739 * M**2 + 1029772727361956 * M - 450406661149434), 516889909734900000),
                0, 0,
            ],
            [
                F(
                    313252304037186017 * M**3 - 457232580001772932 * M**2
                    + 265208779590977398 * M - 51451316893680000,
                    257256584468400000 * M,
                ),
                F(-203 * (2350256923212739 * M**2 - 2188535491388044 * M - 533759817986934), 257256584468400000),
                F(203 * (885000 * M**2 + 70000 * M - 628199), 282071856),
                0,
            ],
            [
                0,
                F(-885000 * M**2 + 885000 * M + 831041, 859500),
                F(590000 * M**2 - 590000 * M - 114791, 573000),
                F(2101, 9000),
            ],
            [F(11, 72), F(25, 72), F(25, 72), F(11, 72)],
        ])

    def sf(lam, M):
        return _mat([
            [0, 0, 0, 0, 0, 0],
            [F(2, 5), 0, 0, 0, 0, 0],
            [F(3 * (500 * M - 409), 1045), F(-6 * (250 * M - 309), 1045), 0, 0, 0, 0],
            [
                F(547008637842659863 - 386281780255161444 * M, 152025995207353729),
                F(3 * (2856036493343421 * M - 3906629787402737), 2288803570033750),
                F(-741819 * (1303514627 * M - 4489322119), 2239523110391875),
                F(-8391 * (18565412379 * M - 24937027363), 202099662773750),
                0, 0,
            ],
        ])

    return _pair("IM-EX 4(2)A", fast, slow, fs, sf, 4, 2)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS: dict[str, Callable[..., MrGarkMethod]] = {
    "EX-EX 2(1)A": _exex21a,
    "EX-EX 2(1)S": _exex21s,
    "EX-EX 3(2)3s-A": _exex32a_3s,
    "EX-EX 3(2)4s-A": _exex32a_4s,
    "EX-EX 3(2)S": _exex32s,
    "EX-EX 4(3)A": _exex43a,
    "EX-IM 2(1)A": _exim21a,
    "EX-IM 3(2)A": _exim32a,
    "EX-IM 4(3)A": _exim43a,
    "IM-EX 2(1)A": _imex21a,
    "IM-EX 3(2)A": _imex32a,
    "IM-EX 4(2)A": _imex42a,
}

METHOD_NAMES: tuple[str, ...] = tuple(_BUILDERS)


@cache
def _build(name: str, overrides: tuple[tuple[str, F], ...]) -> MrGarkMethod:
    """One shared (immutable) instance per name and set of rational overrides."""
    return _BUILDERS[name](**dict(overrides))


def registry_lookup(name: str, **free_parameters) -> MrGarkMethod:
    """Return the registered method ``name``.

    Type-S schemes accept overrides of their ``free_parameters`` (``c2``,
    and ``b_hat_2`` for the third-order one); all other methods take none.  An
    override is an int, a finite float, a ``Fraction`` or a ``'p/q'`` string
    (``errors.check_rational``); a bad one raises :class:`InvalidInput`.
    Instances are immutable and shared: ``c2=0.5`` and ``c2="1/2"`` (equal
    rationals) give the same one.
    """
    check_choice(name, "method", _BUILDERS, UnknownMethod)
    known = sorted(_build(name, ()).free_parameters)
    if not set(free_parameters) <= set(known):
        raise InvalidInput(f"{name} has free parameters {known}, got {sorted(free_parameters)}")
    values = {key: check_rational(value, key) for key, value in free_parameters.items()}
    return _build(name, tuple(sorted(values.items())))


def list_methods() -> list[tuple[str, int, int, frozenset[MethodFlag]]]:
    """All registered methods as (name, order, embedded_order, flags), stable order."""
    return [(m.name, m.order, m.embedded_order, m.flags) for m in map(registry_lookup, METHOD_NAMES)]
