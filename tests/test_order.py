import math

import numpy as np
import pytest

import mrgark as mg
from mrgark import order
from mrgark.errors import InvalidInput
from mrgark.order import ConditionCatalog, assembled_residuals, classify, residuals

SQRT2 = math.sqrt(2.0)
ALL_M = list(range(1, 9))


def test_catalog_counts():
    by_order = {}
    for c in ConditionCatalog.conditions:
        by_order.setdefault(c.order, []).append(c)
    assert len(by_order[1]) == 2
    assert len(by_order[2]) == 2
    assert len(by_order[3]) == 6
    assert len(by_order[4]) == 18
    assert len([c for c in by_order[3] if c.group == "coupling"]) == 2
    assert len([c for c in by_order[4] if c.group == "coupling"]) == 10


def test_rhs_values_are_the_classical_rationals():
    rhs = {float(c.rhs) for c in ConditionCatalog.conditions}
    assert rhs == {1.0, 1 / 2, 1 / 3, 1 / 6, 1 / 4, 1 / 8, 1 / 12, 1 / 24}


@pytest.mark.parametrize("M", [1, 2, 4, 8])
def test_imex21_residual_formulas(M):
    # closed-form residuals of the second-order implicit-explicit pair,
    # quoted with the rhs-minus-value sign convention
    r = residuals(mg.registry_lookup("IM-EX 2(1)A"), M)
    fast = -r.entry("fast:b.c^2").residual
    coup = -r.entry("coupling:b.Asf.c").residual
    assert fast == pytest.approx((4 - 3 * SQRT2) / (12 * M**2), abs=1e-12)
    assert coup == pytest.approx((3 * SQRT2 - 3 - M) / (12 * M), abs=1e-12)


@pytest.mark.parametrize("M", [1, 2, 4, 8])
def test_imex21_fs_coupling_residual_closed_form(M):
    # the other order-3 coupling residual; its magnitude approaches 1/6 from
    # below as M grows (the bounded coupling-error term of this pair)
    r = residuals(mg.registry_lookup("IM-EX 2(1)A"), M)
    value = 1 / 6 - (1 - 1 / SQRT2) / (2 * M)
    assert -r.entry("coupling:b.Afs.c").residual == pytest.approx(value, abs=1e-14)


def test_exex21a_coupling_residuals_vanish_at_m5():
    r = residuals(mg.registry_lookup("EX-EX 2(1)A"), 5)
    assert r.max_abs(order=3, group="coupling") < 1e-12


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", range(1, 7))
def test_block_form_agrees_with_matrix_form(name, M):
    m = mg.registry_lookup(name)
    ra = assembled_residuals(m, M)
    rb = residuals(m, M)
    for e in rb.entries:
        assert abs(e.value - ra.entry(e.id).value) < 1e-10


WEIGHT_PAIRS = ("main", "embedded", "mixed-slow-hat", "mixed-fast-hat")


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [16, 32])
def test_block_form_matches_matrix_form_at_larger_m(name, M):
    m = mg.registry_lookup(name)
    for weights in WEIGHT_PAIRS:
        ra, rb = assembled_residuals(m, M, weights), residuals(m, M, weights)
        for e in rb.entries:
            value = ra.entry(e.id).value
            assert abs(e.value - value) <= 1e-12 * (1 + abs(value)), (weights, e.id)


def test_block_form_returns_every_catalog_condition():
    r = residuals(mg.registry_lookup("EX-IM 3(2)A"), 3, "embedded")
    assert [(e.id, e.order, e.group, e.rhs) for e in r.entries] == [
        (c.id, c.order, c.group, float(c.rhs)) for c in ConditionCatalog.conditions
    ]
    assert (r.method, r.M, r.weights) == ("EX-IM 3(2)A", 3, "embedded")


def test_block_form_never_assembles(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("block form assembled the tableau")

    monkeypatch.setattr(order, "assemble", no_assembly)
    monkeypatch.setattr(mg, "assemble", no_assembly)
    r = residuals(mg.registry_lookup("EX-EX 4(3)A"), 64)
    assert r.max_abs(order=3) < 1e-12


@pytest.mark.parametrize("M", [-1, 0, 2.5, True, "2", None])
def test_block_form_rejects_bad_m(M):
    with pytest.raises(InvalidInput):
        residuals(mg.registry_lookup("EX-EX 2(1)A"), M)


def test_block_form_example_order3_fs():
    # third-order fast-slow sum of the three-stage pair at M = 4 is exact
    r = residuals(mg.registry_lookup("EX-EX 3(2)3s-A"), 4)
    assert abs(r.entry("coupling:b.Afs.c").residual) < 1e-13


def test_block_form_example_order4_exex43():
    r = residuals(mg.registry_lookup("EX-EX 4(3)A"), 2)
    assert abs(r.entry("coupling:b.Afs.Asf.c").residual) < 1e-12


def test_m1_block_form_collapses_to_single_rate():
    # at M = 1 every telescoped sum has one term; matrix and block forms
    # coincide exactly with the 2x2-block GARK conditions
    m = mg.registry_lookup("EX-EX 3(2)3s-A")
    ra, rb = assembled_residuals(m, 1), residuals(m, 1)
    for e in rb.entries:
        assert e.value == pytest.approx(ra.entry(e.id).value, abs=1e-14)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("EX-EX 2(1)A", (2, 1, True)),
        ("EX-EX 2(1)S", (2, 1, True)),
        ("EX-EX 3(2)3s-A", (3, 2, False)),
        ("EX-EX 3(2)4s-A", (3, 2, True)),
        ("EX-EX 3(2)S", (3, 2, False)),
        ("EX-EX 4(3)A", (4, 3, False)),
        ("EX-IM 2(1)A", (2, 1, False)),
        ("EX-IM 3(2)A", (3, 2, False)),
        ("EX-IM 4(3)A", (4, 3, False)),
        ("IM-EX 2(1)A", (2, 1, False)),
        ("IM-EX 3(2)A", (3, 2, False)),
        ("IM-EX 4(2)A", (4, 2, False)),
    ],
)
def test_classify_all_methods(name, expected):
    cls = classify(mg.registry_lookup(name), ALL_M)
    assert (cls.verified_order, cls.verified_embedded_order, cls.naturally_adaptive) == expected


def test_classified_orders_match_declarations(all_methods):
    for m in all_methods:
        cls = classify(m, ALL_M)
        assert cls.verified_order == m.order
        assert cls.verified_embedded_order == m.embedded_order
        assert cls.naturally_adaptive == m.has_flag(mg.MethodFlag.NATURALLY_ADAPTIVE)


def test_all_slow_residuals_independent_of_m():
    m = mg.registry_lookup("IM-EX 2(1)A")
    slow_ids = [c.id for c in ConditionCatalog.conditions if c.group == "slow"]
    base = residuals(m, 1)
    for M in (2, 5, 8):
        r = residuals(m, M)
        for cid in slow_ids:
            assert r.entry(cid).value == pytest.approx(base.entry(cid).value, abs=1e-14)


def test_fast_residual_scales_as_inverse_m_squared():
    # fit the decay exponent of the bushy fast residual over M = 2,4,8,16
    m = mg.registry_lookup("IM-EX 2(1)A")
    Ms = [2, 4, 8, 16]
    vals = [abs(residuals(m, M).entry("fast:b.c^2").residual) for M in Ms]
    slope = np.polyfit(np.log(Ms), np.log(vals), 1)[0]
    assert abs(slope + 2.0) < 0.01


def test_weight_pairs_change_the_report():
    m = mg.registry_lookup("EX-EX 2(1)A")
    main = residuals(m, 4, "main")
    emb = residuals(m, 4, "embedded")
    mixed = residuals(m, 4, "mixed-slow-hat")
    assert emb.max_abs(order=2) > 1e-3  # embedded weights are first order only
    assert main.max_abs(order=2) < 1e-14
    # the mixed pair keeps the fast main weights: fast conditions still pass order 2
    assert mixed.entry("fast:b.c").residual == pytest.approx(0.0, abs=1e-14)
    assert abs(mixed.entry("slow:b.c").residual) > 1e-3


def test_classify_requires_nonempty_sweep():
    with pytest.raises(ValueError):
        classify(mg.registry_lookup("EX-EX 2(1)A"), [])


def _reports(name, M, weights=("main", "embedded")):
    return tuple(residuals(mg.registry_lookup(name), M, w) for w in weights)


@pytest.mark.parametrize("sweep", [
    pytest.param(iter([]), id="empty-iterator"),  # the non-empty check must test the entries, not the iterator
    pytest.param([(1, 2)], id="tuple-of-ints"),
    pytest.param([2, "3"], id="str-M"),
    pytest.param([True], id="bool-M"),
    pytest.param(3, id="not-iterable"),
    pytest.param([_reports("EX-EX 2(1)A", 2, ("main", "main"))], id="reports-main-main"),
    pytest.param([_reports("EX-EX 2(1)A", 2, ("embedded", "main"))], id="reports-swapped"),
    pytest.param([_reports("EX-EX 2(1)A", 2) + _reports("EX-EX 2(1)A", 2)[:1]], id="reports-three"),
    pytest.param([(residuals(mg.registry_lookup("EX-EX 2(1)A"), 2), _reports("EX-EX 2(1)A", 3)[1])],
                 id="reports-two-M"),
    pytest.param([_reports("EX-EX 2(1)S", 2)], id="reports-other-method"),
])
def test_classify_rejects_a_bad_sweep(sweep):
    with pytest.raises(InvalidInput):
        classify(mg.registry_lookup("EX-EX 2(1)A"), sweep)


def test_classify_takes_a_numpy_sweep_and_report_pairs():
    m = mg.registry_lookup("EX-EX 2(1)A")
    expected = classify(m, [1, 2])
    assert classify(m, np.array([1, 2])) == expected
    assert classify(m, [_reports("EX-EX 2(1)A", 1), 2]) == expected


def test_block_form_report_forms_each_operator_product_once(monkeypatch):
    # the 28 conditions nest 4 distinct A_ff products: A_ff.c, A_ff.c^2, A_ff.A_ff.c and A_ff.A_fs.c
    products = []
    matmul = order._BlockOperator.__matmul__
    monkeypatch.setattr(order._BlockOperator, "__matmul__", lambda op, v: products.append(v) or matmul(op, v))
    for weights in ("main", "embedded"):
        products.clear()
        residuals(mg.registry_lookup("EX-EX 4(3)A"), 3, weights)
        assert len(products) == 4, weights


@pytest.mark.parametrize("evaluate", [residuals, assembled_residuals])
def test_unknown_weight_pair_is_invalid_input(evaluate):
    with pytest.raises(InvalidInput):
        evaluate(mg.registry_lookup("EX-EX 2(1)A"), 2, "hat")

