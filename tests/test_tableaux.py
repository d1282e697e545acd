import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

import mrgark as mg
from mrgark.errors import InvalidInput, LambdaOutOfRange, UnknownMethod
from mrgark.schemes import SDIRK3_GAMMA, sdirk3_gamma_closed_form
from mrgark.tableaux import MethodFlag, MrGarkMethod, TableauKind


def test_registry_has_twelve_methods():
    assert len(mg.METHOD_NAMES) == 12
    listing = mg.list_methods()
    assert [row[0] for row in listing] == list(mg.METHOD_NAMES)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_base_tableaus_valid(name):
    # a tableau is checked when built: each registered base passes its rules again, unchanged
    m = mg.registry_lookup(name)
    for base in (m.fast, m.slow):
        again = dataclasses.replace(base)
        for key in ("A", "b", "b_hat", "c"):
            assert np.array_equal(getattr(again, key), getattr(base, key))
        assert again.kind is base.kind and again.gamma == base.gamma


@pytest.mark.parametrize("name", ["EX-EX 2(1)S", "EX-EX 3(2)S"])
def test_type_s_overrides_construct_across_c2(name):
    # the exact b of EX-EX 3(2)S grows like 1/c2, so sum(b) = 1 holds only relative to sum|b|;
    # the lookup builds (and so checks) both bases, the stacks check each coupling block
    for c2 in [F(k, 97) for k in range(1, 97)] + [1e-9, 1 - 1e-9]:
        m = mg.registry_lookup(name, c2=c2)
        for M in (1, 2, 5):
            m.couplings(M)


def test_registry_lookup_exex21a_coefficients():
    m = mg.registry_lookup("EX-EX 2(1)A")
    assert np.array_equal(m.fast.b, [0.25, 0.75])
    assert np.array_equal(m.fast.c, [0.0, 2.0 / 3.0])
    assert np.array_equal(m.fast.A[1], [2.0 / 3.0, 0.0])


def test_registry_lookup_imex32a_gamma():
    m = mg.registry_lookup("IM-EX 3(2)A")
    assert m.fast.kind is TableauKind.SDIRK
    assert m.fast.gamma == pytest.approx(0.43586652150845899942, abs=1e-18)


def test_sdirk3_gamma_closed_form_matches_printed_value():
    assert abs(SDIRK3_GAMMA - sdirk3_gamma_closed_form()) < 1e-15


def test_type_s_split_index():
    # c2 = 2/3, M = 3 -> the slow-fast blocks stop after micro-step floor(2) = 2
    m = mg.registry_lookup("EX-EX 2(1)S")
    assert np.any(m.coupling("sf", 2, 3))
    assert not np.any(m.coupling("sf", 3, 3))
    assert np.any(m.coupling("sf", 1, 3))


@pytest.mark.parametrize("m_max", [0, -2, 2.5, True, "2"])
def test_m_max_must_be_a_count(m_max):
    with pytest.raises(InvalidInput):
        dataclasses.replace(mg.registry_lookup("IM-EX 4(2)A"), m_max=m_max)
    # the ceiling is kept apart from the free parameters
    assert mg.registry_lookup("IM-EX 4(2)A").free_parameters == {}
    assert dataclasses.replace(mg.registry_lookup("EX-EX 2(1)A"), m_max=np.int64(3)).m_max == 3


@pytest.mark.parametrize("name", [n for n in mg.METHOD_NAMES if n.startswith("IM-")])
def test_fsal_needs_an_explicit_fast_base(name):
    # an SDIRK first stage solves Y = ytilde + h*gamma*f(Y), gamma > 0, so it cannot reuse the last stage's value
    m = mg.registry_lookup(name)
    with pytest.raises(InvalidInput, match="first-same-as-last"):
        dataclasses.replace(m, flags=m.flags | {MethodFlag.FSAL})
    explicit = mg.registry_lookup("EX-IM 2(1)A")
    assert MethodFlag.FSAL in dataclasses.replace(explicit, flags=explicit.flags | {MethodFlag.FSAL}).flags


def test_type_s_parameter_override():
    m = mg.registry_lookup("EX-EX 2(1)S", c2="1/2")
    assert m.fast.c[1] == 0.5
    assert m.free_parameters == {"c2": 0.5}
    assert mg.registry_lookup("EX-EX 2(1)S").free_parameters == {"c2": 2 / 3}
    assert mg.registry_lookup("EX-EX 3(2)S").free_parameters == {"c2": 0.5, "b_hat_2": 0.5}
    assert mg.registry_lookup("EX-EX 2(1)A").free_parameters == {}
    with pytest.raises(ValueError):
        mg.registry_lookup("EX-EX 2(1)S", c2=2)
    with pytest.raises(ValueError):
        mg.registry_lookup("EX-EX 3(2)S", c2="2/3")  # base tableau degenerates
    bad = [
        ("EX-EX 2(1)A", {"c2": 0.5}),  # no free parameters
        ("EX-EX 2(1)S", {"b_hat_2": 0.5}),  # only the third-order pair has it
        ("EX-EX 3(2)S", {"c2": "2/3"}),
    ] + [("EX-EX 2(1)S", {"c2": c2}) for c2 in ("abc", float("nan"), float("inf"), None, "1/0", 0, 2)]
    for name, overrides in bad:
        with pytest.raises(InvalidInput):
            mg.registry_lookup(name, **overrides)


def test_equal_overrides_share_one_instance_and_its_couplings():
    half = mg.registry_lookup("EX-EX 2(1)S", c2=0.5)
    assert half is mg.registry_lookup("EX-EX 2(1)S", c2="1/2") is mg.registry_lookup("EX-EX 2(1)S", c2=F(1, 2))
    assert half is not mg.registry_lookup("EX-EX 2(1)S")
    half.couplings(7)
    hits = MrGarkMethod.couplings.cache_info().hits
    mg.registry_lookup("EX-EX 2(1)S", c2="1/2").couplings(7)
    assert MrGarkMethod.couplings.cache_info().hits == hits + 1


def test_unknown_method():
    with pytest.raises(UnknownMethod):
        mg.registry_lookup("EX-EX 9(8)Z")


def test_lambda_out_of_range():
    m = mg.registry_lookup("EX-EX 2(1)A")
    with pytest.raises(LambdaOutOfRange):
        m.coupling("fs", 5, 4)
    with pytest.raises(LambdaOutOfRange):
        m.coupling("fs", 0, 4)
    with pytest.raises(InvalidInput):
        m.coupling("ff", 1, 4)


def test_eval_coupling_examples():
    m = mg.registry_lookup("EX-EX 2(1)A")
    np.testing.assert_allclose(
        m.coupling("fs", 1, 4), [[0.0, 0.0], [1.0 / 6.0, 0.0]], atol=0
    )
    assert not np.any(m.coupling("sf", 2, 4))
    imex = mg.registry_lookup("IM-EX 2(1)A")
    np.testing.assert_allclose(
        imex.coupling("sf", 1, 2), [[0.0, 0.0], [2.0 / 3.0, 0.0]], atol=0
    )


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", range(1, 9))
def test_row_sums_reproduce_abscissae(name, M):
    m = mg.registry_lookup(name)
    for tab in (m.fast, m.slow):
        assert np.max(np.abs(tab.A.sum(axis=1) - tab.c)) < 1e-13
    # coupling shapes hold for every (lambda, M)
    s_f, s_s = m.stage_counts
    for lam in range(1, M + 1):
        assert m.coupling("fs", lam, M).shape == (s_f, s_s)
        assert m.coupling("sf", lam, M).shape == (s_s, s_f)


@pytest.mark.parametrize("name", [n for n in mg.METHOD_NAMES if n.endswith("A")])
def test_type_a_couplings_affine_in_lambda(name):
    # the printed lambda-formulas are affine within each branch: the second
    # difference across consecutive micro-steps vanishes exactly
    m = mg.registry_lookup(name)
    M = 6
    for side in ("fs", "sf"):
        blocks = {lam: m.coupling(side, lam, M) for lam in range(1, M + 1)}
        # stay inside the generic branch: above lambda = 1 and below lambda = M
        for lam in (3, 4):
            second_diff = blocks[lam + 1] - 2 * blocks[lam] + blocks[lam - 1]
            assert np.max(np.abs(second_diff)) < 1e-12


def test_flags_match_declarations():
    expected = {
        "EX-EX 2(1)A": {MethodFlag.TELESCOPIC, MethodFlag.NATURALLY_ADAPTIVE},
        "EX-EX 2(1)S": {MethodFlag.TELESCOPIC, MethodFlag.NATURALLY_ADAPTIVE},
        "EX-EX 3(2)3s-A": {MethodFlag.TELESCOPIC},
        "EX-EX 3(2)4s-A": {MethodFlag.TELESCOPIC, MethodFlag.NATURALLY_ADAPTIVE},
        "EX-EX 3(2)S": {MethodFlag.TELESCOPIC},
        "EX-EX 4(3)A": {MethodFlag.TELESCOPIC, MethodFlag.FSAL},
        "EX-IM 2(1)A": {MethodFlag.STIFFLY_ACCURATE_SLOW},
        "EX-IM 3(2)A": {MethodFlag.STIFFLY_ACCURATE_SLOW},
        "EX-IM 4(3)A": {MethodFlag.STIFFLY_ACCURATE_SLOW},
        "IM-EX 2(1)A": {MethodFlag.STIFFLY_ACCURATE_FAST},
        "IM-EX 3(2)A": {MethodFlag.STIFFLY_ACCURATE_FAST},
        "IM-EX 4(2)A": {MethodFlag.STIFFLY_ACCURATE_FAST},
    }
    for name, _, _, flags in mg.list_methods():
        assert flags == frozenset(expected[name]), name


def test_coupling_rules_are_deterministic():
    m = mg.registry_lookup("EX-EX 3(2)4s-A")
    a = m.coupling("fs", 3, 5)
    b = m.coupling("fs", 3, 5)
    assert np.array_equal(a, b)
    assert not a.flags.writeable


def test_big_rational_coefficients_round_trip():
    # the sixth-stage SDIRK weights carry >2**53 numerators; spot-check one
    # against an independently computed correctly rounded double
    from fractions import Fraction

    m = mg.registry_lookup("IM-EX 4(2)A")
    num = 1837041228720545025825201951582239534326
    den = 2195453146940870392428577778808091404375
    assert m.fast.b_hat[0] == float(Fraction(num, den))
    assert m.fast.A[4, 0] == float(Fraction(num, den))


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 2, 5, 8])
def test_couplings_stack_the_blocks(name, M):
    m = mg.registry_lookup(name)
    s_f, s_s = m.stage_counts
    fs, sf = m.couplings(M)
    assert fs.shape == (M, s_f, s_s) and sf.shape == (M, s_s, s_f)
    assert not fs.flags.writeable and not sf.flags.writeable
    assert m.couplings(M)[0] is fs  # cached per (method, M)
    for lam in range(1, M + 1):
        assert np.array_equal(fs[lam - 1], m.coupling("fs", lam, M))
        assert np.array_equal(sf[lam - 1], m.coupling("sf", lam, M))


@pytest.mark.parametrize("M", [0, -1, 2.0, True, "2", None])
def test_couplings_reject_bad_m(M):
    with pytest.raises(InvalidInput):
        mg.registry_lookup("EX-EX 2(1)A").couplings(M)


def test_coupling_of_the_wrong_shape_is_invalid_input():
    base = mg.registry_lookup("EX-EX 2(1)A").fast
    wrong = mg.MrGarkMethod(
        name="wrong shape", fast=base, slow=base,
        fs_coupling=lambda lam, M: np.zeros((2, 3)),
        sf_coupling=lambda lam, M: np.zeros((2, 2)),
        order=2, embedded_order=1,
    )
    with pytest.raises(InvalidInput):
        wrong.coupling("fs", 1, 2)
    with pytest.raises(InvalidInput):
        wrong.couplings(2)
    assert wrong.coupling("sf", 1, 2).shape == (2, 2)


def test_bad_coupling_block_names_its_side_lambda_and_m():
    nan_at_2 = lambda lam, M: np.full((2, 2), math.nan if lam == 2 else 0.0)
    m = dataclasses.replace(mg.registry_lookup("EX-EX 2(1)A"), sf_coupling=nan_at_2)
    with pytest.raises(InvalidInput, match=r"EX-EX 2\(1\)A: sf coupling at lambda=2, M=3"):
        m.couplings(3)
