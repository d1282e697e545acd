from fractions import Fraction as F

import numpy as np
import pytest

import mrgark as mg
from mrgark import assembly, order
from mrgark.errors import CoupledMethod, InvalidInput, NotImplicitPartition
from mrgark.tableaux import ButcherTableau, MrGarkMethod, TableauKind

ALL_M = list(range(1, 9))

# the fully assembled 8-stage tableau of EX-EX 2(1)A at M = 3
EXEX21A_M3 = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0],
    [F(2, 9), 0, 0, 0, 0, 0, F(2, 9), 0],
    [F(1, 12), F(1, 4), 0, 0, 0, 0, F(11, 60), F(3, 20)],
    [F(1, 12), F(1, 4), F(2, 9), 0, 0, 0, F(19, 180), F(9, 20)],
    [F(1, 12), F(1, 4), F(1, 12), F(1, 4), 0, 0, F(31, 60), F(3, 20)],
    [F(1, 12), F(1, 4), F(1, 12), F(1, 4), F(2, 9), 0, F(79, 180), F(9, 20)],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [F(-1, 3), 1, 0, 0, 0, 0, F(2, 3), 0],
], dtype=float)


def test_assembled_matrix_matches_printed_example():
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 3)
    assert np.max(np.abs(g.A - EXEX21A_M3)) < 1e-13
    assert g.A[2, 0] == pytest.approx(1 / 12, abs=1e-15)
    assert g.A[7, 1] == pytest.approx(1.0, abs=1e-15)


def test_assemble_m1_is_two_by_two_block():
    for name in mg.METHOD_NAMES:
        m = mg.registry_lookup(name)
        g = mg.assemble(m, 1)
        s_f, s_s = m.stage_counts
        assert g.stage_count == s_f + s_s
        np.testing.assert_array_equal(g.A[:s_f, :s_f], m.fast.A)
        np.testing.assert_array_equal(g.A[:s_f, s_f:], m.coupling("fs", 1, 1))
        np.testing.assert_array_equal(g.A[s_f:, :s_f], m.coupling("sf", 1, 1))
        np.testing.assert_array_equal(g.A[s_f:, s_f:], m.slow.A)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 2, 5, 8, 33])
def test_coupling_superblocks_are_the_assembled_blocks(name, M):
    m = mg.registry_lookup(name)
    g = mg.assemble(m, M)
    n = M * g.s_f
    c_fast, A_fs, A_sf = assembly.coupling_superblocks(m, M)
    assert np.array_equal(c_fast, g.c[:n])
    assert np.array_equal(A_fs, g.A[:n, n:])
    assert np.array_equal(A_sf, g.A[n:, :n])


def test_fast_abscissae_example():
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 2)
    np.testing.assert_allclose(g.c, [0, 1 / 3, 1 / 2, 5 / 6, 0, 2 / 3], atol=1e-15)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", ALL_M)
def test_internal_consistency_all_methods(name, M):
    report = mg.check_internal_consistency(mg.registry_lookup(name), M)
    assert report.passed
    assert max(report.max_fs_residual, report.max_sf_residual) < 1e-13


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", ALL_M)
def test_decoupled_all_methods(name, M):
    assert mg.check_decoupled(mg.registry_lookup(name), M)


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_telescopic_matches_flag(name):
    m = mg.registry_lookup(name)
    assert mg.check_telescopic(m) == m.has_flag(mg.MethodFlag.TELESCOPIC)


def test_telescopic_examples():
    assert mg.check_telescopic(mg.registry_lookup("EX-EX 4(3)A"))
    assert mg.check_telescopic(mg.registry_lookup("EX-EX 3(2)S"))
    assert not mg.check_telescopic(mg.registry_lookup("EX-IM 2(1)A"))


def test_stiff_accuracy_examples():
    assert mg.check_stiff_accuracy(mg.registry_lookup("EX-IM 2(1)A"), 2, "slow")
    assert mg.check_stiff_accuracy(mg.registry_lookup("IM-EX 2(1)A"), 3, "fast")
    slow = mg.registry_lookup("EX-IM 2(1)A").slow
    np.testing.assert_allclose(slow.A[-1], slow.b, atol=1e-15)
    with pytest.raises(NotImplicitPartition):
        mg.check_stiff_accuracy(mg.registry_lookup("EX-EX 2(1)A"), 2, "fast")
    for bad in ("middle", None):
        with pytest.raises(InvalidInput):
            mg.check_stiff_accuracy(mg.registry_lookup("EX-IM 2(1)A"), 2, bad)


@pytest.mark.parametrize(
    "name,part",
    [(n, "slow") for n in mg.METHOD_NAMES if n.startswith("EX-IM")]
    + [(n, "fast") for n in mg.METHOD_NAMES if n.startswith("IM-EX")],
)
@pytest.mark.parametrize("M", [1, 2, 4, 8])
def test_stiff_accuracy_all_implicit_methods(name, part, M):
    assert mg.check_stiff_accuracy(mg.registry_lookup(name), M, part)


def test_schedule_reproduces_printed_permutation():
    m = mg.registry_lookup("EX-EX 2(1)A")
    assert [i + 1 for i in mg.derive_schedule(m, 3)] == [7, 1, 2, 8, 3, 4, 5, 6]


def test_schedule_type_s_slow_stage_after_block():
    # c2 = 2/3, M = 4 -> L2 = 2: slow stage 2 runs right after micro-step 2
    m = mg.registry_lookup("EX-EX 2(1)S")
    order = mg.derive_schedule(m, 4)
    # slow stage 2 (global index 4*2 + 1) follows fast stage 2 of micro-step 2 (index 3)
    assert order[order.index(9) - 1] == 3


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", ALL_M)
def test_schedule_triangularity(name, M):
    m = mg.registry_lookup(name)
    g = mg.assemble(m, M)
    perm = np.array(mg.derive_schedule(m, M))
    P = g.A[np.ix_(perm, perm)]
    assert not np.any(np.triu(P, 1) != 0.0), "permuted tableau must be lower triangular"
    diag = np.flatnonzero(np.diag(P) != 0.0)
    n_fast = M * g.s_f
    if m.fast.kind is TableauKind.EXPLICIT and m.slow.kind is TableauKind.EXPLICIT:
        assert diag.size == 0
    else:
        implicit_part = {i for i in range(g.stage_count)
                         if (i < n_fast) == (m.fast.kind is TableauKind.SDIRK)}
        assert set(perm[diag]) == implicit_part


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
@pytest.mark.parametrize("M", [1, 3, 8])
def test_partition_weights_each_sum_to_one(name, M):
    # each partition's assembled weights integrate its own right-hand side,
    # so both halves of b must individually sum to 1
    g = mg.assemble(mg.registry_lookup(name), M)
    n_fast = M * g.s_f
    assert abs(g.b[:n_fast].sum() - 1.0) < 1e-12
    assert abs(g.b[n_fast:].sum() - 1.0) < 1e-12


def _ralston2():
    return ButcherTableau(
        A=np.array([[0.0, 0.0], [2 / 3, 0.0]]),
        b=np.array([0.25, 0.75]),
        b_hat=np.array([1.0, 0.0]),
        c=np.array([0.0, 2 / 3]),
        kind=TableauKind.EXPLICIT,
    )


def test_corrupted_coupling_fails_internal_consistency():
    base = _ralston2()
    broken = MrGarkMethod(
        name="broken",
        fast=base,
        slow=base,
        fs_coupling=lambda lam, M: np.zeros((2, 2)),
        sf_coupling=lambda lam, M: np.zeros((2, 2)),
        order=2,
        embedded_order=1,
    )
    report = mg.check_internal_consistency(broken, 1)
    assert not report.passed
    assert report.max_fs_residual == pytest.approx(2 / 3)  # max entry of c_fast


def test_synthetic_overlap_is_coupled():
    base = _ralston2()
    overlap = MrGarkMethod(
        name="overlap",
        fast=base,
        slow=base,
        fs_coupling=lambda lam, M: np.array([[0.5, 0.0], [0.5, 0.0]]),
        sf_coupling=lambda lam, M: np.array([[0.5, 0.0], [0.5, 0.0]]),
        order=2,
        embedded_order=1,
    )
    assert not mg.check_decoupled(overlap, 1)
    with pytest.raises(CoupledMethod):
        mg.derive_schedule(overlap, 1)


def test_assemble_m_cap():
    with pytest.raises(ValueError):
        mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 10_001)
    with pytest.raises(ValueError):
        mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), 0)
    for M in (2.5, True, -1, "2", None):
        with pytest.raises(InvalidInput):
            mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), M)
    g = mg.assemble(mg.registry_lookup("EX-EX 2(1)A"), np.int64(3))
    assert g.M == 3 and type(g.M) is int


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_schedule_stiff_accuracy_and_block_form_never_assemble(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled the tableau")

    monkeypatch.setattr(assembly, "assemble", refuse)
    monkeypatch.setattr(order, "assemble", refuse)
    m = mg.registry_lookup(name)
    for M in (1, 3):
        mg.derive_schedule(m, M)
        mg.residuals(m, M)
        assert mg.check_internal_consistency(m, M).passed and mg.check_decoupled(m, M)
        for part, base in (("fast", m.fast), ("slow", m.slow)):
            if base.is_implicit:
                mg.check_stiff_accuracy(m, M, part)
