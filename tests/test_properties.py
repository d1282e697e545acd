"""Property-based checks of the stepper against an exact oracle."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mrgark as mg  # noqa: E402
from mrgark.problems import LinearTwoRate  # noqa: E402


def exact_stability_value(method, M, z_fast, z_slow):
    """R(z_f, z_s) = 1 + b^T Z (I - A Z)^{-1} 1 of the float coefficients, in exact arithmetic.

    The stage equations Y_i (1 - a_ii z_i) = 1 + sum_{j != i} a_ij z_j Y_j are
    solved by substitution in schedule order, where A is lower triangular.
    """
    g = mg.assemble(method, M)
    n_fast = M * g.s_f
    z = [Fraction(z_fast) if i < n_fast else Fraction(z_slow) for i in range(g.stage_count)]
    A = [[Fraction(a) if a != 0.0 else None for a in row] for row in g.A.tolist()]
    zY = {}  # z_j Y_j of the stages solved so far
    for i in mg.derive_schedule(g, method).order:
        known = 1 + sum(A[i][j] * zY[j] for j in zY if A[i][j] is not None)
        zY[i] = z[i] * known / (1 - (A[i][i] or 0) * z[i])
    return 1 + sum(Fraction(g.b[i]) * zY[i] for i in zY)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(mg.METHOD_NAMES),
    M=st.integers(min_value=1, max_value=16),
    z_fast=st.floats(min_value=-8.0, max_value=0.5),
    z_slow=st.floats(min_value=-2.0, max_value=0.5),
)
def test_step_matches_stability_function(name, M, z_fast, z_slow):
    # one macro-step of H = 1 from y = 1 on y' = z_f y + z_s y is R(z_f, z_s)
    method = mg.registry_lookup(name)
    R = exact_stability_value(method, M, z_fast, z_slow)
    y = mg.step(method, LinearTwoRate(z_fast, z_slow).to_ode(), np.array([1.0]), 0.0, 1.0, M).y_next[0]
    assert abs(Fraction(y) - R) <= Fraction(1e-13) * (1 + abs(R))
