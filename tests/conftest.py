import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mrgark as mg

CACHE_DIR = Path(__file__).parent / ".cache"

#: criterion outcomes registered by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(key: str, line: str) -> None:
    ACCEPTANCE_RESULTS[key] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(ACCEPTANCE_RESULTS[key])


@pytest.fixture(scope="session")
def all_methods():
    return [mg.registry_lookup(name) for name in mg.METHOD_NAMES]


def cached_reference(key: str, compute):
    """Disk-cached reference state (expensive fine-step runs)."""
    CACHE_DIR.mkdir(exist_ok=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = CACHE_DIR / f"{digest}.npy"
    if path.exists():
        return np.load(path)
    value = compute()
    np.save(path, value)
    return value


def exact_stability_value(method, M, z_fast, z_slow, number=Fraction):
    """R(z_f, z_s) = 1 + b^T Z (I - A Z)^{-1} 1 of the float coefficients, as a (real, imaginary) pair.

    Every float converts to ``number`` exactly; with Fraction the arithmetic
    is exact too, with ``decimal.Decimal`` it rounds to the precision of the
    current context.  The stage equations
    Y_i (1 - a_ii z_i) = 1 + sum_{j != i} a_ij z_j Y_j of the assembled A are
    solved by substitution in schedule order, where A is lower triangular, so
    the step plan is not used.
    """
    g = mg.assemble(method, M)
    n_fast = M * g.s_f
    z_fast, z_slow = ((number(complex(z).real), number(complex(z).imag)) for z in (z_fast, z_slow))
    A = g.A.tolist()
    zY = {}  # z_j Y_j of the stages solved so far, as (real, imaginary)
    for i in mg.derive_schedule(method, M):
        zr, zi = z_fast if i < n_fast else z_slow
        terms = [(number(A[i][j]), zY[j]) for j in zY if A[i][j] != 0.0]
        known_r = 1 + sum(a * y[0] for a, y in terms)
        known_i = sum(a * y[1] for a, y in terms)
        num_r, num_i = zr * known_r - zi * known_i, zr * known_i + zi * known_r
        if A[i][i] != 0.0:  # divide by 1 - a_ii z_i
            a = number(A[i][i])
            den_r, den_i = 1 - a * zr, -a * zi
            den = den_r * den_r + den_i * den_i
            num_r, num_i = (num_r * den_r + num_i * den_i) / den, (num_i * den_r - num_r * den_i) / den
        zY[i] = (num_r, num_i)
    b = [number(x) for x in g.b.tolist()]
    return 1 + sum(b[i] * zY[i][0] for i in zY), sum(b[i] * zY[i][1] for i in zY)


def relative_distance(value: complex, exact, number=Fraction) -> float:
    """|value - R| / (1 + |R|) for R = (real, imaginary) held as ``number``s; the difference is taken in them."""
    value = complex(value)
    error = math.hypot(float(number(value.real) - exact[0]), float(number(value.imag) - exact[1]))
    return error / (1 + math.hypot(float(exact[0]), float(exact[1])))
