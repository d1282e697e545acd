"""Exception types shared across the toolkit, and the argument rules of its entry points.

Every public entry point checks its arguments with the rules at the end of this
module, so it alone decides what a valid argument is: ``check_count``,
``check_real``, ``check_complex``, ``check_rational``, ``check_choice``,
``check_span``, ``check_real_array``, ``check_state``,
``check_tolerance_shapes`` and ``check_type``.
"""

import cmath
import numbers
import operator
import sys
from contextlib import suppress
from fractions import Fraction

import numpy as np

_FLOAT_MAX = sys.float_info.max
_FLOAT64_MAX = np.float64(_FLOAT_MAX)


class MrGarkError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(MrGarkError, ValueError):
    """An argument of a public entry point is out of its domain."""


class UnknownMethod(MrGarkError):
    """Requested method name is not in the registry."""


class LambdaOutOfRange(MrGarkError):
    """Coupling block requested for a micro-step index outside 1..M."""


class NotImplicitPartition(MrGarkError):
    """Stiff-accuracy check requested for an explicit partition."""


class CoupledMethod(MrGarkError):
    """Stage dependency graph has a cycle, and only that; no decoupled evaluation order exists."""


class SingularResolvent(MrGarkError):
    """The stability function is undefined: 1 - a*gamma*z = 0 at an implicit stage, or R is not finite."""


class NewtonDivergence(MrGarkError):
    """Newton iteration failed to converge or produced non-finite values."""


class NonFiniteState(MrGarkError):
    """A stage or step produced NaN/Inf state entries."""


class StepSizeUnderflow(MrGarkError):
    """Adaptive controller drove the macro-step below the resolvable size."""


class NoReference(MrGarkError):
    """No exact solution or stored reference is available for error measurement."""


def check_count(value, name: str = "M", least: int = 1) -> int:
    """``value`` as an int; InvalidInput unless it is an integer >= ``least`` (numpy integers count, bools do not)."""
    n = operator.index(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else least - 1
    if n < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def check_real(value, name: str, positive: bool = False):
    """``value`` unchanged; InvalidInput unless a real within the float range, > 0 if ``positive`` (bools are not)."""
    # an exact float, the case of every step, skips the type tests; the comparisons also reject NaN and any real
    # beyond the float range, a numpy scalar's against a float64 bound (cast to a float32 the bound would overflow)
    real = type(value) is float or not isinstance(value, bool) and isinstance(value, numbers.Real)
    bound = _FLOAT64_MAX if isinstance(value, np.generic) else _FLOAT_MAX
    if not real or not (0 < value if positive else -bound <= value) or not value <= bound:
        raise InvalidInput(f"{name} must be a finite real{' > 0' if positive else ''}, got {value!r}")
    return value


def check_complex(value, name: str):
    """``value`` unchanged; InvalidInput unless a finite real or complex number (numpy scalars count, bools do not)."""
    with suppress(OverflowError):  # an int or Fraction beyond the float range is not finite
        if not isinstance(value, bool) and isinstance(value, numbers.Complex) and cmath.isfinite(value):
            return value
    raise InvalidInput(f"{name} must be a finite number, got {value!r}")


def check_rational(value, name: str) -> Fraction:
    """``value`` as a Fraction; InvalidInput unless an int, a finite real, a Fraction or a 'p/q' string (not a bool).

    A real that is not rational, a numpy float of any width included, converts exactly.
    """
    if not isinstance(value, bool):
        with suppress(TypeError, ValueError, OverflowError, ZeroDivisionError):  # ZeroDivisionError: '1/0'
            if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
                return Fraction(*value.as_integer_ratio())
            return Fraction(value)
    raise InvalidInput(f"{name} must be a finite rational (int, float, Fraction or 'p/q'), got {value!r}")


def check_choice(value, name: str, choices, error: type = InvalidInput) -> str:
    """``value`` unchanged; ``error`` unless it is one of the strings in ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"unknown {name} {value!r}; known: {', '.join(choices)}")
    return value


def check_span(t0, t_end) -> float:
    """``t_end - t0``; InvalidInput unless t0 and t_end are finite reals and t_end - t0 is finite and > 0."""
    return check_real(check_real(t_end, "t_end") - check_real(t0, "t0"), "t_end - t0", positive=True)


def check_real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; InvalidInput unless its entries are integers or floats (not bools)."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # e.g. a ragged list
        raise InvalidInput(f"{name} must be a real array, got a {type(value).__name__}") from None
    # a complex array would lose its imaginary part in the cast
    if a.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must be a real array, got one of {a.dtype}")
    return a.astype(float, copy=False)


def check_state(y, dimension: int) -> np.ndarray:
    """``y`` as a float array; InvalidInput unless it is a real 1-D array of ``dimension`` entries."""
    y = check_real_array(y, "state")
    if y.shape != (dimension,):
        raise InvalidInput(f"state must be a real 1-D array of {dimension} entries, got shape {y.shape}")
    return y


def check_tolerance_shapes(tolerances, size: int) -> None:
    """InvalidInput unless each tolerance array is a scalar or a 1-D array of 1 or ``size`` entries."""
    for tol in tolerances:
        if tol.shape not in ((), (1,), (size,)):
            raise InvalidInput(f"abs_tol and rel_tol must be scalars or 1-D arrays of 1 or {size} entries, got {tol.shape}")


def check_type(value, name: str, kind: type, optional: bool = False):
    """``value`` unchanged; InvalidInput unless a ``kind`` (``Callable``: any callable), or None if ``optional``."""
    if not (isinstance(value, kind) or optional and value is None):
        raise InvalidInput(f"{name} must be a {kind.__name__}{' or None' * optional}, got a {type(value).__name__}")
    return value
