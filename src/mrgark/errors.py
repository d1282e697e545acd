"""Exception types shared across the toolkit."""


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
    """Stage dependency graph has a cycle; no decoupled evaluation order exists."""


class SingularResolvent(MrGarkError):
    """(I - A*Z) is numerically singular in the stability function."""


class NewtonDivergence(MrGarkError):
    """Newton iteration failed to converge or produced non-finite values."""


class NonFiniteState(MrGarkError):
    """A stage or step produced NaN/Inf state entries."""


class StepSizeUnderflow(MrGarkError):
    """Adaptive controller drove the macro-step below the resolvable size."""


class NoReference(MrGarkError):
    """No exact solution or stored reference is available for error measurement."""
