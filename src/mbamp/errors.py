"""Exception types shared across the package."""


class MbampError(Exception):
    """Base class for all package-specific failures."""


# --- numerics ---

class NonConvergence(MbampError):
    """Adaptive quadrature exhausted its subdivision budget, or the winding
    count's bisection passed its sample budget or ended off an integer."""


class BoundaryZero(MbampError):
    """A zero-counting contour passes too close to a zero of the function."""


class StepUnderflow(MbampError):
    """ODE step control requested a step below the resolvable scale."""


# --- special functions ---

class Overflow(MbampError):
    """Result exceeds the floating-point range."""


class DomainError(MbampError):
    """Argument outside the supported evaluation range."""


# --- scattering / spectrum ---

class DivisionNearZero(MbampError):
    """Reflection coefficient requested too close to a zero of a(k)."""


class AssumptionViolated(MbampError):
    """Zero configuration breaks simplicity / distinct-moduli requirements."""


# --- asymptotics ---

class WrongRegion(MbampError):
    """Evaluator called with a region tag it does not handle."""


class NoRoot(MbampError):
    """Requested pulse-peak band is empty at this propagation distance."""


class ReflectionZero(MbampError):
    """|r| vanishes where a tail phase formula needs it nonzero."""


# --- oracle ---

class CFLViolation(MbampError):
    """Grid spacing or extent outside the scheme's validity envelope."""


class NonPhysical(MbampError):
    """Bloch-sphere defect exceeds the blow-up guard; grid is not trustworthy."""


class OutOfDomain(MbampError):
    """Probe point outside the stored simulation grid."""
