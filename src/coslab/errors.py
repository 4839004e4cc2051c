"""Exception types shared across coslab modules."""


class CoslabError(Exception):
    """Base class for all coslab errors."""


class ExcludedParameterError(CoslabError):
    """Order parameter lies on (or within the pole guard of) an excluded lattice."""


class NumeratorPoleError(CoslabError):
    """A multiplier numerator gamma pole; no coslab function raises it any more."""


class GammaPoleError(CoslabError):
    """A gamma factor was requested exactly at a nonpositive-integer argument."""


class UnknownConstantError(CoslabError):
    """Requested closed-form constant name is not defined."""


class QuadratureWindowError(CoslabError):
    """Direct quadrature requested outside the validated order window."""


class InsufficientRuleError(CoslabError):
    """Quadrature rule cannot resolve the requested expansion degree."""


class GridTooCoarseError(CoslabError):
    """Sphere grid cannot resolve the requested band limit."""


class OddInputError(CoslabError):
    """An even (origin-symmetric) function was required."""


class BadShapeParamsError(CoslabError):
    """Invalid star-body shape parameters."""


class NonPositiveBodyError(CoslabError):
    """Radial function is not strictly positive."""


class RepresentationError(CoslabError):
    """Operation is incompatible with the given function representation."""
