"""Exception types shared across coslab modules."""


class CoslabError(Exception):
    """Base class for all coslab errors."""


class ExcludedParameterError(CoslabError):
    """Order parameter lies on (or within the pole guard of) an excluded lattice."""


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


def integer_field(d: dict, key: str) -> int:
    """The integer ``d[key]`` of a parsed file: 3 and 3.0 count, 3.7 and "3" raise
    RepresentationError (a missing key raises KeyError)."""
    value = d[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RepresentationError(f"{key} must be an integer, got {value!r}")
    return value
