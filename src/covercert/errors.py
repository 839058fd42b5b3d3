"""Exception types shared across the package."""


class CoverCertError(Exception):
    """Base class for all package errors."""


class DomainMembershipError(CoverCertError):
    """A point was supplied outside the set a query is defined on."""


class ConstructionError(CoverCertError):
    """A family constructor was called with its hypotheses violated.

    The message names the failed hypothesis.
    """


class NoRingPointsError(CoverCertError):
    """A truncation box or sample lattice holds no point of the ring."""


class RefinementRequiredError(CoverCertError):
    """A sampling resolution is too coarse for the requested computation."""


class SmoothnessOrderError(CoverCertError):
    """A derivative order beyond the constructed smoothness budget was requested."""


class IndexCapError(CoverCertError):
    """A composed weight index exceeded the configured cap."""


class TruncationBoxError(CoverCertError):
    """A weighted quantity overflowed on an unbounded sample set."""


class ConfigError(CoverCertError):
    """A run configuration failed validation."""
