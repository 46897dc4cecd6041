"""Exception types shared across the laboratory modules."""


class TracelabError(Exception):
    """Base class for all package-specific errors."""


class CalibrationError(TracelabError):
    """The assembled contact field does not generate the closed-form flow."""


class PeriodError(TracelabError):
    """A time value is not a period of the lifted flow (or none exist in range)."""


class CleanLocusError(TracelabError):
    """A fixed locus fails the clean-intersection hypothesis (unit normal phase)."""


class ChartError(TracelabError):
    """Invalid chart request, e.g. a center that is not on the fixed locus."""


class QuadratureError(TracelabError):
    """A quadrature rule is under-resolved for the requested integrand."""


class CoverageError(TracelabError):
    """Spectral data does not cover the window's support to the requested tail tolerance."""


class CacheError(TracelabError):
    """A spectral cache file is missing fields or fails its checksum."""


class FitError(TracelabError):
    """A least-squares expansion fit is ill-conditioned or under-determined."""


class DegenerateDirectionError(TracelabError):
    """Stationary-phase check requested along an inadmissible covector."""


class ConfigError(TracelabError):
    """Experiment configuration failed validation; message names the field."""


class InputError(TracelabError, ValueError):
    """A library argument is malformed: a weight vector, window, point or lambda.

    Also a ValueError, so callers that caught the ValueError these raised
    before keep working.
    """
