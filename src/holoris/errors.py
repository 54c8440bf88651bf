"""Exception and warning types shared across the package."""


class HolorisError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleFrequency(HolorisError):
    """Spatial frequency pair maps outside the propagating-wave region."""


class NoPeak(HolorisError):
    """Spectrum has no significant off-DC energy to localize."""


class AllCandidatesInfeasible(HolorisError):
    """Both twin candidates violate the wavenumber feasibility bound."""


class SectorEmpty(HolorisError):
    """No candidate falls inside the configured admissible sector."""


class SectorAmbiguous(HolorisError):
    """Both candidates fall inside the configured admissible sector."""


class ConfigError(HolorisError):
    """Run configuration failed validation; message carries the field path."""


class FileFormatError(HolorisError):
    """A data file violates its documented format.

    line_number is 1-based and refers to the offending line when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DegenerateInterference(UserWarning):
    """All sources of one frequency tag interfere without spatial fringes."""
