"""Exception hierarchy and the array-size guard shared across the package."""


class CdpulseError(Exception):
    """Base class for all cdpulse errors."""


class InvalidInputError(CdpulseError, ValueError):
    """Input violates a documented precondition."""


class InvalidIntervalError(InvalidInputError):
    """Time interval is empty, reversed, or non-finite."""


class DomainError(InvalidInputError):
    """Evaluation point lies outside the function's domain."""


class WrongFamilyError(InvalidInputError):
    """Schedule carries phase functions incompatible with the requested basis family."""


class ProtocolMismatchError(InvalidInputError):
    """Target or initial state is incompatible with the chosen protocol."""


class UnsupportedBranchError(InvalidInputError):
    """Requested amplitude signs need a branch the design does not cover."""


class BoundarySolveError(CdpulseError):
    """Boundary equations could not be satisfied to tolerance."""


class IntegrationAccuracyError(CdpulseError):
    """Norm drift during integration exceeded tolerance; increase the step count."""


class RegimeError(CdpulseError):
    """Trajectory left the dynamical regime an observable requires."""


class MappingUnsupportedError(CdpulseError):
    """Pulse set cannot be mapped onto the requested physical system."""


class UsageError(CdpulseError):
    """Malformed command line."""


# Largest array a single request may ask for; larger sizes are rejected
# before anything is allocated.
MAX_ARRAY_BYTES = 1 << 30


def check_array_budget(name: str, count: int, bytes_per_item: int) -> None:
    """Raise InvalidInputError if ``count`` items would exceed MAX_ARRAY_BYTES."""
    if count * bytes_per_item > MAX_ARRAY_BYTES:
        raise InvalidInputError(
            f"{name} too large: {count} x {bytes_per_item} bytes exceeds "
            f"the {MAX_ARRAY_BYTES >> 20} MiB limit"
        )
