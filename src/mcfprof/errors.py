"""Exception types shared across the package."""


class McfError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSurfaceError(McfError):
    """Surface has collapsed or self-degenerated (e.g. r <= 0 at an interior node)."""


class ResolutionError(McfError):
    """Too few nodes / too coarse a grid for the requested operation."""


class TopologyError(McfError):
    """Generating curve self-intersects or violates its topology contract."""


class NumericalBlowupError(McfError):
    """NaN or overflow encountered during time stepping."""


class DomainError(McfError):
    """Argument outside the domain of a model solution."""


class WindowError(McfError):
    """Requested spacetime window not covered by the recorded trajectory."""


class EmptyWindowError(McfError):
    """Spatial window contains no surface nodes."""


class ConfigError(McfError):
    """Invalid scenario configuration; carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class InsufficientDataError(McfError):
    """Not enough samples (snapshots, fit points) for the requested analysis."""
