"""Exception types shared across the package."""

__all__ = [
    "CiindexError",
    "ConfigError",
    "DomainError",
    "InsufficientDataError",
]


class CiindexError(Exception):
    """Base class for package errors."""


class DomainError(CiindexError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientDataError(CiindexError, ValueError):
    """A sample is too small for the requested statistic."""


class ConfigError(CiindexError, ValueError):
    """A configuration file or plan fails validation."""
