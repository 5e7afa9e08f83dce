"""Exception and warning types shared across the package, and the integer check."""

import numbers


class ConfigurationError(ValueError):
    """Invalid dimensions, grids, policies or other run configuration."""


class BoundaryRateError(ConfigurationError):
    """The target rate sits exactly on a regime boundary; no regime applies."""


class ApplicabilityError(ConfigurationError):
    """A closed-form prediction was requested outside its validity region."""


class InsufficientDataError(RuntimeError):
    """Not enough eligible points to carry out a fit."""


class NumericalError(ArithmeticError):
    """A matrix factorization or eigensolver failed unexpectedly."""


class NumericalHealthWarning(RuntimeWarning):
    """Roundoff produced values outside the expected numerical slack."""


def _is_integer(value):
    """An integer, numpy's too, but no bool: ``True`` is no count or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_integers(**values):
    """Raise `ConfigurationError` unless every value is an integer, numpy's too."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
