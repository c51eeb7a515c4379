"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: configuration
and usage problems exit 1, data and format problems exit 2, numeric
failures exit 3.
"""


class PointFormsError(Exception):
    """Base class for all package errors."""

    exit_code = 1  # configuration and usage; subclasses override


class ConfigurationWarning(UserWarning):
    """Legal but statistically or theoretically dubious configuration."""


class ConfigurationError(PointFormsError):
    """Invalid or inconsistent configuration values."""


class IngestionError(PointFormsError):
    """Malformed dataset input: ragged rows, non-finite values, bad manifest."""

    exit_code = 2


class CacheFormatError(PointFormsError):
    """Gram cache file is truncated, mislabeled, or self-inconsistent."""

    exit_code = 2


class MissingCacheError(PointFormsError):
    """A required Gram cache is absent; run the precompute command first."""

    exit_code = 2


class InsufficientPointsError(PointFormsError):
    """Too few points for the requested neighbor or estimator counts."""

    exit_code = 2


class InvalidDegreeError(PointFormsError):
    """Form degree k outside the supported range for the operation."""


class DegenerateDensityError(PointFormsError):
    """Density estimate collapsed (duplicate points, zero spread)."""

    exit_code = 3


class DimensionEstimateError(PointFormsError):
    """Local PCA could not produce a usable intrinsic dimension."""

    exit_code = 3


class IsolatedPointError(PointFormsError):
    """A point has no usable neighbors under the requested truncation."""

    exit_code = 3


class NumericFailureError(PointFormsError):
    """Non-finite values emerged during a numeric computation."""

    exit_code = 3


class UndefinedMetricError(PointFormsError):
    """Metric undefined for the given inputs (e.g. single-class AUROC)."""

    exit_code = 2


class OraclePrecisionError(PointFormsError):
    """Quadrature failed to reach the requested precision."""

    exit_code = 3


class IntegrationBlowupError(PointFormsError):
    """ODE state became non-finite during integration."""

    exit_code = 3
