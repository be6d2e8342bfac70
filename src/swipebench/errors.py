"""Exception types raised across the toolkit."""

from __future__ import annotations


class SwipebenchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SwipebenchError):
    """Invalid experiment or adapter configuration."""


class DataError(SwipebenchError):
    """Input data cannot be turned into a usable dataset."""


class UnparseableHeader(DataError):
    pass


class MalformedRateExceeded(DataError):
    pass


class EmptyDataset(DataError):
    pass


class NoEligibleUsers(DataError):
    pass


class UnknownFeatureId(ConfigError):
    pass


class UnknownStudy(ConfigError):
    pass


class SingleClass(SwipebenchError):
    """All rows share one label where at least two are required."""


class EmptyMatrix(SwipebenchError):
    pass


class SingleClassForBinarySpec(SwipebenchError):
    pass


class TooFewSamples(SwipebenchError):
    pass


class DimensionMismatch(SwipebenchError):
    pass


class EmptyWindow(SwipebenchError):
    pass


class InconsistentSequenceLength(SwipebenchError):
    pass


class TooFewSessions(SwipebenchError):
    pass


class TooFewAttackers(SwipebenchError):
    pass


class EmptyGroup(SwipebenchError):
    pass


class EmptyScores(SwipebenchError):
    pass
