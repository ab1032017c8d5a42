"""Exception hierarchy shared by all dapien modules."""


class DapienError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDataset(DapienError):
    """A dataset-level operation received no samples."""


class RaggedFeatures(DapienError):
    """Samples in one dataset have differing feature lengths."""


class InvalidRecord(DapienError, ValueError):
    """A bit other than 0 or 1, a non-finite target, or a CSV cell or header that does not parse."""


class EmptyGroup(DapienError):
    """A distribution fit received an empty target vector."""


class DegenerateGroup(DapienError):
    """A group is too small or has zero spread for the requested fit."""


class NonConvergence(DapienError):
    """A fit of a group its preconditions admit produced invalid parameters; defect signal."""


class DomainError(DapienError):
    """A probability, confidence level or quantile argument is out of range."""


class DimensionMismatch(DapienError):
    """An input vector does not match the model's feature dimension."""


class InvalidTarget(DapienError):
    """A regression target is non-finite or otherwise unusable."""


class TooFewSamples(DapienError):
    """Not enough samples for the requested fold count."""


class TooFewGroups(DapienError):
    """Not enough distinct inputs to split the dataset."""


class LengthMismatch(DapienError):
    """Paired collections (intervals, targets) differ in length."""


class EmptyInput(DapienError):
    """A metric received an empty collection."""


class ZeroRange(DapienError):
    """All targets are equal; a range-normalised metric is undefined."""


class InvalidPrediction(DapienError):
    """A predicted output or parameter overflows or leaves its domain."""
