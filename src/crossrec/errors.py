"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map families of errors onto distinct exit codes: config
problems, data problems, and numeric problems.
"""


class CrossRecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CrossRecError):
    """Invalid configuration value, unknown key, or unknown method name."""


class DataError(CrossRecError):
    """Base class for errors caused by the input data."""


class MalformedLine(DataError):
    def __init__(self, path, lineno, reason):
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{self.path}:{lineno}: {reason}")


class EmptyDataset(DataError):
    """No interactions remain (empty file, or nothing survived parsing)."""


class NoOverlap(DataError):
    """Source and target share no users after filtering."""


class DegenerateScenario(DataError):
    """A split cannot be formed, e.g. no candidate test user has the two
    target interactions needed for a held-out test and validation item."""


class InsufficientCandidates(DataError):
    def __init__(self, available, requested):
        self.available = available
        self.requested = requested
        super().__init__(
            f"negative pool has {available} items, need {requested}")


class EmptyBatch(DataError):
    """train_mapping cannot draw a linked user's source triplet."""


class NoOverlapUsers(DataError):
    """Mapping training requires at least one linked user pair."""


class InfeasibleDensity(DataError):
    """Synthetic generator asked for an interaction count per user that is
    outside [1, n_items]."""


class DimensionMismatch(DataError):
    """Vector or matrix shapes disagree where equal dims are required."""


class IndexMismatch(DataError):
    """A space or vector array lacks a row the scenario's ids ask for."""


class NumericError(CrossRecError):
    """Base class for numeric failures."""


class NonFiniteInput(NumericError):
    """NaN or infinity where a finite vector is required."""


class NonFiniteLoss(NumericError):
    def __init__(self, epoch, value=None):
        self.epoch = epoch
        self.value = value
        super().__init__(f"loss became non-finite at epoch {epoch}")


class ScorerFailure(NumericError):
    """A scorer raised or returned unusable scores during evaluation."""
