"""Exception hierarchy for the UPA reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch either a precise error or the whole family.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EngineError(ReproError):
    """Raised by the MapReduce engine (partitioning, scheduling)."""


class TaskFailedError(EngineError):
    """A task failed more times than the configured retry limit."""

    def __init__(self, stage_id: int, partition: int, attempts: int, cause: Exception):
        super().__init__(
            f"task for stage {stage_id} partition {partition} failed "
            f"after {attempts} attempts: {cause!r}"
        )
        self.stage_id = stage_id
        self.partition = partition
        self.attempts = attempts
        self.cause = cause


class SQLError(ReproError):
    """Raised by the SQL layer (parsing, analysis, execution)."""


class ParseError(SQLError):
    """Raised when SQL text cannot be parsed."""

    def __init__(self, message: str, position: int = -1):
        suffix = f" (at position {position})" if position >= 0 else ""
        super().__init__(message + suffix)
        self.position = position


class AnalysisError(SQLError):
    """Raised when a logical plan fails semantic analysis."""


class DPError(ReproError):
    """Raised by differential-privacy components."""


class PrivacyBudgetExceeded(DPError):
    """The privacy accountant refused a query: not enough budget left."""

    def __init__(self, requested: float, remaining: float):
        super().__init__(
            f"privacy budget exceeded: requested epsilon={requested}, "
            f"remaining={remaining}"
        )
        self.requested = requested
        self.remaining = remaining


class FlexUnsupportedError(DPError):
    """FLEX's static analysis does not support the submitted query.

    The paper (Table II) shows FLEX supporting only counting queries
    built from Select/Join/Filter/Count; everything else raises this.
    """


class QueryShapeError(DPError):
    """A query does not expose the Mapper/Reducer decomposition UPA needs."""

