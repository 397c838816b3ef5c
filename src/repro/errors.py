"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the more precise
subclasses below; none of them should ever leak a bare ``ValueError`` for a
condition that is part of the documented API contract.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is malformed or an attribute lookup failed."""


class TypeInferenceError(ReproError):
    """CSV type inference could not settle on a column type."""


class QueryError(ReproError):
    """A relational or comparison query is invalid for its target relation."""


class StatisticsError(ReproError):
    """A statistical test received invalid input (e.g. empty samples)."""


class SamplingError(StatisticsError):
    """A sampling strategy received an invalid rate or empty relation."""


class InsightError(ReproError):
    """An insight definition is inconsistent with its relation."""


class DeadlineExceeded(ReproError):
    """A cooperative cancellation checkpoint fired past the run deadline.

    Raised by stage loops when the shared wall-clock deadline expires; the
    resilient run controller catches it and falls back to a cheaper rung of
    the stage's degradation ladder instead of losing the run.
    """

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class TAPError(ReproError):
    """A TAP instance or solver configuration is invalid."""


class SolverTimeout(TAPError):
    """The exact TAP solver exceeded its time budget.

    The best incumbent found so far is attached, when one exists, so that
    callers can degrade gracefully to an anytime result.
    """

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


class NotebookError(ReproError):
    """Notebook rendering failed (e.g. empty sequence of queries)."""


class ServeError(ReproError):
    """A serving-layer (``repro.serve``) request cannot be satisfied."""


class UnknownDatasetError(ServeError):
    """The request names a dataset that is not (or no longer) registered."""


class DatasetError(ReproError):
    """A synthetic dataset specification is invalid."""
