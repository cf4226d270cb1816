"""Exception hierarchy shared across the pipeline.

CLI exit-code mapping: UsageError -> 1, DataError subclasses -> 2,
TransportError -> 3.
"""

from __future__ import annotations


class FuzzyMtError(Exception):
    """Base class for all pipeline errors."""


class UsageError(FuzzyMtError):
    """Bad command-line invocation (unknown flag, missing argument)."""


class DataError(FuzzyMtError):
    """Invalid data or a violated operation precondition."""


class AlignmentError(DataError):
    """Parallel files have different line counts."""


class CorpusEncodingError(DataError):
    """Input file is not valid UTF-8."""


class SizeError(DataError):
    """A size or count precondition does not hold."""


class ArgumentError(DataError):
    """An operation argument is out of its valid domain."""


class PromptError(ArgumentError):
    """A prompt of a sequence does not parse: ``index`` names it, ``reason`` says why."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"prompt {index}: {reason}")
        self.index = index
        self.reason = reason


class StateError(DataError):
    """Operation called on an object in the wrong state."""


class ConflictError(DataError):
    """An identifier collides with existing contents."""


class TrainingError(DataError):
    """Index training cannot proceed (e.g. fewer vectors than clusters)."""


class StoreError(DataError):
    """A saved context store is damaged or does not fit the caller's provider."""


class ValidationError(DataError):
    """A structured value fails schema or range validation."""


class LeakageError(ValidationError):
    """Test data found inside a context dataset."""

    def __init__(self, message: str, offending_ids: list[int] | None = None):
        super().__init__(message)
        self.offending_ids = offending_ids or []


class ContractViolationError(FuzzyMtError):
    """A remote endpoint replied with a malformed or mismatched payload."""


class ProviderError(FuzzyMtError):
    """An embedding endpoint sent no 200 reply, after the retries ``_http`` allows."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class TransportError(FuzzyMtError):
    """A completion endpoint sent no 200 reply for a batch, after the retries ``_http`` allows."""

    def __init__(self, message: str, prompt_ids: list[int] | None = None):
        super().__init__(message)
        self.prompt_ids = prompt_ids or []
