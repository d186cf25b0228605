"""Exception taxonomy shared across the package, and two helpers for
refusing outside input: a short echo of the refused value, and the
port-number check of the commands that listen on TCP."""

from __future__ import annotations

# How many characters of a refused value a refusal repeats.
_BRIEF_CHARS = 40


def brief(value: object) -> str:
    """repr(value), cut to its first 40 characters plus "..." when longer,
    so that a refusal names a huge value without repeating all of it."""
    text = repr(value)
    return text if len(text) <= _BRIEF_CHARS else text[:_BRIEF_CHARS] + "..."


def port(text: str) -> int:
    """A TCP port number, 0-65535, from a command-line argument; a
    ValueError otherwise, which argparse reports as a usage error."""
    number = int(text)
    if not 0 <= number <= 65535:
        raise ValueError(f"port {number} is outside 0-65535")
    return number


class PairshotError(Exception):
    """Base class for all errors raised by this package."""


class DatasetSizeError(PairshotError):
    """A requested sample size exceeds what the pool can provide."""


class InfeasibleSplitError(PairshotError):
    """The leakage-free split cannot satisfy the requested sizes.

    Carries the maximum test size that would have been achievable with
    the same train-pool request.
    """

    def __init__(self, message: str, max_test_size: int) -> None:
        super().__init__(message)
        self.max_test_size = max_test_size


class UnknownTaskError(PairshotError):
    """No built-in task with the given identifier."""


class BudgetError(PairshotError):
    """The fixed parts of a template do not fit the length budget."""


class VerbalizerError(PairshotError):
    """A verbalizer does not cover the label set, or maps two labels to one token."""


class VocabularyError(PairshotError):
    """A required token is missing from the backend vocabulary."""


class NoDataError(PairshotError):
    """A training operation received an empty example list."""


class ShapeError(PairshotError):
    """Mismatched dimensions or malformed target distributions."""


class EmptyEnsembleError(PairshotError):
    """Score aggregation was asked to combine zero members."""


class NumericError(PairshotError):
    """Training produced a non-finite loss or gradient."""


class InfeasibleTripletsError(PairshotError):
    """Contrastive pair generation cannot satisfy R for some class."""

    def __init__(self, message: str, label: str) -> None:
        super().__init__(message)
        self.label = label


class IngestError(PairshotError):
    """A remote source stayed unreachable after retries, or returned garbage."""


class ParseError(PairshotError):
    """A record in an export file could not be parsed."""


class DataFormatError(PairshotError):
    """A dataset file violates the documented on-disk format."""


class EvalError(PairshotError):
    """Evaluation inputs are empty, mismatched, or reference unknown metrics."""
