"""Exception taxonomy shared across the package, and three helpers for
refusing outside input: a short echo of the refused value, the one check
of a JSON value's shape, and the port-number check of the commands that
listen on TCP."""

from __future__ import annotations

# How many characters of a refused value a refusal repeats.
_BRIEF_CHARS = 40
# What check calls a value of each JSON type in a refusal.
_KINDS = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    list: "a list", dict: "an object", type(None): "null",
}


def brief(value: object) -> str:
    """repr(value), cut to its first 40 characters plus "..." when longer,
    so that a refusal names a huge value without repeating all of it."""
    text = repr(value)
    return text if len(text) <= _BRIEF_CHARS else text[:_BRIEF_CHARS] + "..."


def check(value: object, shape: object, error: type, name: str, closed: bool = False) -> None:
    """Raise error unless value fits shape.  Its message starts with name
    and the path of the first part that does not fit, and echoes that part
    only through brief.

    A shape is a JSON type -- str, int (a bool is none, 2.5 neither),
    float (any number, but no bool), bool, list, dict, None's type -- or
    a union of them such as int | None, or object for any value; [item]
    for a list of any length whose items fit item; a tuple (a, b, ...)
    for a list of exactly those items; {key: shape} for an object with
    those keys, where a key ending in "?" may be absent; and {str: shape}
    for an object whose every value fits shape.  An object may hold keys
    its shape does not name unless closed.  A Python tuple fits wherever
    a list does.
    """
    found = _misfit(value, shape, closed)
    if found is not None:
        path, problem = found
        raise error(f"{name}: {path.lstrip('.')} {problem}" if path else f"{name} {problem}")


def _fits(value: object, kind: type) -> bool:
    if kind is int:
        return isinstance(value, int) and type(value) is not bool
    if kind is float:
        return isinstance(value, (int, float)) and type(value) is not bool
    return isinstance(value, (list, tuple) if kind is list else kind)


def _misfit(value: object, shape: object, closed: bool) -> tuple[str, str] | None:
    """(path, problem) of the first part of value that does not fit shape,
    or None; the path is built only on the way back from a misfit."""
    if isinstance(shape, type):
        if _fits(value, shape):
            return None
        return "", f"must be {_KINDS[shape]}, got {brief(value)}"
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return "", f"must be an object, got {brief(value)}"
        if str in shape:
            for key, item in value.items():
                found = _misfit(item, shape[str], closed)
                if found:
                    return f"[{brief(key)}]{found[0]}", found[1]
            return None
        for key, part in shape.items():
            field = key.rstrip("?")
            if field not in value:
                if field == key:
                    return f".{field}", "is missing"
                continue
            found = _misfit(value[field], part, closed)
            if found:
                return f".{field}{found[0]}", found[1]
        if closed:
            names = {key.rstrip("?") for key in shape}
            for key in value:
                if key not in names:
                    return "", f"takes no key {brief(key)}"
        return None
    if isinstance(shape, (list, tuple)):
        fixed = isinstance(shape, tuple)
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(shape):
            return "", f"must be a list{f' of {len(shape)}' if fixed else ''}, got {brief(value)}"
        for i, item in enumerate(value):
            found = _misfit(item, shape[i] if fixed else shape[0], closed)
            if found:
                return f"[{i}]{found[0]}", found[1]
        return None
    for kind in shape.__args__:  # a union of types
        if _fits(value, kind):
            return None
    return "", f"must be {' or '.join(_KINDS[kind] for kind in shape.__args__)}, got {brief(value)}"


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
