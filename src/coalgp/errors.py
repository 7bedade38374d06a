"""Exception types shared across the package."""

from __future__ import annotations


class CoalgpError(Exception):
    """Base class for all coalgp errors."""


class NewickError(CoalgpError):
    """Malformed Newick input.  Carries the character position of the fault."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)


class ValidationError(CoalgpError):
    """Input data violates a structural invariant (ordering, counts, dates)."""


def require_keys(obj, keys, what: str) -> dict:
    """``obj`` itself when it is a dict holding every key; otherwise a
    ValidationError naming ``what`` and the first missing key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{what} lacks the key {key!r}")
    return obj


class EvaluationError(CoalgpError):
    """A numerical evaluation failed (unordered field times, an unusable
    dominating level, a chain with no draws)."""


class SimulationError(CoalgpError):
    """A simulation could not proceed (proposal cap hit, divergent schedule)."""


class McmcError(CoalgpError):
    """The sampler reached a non-finite state.  Carries a state dump for triage."""

    def __init__(self, message: str, state_dump: dict | None = None):
        self.state_dump = state_dump
        super().__init__(message)
