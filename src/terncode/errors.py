"""Exception types shared by the terncode modules."""

from __future__ import annotations


class CapacityError(RuntimeError):
    """A request exceeds a documented size or time budget.

    ``completed_fraction`` is set when a certification ran out of its
    wall-clock budget and reports how much of the scan had finished.
    """

    def __init__(self, message: str, completed_fraction: float | None = None):
        super().__init__(message)
        self.completed_fraction = completed_fraction


class ValidationError(ValueError):
    """A (f, g) pair violates one of the construction hypotheses.

    Carries the name of the offending family member ("f", "g", "f+g",
    "f-g"), the violated hypothesis, and a witness (a shift index for
    linear-coincidence failures) so callers can report exactly what broke.
    """

    def __init__(
        self,
        message: str,
        function_name: str | None = None,
        hypothesis: str | None = None,
        witness: int | None = None,
    ):
        super().__init__(message)
        self.function_name = function_name
        self.hypothesis = hypothesis
        self.witness = witness

    def to_json_obj(self) -> dict:
        return {
            "error": "validation",
            "message": str(self),
            "function": self.function_name,
            "hypothesis": self.hypothesis,
            "witness": self.witness,
        }


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
