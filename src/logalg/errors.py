"""Exception hierarchy shared across the package."""


class LogAlgError(Exception):
    """Base class for all package errors."""

    code = "error"


class MalformedInputError(LogAlgError):
    """Input violates a structural invariant (overlapping pieces, bad JSON shape, ...)."""

    code = "malformed-input"


class DomainMismatchError(LogAlgError):
    """Binary operation on objects living over different ambient spaces."""

    code = "domain-mismatch"


class InvalidParameterError(LogAlgError):
    """Numeric parameter outside its admissible range."""

    code = "invalid-parameter"


class SingularityError(LogAlgError):
    """Evaluation requested at a structural singularity of an expression tree."""

    code = "evaluation-at-singularity"

    def __init__(self, message, atom=None):
        super().__init__(message)
        self.atom = atom


class StructureError(LogAlgError):
    """Expression tree violates the structural membership rules."""

    code = "structure"


class InvariantError(LogAlgError):
    """A computed result failed a check it must pass, such as being finite."""

    code = "invariant-check"
