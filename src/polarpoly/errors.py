"""Domain error types shared across the library.

Every error carries a stable ``code`` string which the CLI reports
verbatim in its JSON error output.  ``details`` holds the values of
extra context as they are (a complex number stays complex); the CLI
writes them into that output through ``polynomial.jsonable``.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for violations of the library's domain rules."""

    code = "DomainError"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class NotMonicError(DomainError):
    code = "NotMonic"


class DegreeZeroError(DomainError):
    code = "DegreeZero"


class DegreeTooLargeError(DomainError):
    """A coefficient the requested degree needs does not fit a double."""

    code = "DegreeTooLarge"


class NonFiniteError(DomainError):
    """A coefficient is NaN or infinite."""

    code = "NonFinite"


class EmptyRootSetError(DomainError):
    code = "EmptyRootSet"


class EmptyInputError(DomainError):
    code = "EmptyInput"


class SZeroAtOriginError(DomainError):
    code = "SZeroAtOrigin"


class FactorizationImpossible(DomainError):
    """No coefficient-wise factor exists for the given polynomial pair.

    Raised when some binomial coefficient of the first polynomial
    vanishes while the matching coefficient of the second does not, so
    no convolution factor can reproduce that term.
    """

    code = "FactorizationImpossible"

    def __init__(self, message: str, index: int, alpha: complex, beta: complex):
        super().__init__(message, index=index, alpha=alpha, beta=beta)
        self.index = index
        self.alpha = alpha
        self.beta = beta
