"""Exception types shared across the package."""


class GscError(Exception):
    """Base class for all gscopt errors."""


class DomainError(GscError):
    """A point lies outside the open domain of a function.

    ``row`` identifies the first violating data row when the domain is
    defined row-wise (barrier-type losses), else it is None.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ParameterError(GscError, ValueError):
    """Invalid or inconsistent (M, nu) parameters or solver options."""


class NotPositiveDefiniteError(GscError):
    """A matrix required to be positive definite is not."""


class ConvergenceError(GscError):
    """An iterative subroutine ran out of budget.

    ``residual`` carries the last residual norm when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnboundedError(GscError):
    """A supremum/infimum is unbounded (e.g. conjugate outside its domain)."""


class SubproblemError(ConvergenceError):
    """The proximal Newton subproblem failed its acceptance check or its step budget."""
