"""Exception types raised by the library.

All library-specific failures derive from :class:`ShrinkLogitError` so
callers can catch one base class at an API boundary (the CLI does).
"""


class ShrinkLogitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(ShrinkLogitError):
    """A matrix argument is not square or contains non-finite entries."""


class NotPSDError(ShrinkLogitError):
    """An operation required a positive semidefinite matrix and got none."""


class SingularInformationError(ShrinkLogitError):
    """The information matrix X'WX is rank deficient at ``linalg.RANK_CUT``."""


class NotConvergedError(ShrinkLogitError):
    """IRLS hit the iteration cap before the step size fell below tol.

    The partial fit is attached so callers can still inspect (and report)
    the last iterate.
    """

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class MissingRestrictionError(ShrinkLogitError):
    """A restricted estimator or comparison was requested without H, h."""


class SingularRestrictionGramError(ShrinkLogitError):
    """The restriction Gram matrix H C^-1 H' is rank deficient."""


class DimensionMismatchError(ShrinkLogitError):
    """Vector and matrix dimensions do not line up."""


class DegenerateTermsError(ShrinkLogitError):
    """All diagonal risk weights vanish, so the scalar comparison bound is undefined."""


class DegenerateProjectionError(ShrinkLogitError):
    """Projecting a coefficient draw onto the restriction null space kept failing."""


class AllReplicationsFailedError(ShrinkLogitError):
    """Every Monte Carlo replication was skipped (no converged fits)."""


class CsvParseError(ShrinkLogitError):
    """A CSV field failed to parse. Carries 1-based row and column numbers."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonBinaryResponseError(CsvParseError):
    """The response column contains a value other than 0 or 1."""


class ConstantColumnError(ShrinkLogitError):
    """A predictor column is constant, so correlations are undefined."""
