"""Exception hierarchy for the workbench.

Every error raised on a contract violation derives from IfwbError so callers
(and the CLI exit-code mapping) can distinguish input problems from bugs.
"""


class IfwbError(Exception):
    """Base class for all workbench errors."""


class NotSymmetric(IfwbError):
    """Matrix expected to be symmetric is not (beyond tolerance)."""


class NotPositiveDefinite(IfwbError):
    """Cholesky pivot hit zero or went negative."""


class DegenerateBasis(IfwbError):
    """Lattice basis columns are (numerically) linearly dependent."""


class DimensionTooLarge(IfwbError):
    """Input exceeds the guard for an exact (enumeration-scale) routine."""


class SingularA(IfwbError):
    """Integer target matrix A is singular (exact determinant zero)."""


class InfeasiblePermutation(IfwbError):
    """Permutation is not realizable by pseudo-triangularization."""


class WrongDimension(IfwbError):
    """Operation defined only for a specific number of streams."""
