"""Shared exception types; exit_code is what the CLI returns for each class."""

DEFAULT_PRECISION = 256  # bits: every entry point's default, and the CLI's


class DiophError(Exception):
    exit_code = 1


class ValidationError(DiophError):
    """Bad input: malformed files, off-curve points, illegal parameters."""

    exit_code = 1


class BudgetExceededError(DiophError):
    """An exact computation outgrew its configured budget."""

    exit_code = 2


class SizeBudgetError(BudgetExceededError):
    """A search box or length array outgrew its budget: a smaller search may fit."""


class CertificateError(DiophError):
    """A game certificate or internal consistency assertion failed."""

    exit_code = 3


class DegenerateTargetError(ValidationError):
    """Inhomogeneous target lies (numerically) in the orbit lattice."""


class ComponentError(ValidationError):
    """Point is not on the identity component of the real locus."""


class SingularMatrixError(ValidationError):
    """Matrix is numerically singular at working precision."""


class PoleProximityError(DiophError):
    """Argument too close to a lattice point for stable affine coordinates."""
