"""Shared exception types, one kind per fault.

Every error raised by the library derives from DomainError so the CLI can
separate bad input data from bad flags, and a check that can fail returns
its report instead of raising.  Kept apart on purpose: TypeError for
mixing the two rings (Python's convention for operands of the wrong
type), the ArithmeticError of coxeter._trace_coeff (an invariant that
Newton's identities make unreachable), and cli._kostant_tables' catch of
ExactDivisionError, since cramer_z_table recomputes a table rather than
checking one and that kernel fault has several raisers.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class NotSymmetric(DomainError):
    """Laurent polynomial is not invariant under q -> 1/q."""


class ExactDivisionError(DomainError):
    """Polynomial division that was promised to be exact left a remainder."""


class BadRank(DomainError):
    """Rank outside the valid range for the requested diagram family."""


class UnknownVertex(DomainError):
    """Vertex index not present in the diagram."""


class NotATree(DomainError):
    """Operation requires a connected acyclic diagram."""


class ZeroDenominator(DomainError):
    """Rational function with zero denominator."""


class ShapeViolation(DomainError):
    """Diagram does not have the shape required by the identity."""


class SizeMismatch(DomainError):
    """Sizes that must agree do not: sample-point lists, matrix or block
    dimensions, braid strand counts or series orders."""


class PreconditionABneq2C(DomainError):
    """The block relation A*B = 2*C fails."""


class BadType(DomainError):
    """Not a valid affine ADE family label, or a check form that does not
    apply to the family."""


class IndexOutOfRange(DomainError):
    """Series length, order, system number or exponent outside its range."""


class NotPure(DomainError):
    """Braid word with a nontrivial strand permutation."""


class UsageError(Exception):
    """Bad command-line flags (kept apart from DomainError on purpose)."""
