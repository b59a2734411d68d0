"""Identity reports: one object per exact check, zero residual means holds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check: holds iff the residual is zero."""

    name: str
    lhs: object
    rhs: object
    residual: object
    holds: bool

    @staticmethod
    def of(name: str, lhs, rhs, residual) -> "IdentityReport":
        """The report whose verdict is that residual has no nonzero term."""
        return IdentityReport(name, lhs, rhs, residual,
                              nonzero_terms(residual) == 0)

    @staticmethod
    def compare(name: str, lhs, rhs) -> "IdentityReport":
        return IdentityReport.of(name, lhs, rhs, lhs - rhs)

    @property
    def residual_terms(self) -> int:
        return nonzero_terms(self.residual)


def nonzero_terms(residual) -> int:
    """The number of nonzero coefficients of a Poly, Laurent, BiLaurent or
    TruncSeries; an int or Fraction counts as a constant, and a tuple sums
    its parts."""
    if isinstance(residual, tuple):
        return sum(map(nonzero_terms, residual))
    if isinstance(residual, (int, Fraction)):
        return int(residual != 0)
    if hasattr(residual, "items"):
        return len(residual.items())
    return sum(1 for c in residual.coeffs if c)
