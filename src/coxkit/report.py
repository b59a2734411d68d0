"""Identity reports: one object per exact check, zero residual means holds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check: holds iff the residual is zero.

    A report made by on_demand has no lhs or rhs until one is read: the
    first read runs its sides() once, and the pair it returns is kept, so
    ==, hash and repr see the same values as those of a report built with
    its sides."""

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
    def on_demand(name: str, residual, sides) -> "IdentityReport":
        """The report of residual whose (lhs, rhs) is sides(), made on the
        first read of either; sides must hold the values it needs, not look
        them up when it runs."""
        rep = object.__new__(IdentityReport)
        rep.__dict__.update(name=name, residual=residual,
                            holds=nonzero_terms(residual) == 0, _sides=sides)
        return rep

    def __getattr__(self, attr: str):
        # reached only when attr is not set: lhs and rhs of an on_demand
        # report that no one has read yet
        kept = self.__dict__
        if attr not in ("lhs", "rhs") or "_sides" not in kept:
            # the lookup that failed, for its AttributeError
            return object.__getattribute__(self, attr)
        kept["lhs"], kept["rhs"] = kept["_sides"]()
        del kept["_sides"]
        return kept[attr]

    @staticmethod
    def compare(name: str, lhs, rhs) -> "IdentityReport":
        """The report of lhs against rhs: equal sides take the ring's zero
        as residual, and only sides that differ are subtracted."""
        if lhs == rhs:
            return IdentityReport.of(name, lhs, rhs, lhs * 0)
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
        return len(residual)
    return sum(1 for c in residual.coeffs if c)
