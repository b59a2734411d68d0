"""Kostant Poincare series of the binary polyhedral (Klein) groups.

Each affine ADE diagram carries one series per vertex, P_i = Z_i / ((1-q^a)(1-q^b))
with nonnegative integer numerators Z_i of degree at most the Coxeter number h,
a + b = h + 2 and ab = 2|B|.  The bookkeeping uses one extra virtual vertex -1
hanging off the affine vertex with P_{-1} = 1/q; it never enters the diagram
itself.  Vertex indexing matches diagram.build: 0 is the affine vertex, the
cycle family is numbered along the cycle, the D family goes affine leaf,
partner leaf, central path, far fork, and the E families run down the long
arm first with the short leaf last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from math import comb, isqrt

from .algebra import Laurent, Poly, RatFunc, z_substitute
from .coxeter import (char_poly, cofactors, coxeter_poly,
                      walk_expansion_residual, walk_gf)
from .diagram import Diagram, ade_types, build
from .errors import BadRank, BadType, IndexOutOfRange, UnknownVertex
from .report import IdentityReport

# The most terms a series may have.  Its coefficients grow linearly, so the
# work and the text grow a little faster than the count: the slowest type
# (~A8 at its last vertex) prints 8 MB through the command line in about a
# second at the cap, while the suites and the benchmark ask for at most 400.
MAX_TERMS = 500_000


def _exps(*exponents: int) -> Laurent:
    return Laurent((e, 1) for e in exponents)  # a repeated exponent adds up


@dataclass(frozen=True)
class KleinGroupData:
    """Series data for one affine diagram: exponents a and b, Coxeter number
    h, group order, and the numerator table indexed by vertex."""

    family: str
    n: int
    a: int
    b: int
    h: int
    order_b: int
    z_table: tuple[Laurent, ...]
    z_minus1: Laurent

    def diagram(self) -> Diagram:
        return build(self.family, self.n)

    @property
    def vertex_count(self) -> int:
        return len(self.z_table)

    def denominator(self) -> Laurent:
        one = Laurent.one()
        return (one - Laurent.q(self.a)) * (one - Laurent.q(self.b))

    def numerator(self, i: int) -> Laurent:
        """Z_i, and Z_{-1} = q^-1 (1-q^a)(1-q^b) at the virtual vertex."""
        if i == -1:
            return self.z_minus1
        if not (0 <= i < self.vertex_count):
            raise UnknownVertex(f"no vertex {i}")
        return self.z_table[i]


def klein_data(family: str, n: int) -> KleinGroupData:
    """Built-in numerator tables for the affine ADE families."""
    if family == "affA":
        if n < 1:
            raise BadRank("affine A needs n >= 1")
        a, b = 2, n + 1
        z = tuple(_exps(i, n - i + 1) for i in range(n + 1))
    elif family == "affD":
        if n < 4:
            raise BadRank("affine D needs n >= 4")
        a, b = 4, 2 * n - 4
        table = [_exps(0, 2 * n - 2), _exps(2, 2 * n - 4)]
        for k in range(2, n - 1):
            table.append(_exps(k - 1, k + 1, 2 * n - 3 - k, 2 * n - 1 - k))
        table.append(_exps(n - 2, n))
        table.append(_exps(n - 2, n))
        z = tuple(table)
    elif family == "affE" and n == 6:
        a, b = 6, 8
        z = (_exps(0, 12), _exps(1, 5, 7, 11), _exps(2, 4, 6, 6, 8, 10),
             _exps(3, 5, 7, 9), _exps(4, 8), _exps(3, 5, 7, 9), _exps(4, 8))
    elif family == "affE" and n == 7:
        a, b = 8, 12
        z = (_exps(0, 18), _exps(1, 7, 11, 17), _exps(2, 6, 8, 10, 12, 16),
             _exps(3, 5, 7, 9, 9, 11, 13, 15), _exps(4, 6, 8, 10, 12, 14),
             _exps(5, 7, 11, 13), _exps(6, 12), _exps(4, 8, 10, 14))
    elif family == "affE" and n == 8:
        a, b = 12, 20
        z = (_exps(0, 30), _exps(1, 11, 19, 29), _exps(2, 10, 12, 18, 20, 28),
             _exps(3, 9, 11, 13, 17, 19, 21, 27),
             _exps(4, 8, 10, 12, 14, 16, 18, 20, 22, 26),
             _exps(5, 7, 9, 11, 13, 15, 15, 17, 19, 21, 23, 25),
             _exps(6, 8, 12, 14, 16, 18, 22, 24), _exps(7, 13, 17, 23),
             _exps(6, 10, 14, 16, 20, 24))
    elif family == "affE":
        raise BadRank("affine E_n needs n in {6, 7, 8}")
    else:
        raise BadType(f"no Klein group data for {family}_{n}")
    h = a + b - 2
    one = Laurent.one()
    zm1 = Laurent.q(-1) * (one - Laurent.q(a)) * (one - Laurent.q(b))
    return KleinGroupData(family, n, a, b, h, a * b // 2, z, zm1)


def klein_types(max_rank: int):
    """All built-in types with rank at most max_rank."""
    return [t for t in ade_types(max_rank) if t[0].startswith("aff")]


# ---------------------------------------------------------------------------
# series expansion
# ---------------------------------------------------------------------------

def poincare_series(data: KleinGroupData, i: int, terms: int) -> Laurent:
    """Exact expansion of P_i through q^terms.

    Returned as a Laurent polynomial so the virtual vertex's exact value 1/q
    fits; every coefficient of a real vertex is a nonnegative integer.
    """
    if not 0 <= terms <= MAX_TERMS:
        raise IndexOutOfRange(f"terms must be in 0..{MAX_TERMS}")
    num = data.numerator(i)
    lo = min(num.support, default=0)
    c = [0] * (terms + 1 - lo)
    for e, v in num.items():
        if e <= terms:
            c[e - lo] = v
    for step in (data.a, data.b):
        # divide by 1 - q^step as a power series: a running sum along each
        # residue class mod step
        for r in range(step):
            c[r::step] = accumulate(c[r::step])
    return Laurent._of({e: v for e, v in zip(count(lo), c) if v})


# ---------------------------------------------------------------------------
# linear systems and ratio formulas
# ---------------------------------------------------------------------------

def verify_system(data: KleinGroupData, which: int) -> IdentityReport:
    """Check one of the three row-vector linear systems.

    14: over the rational functions P_i, 15: over the numerators Z_i,
    16: the Cramer identity on the cofactor column of the diagram.  The
    residual is the tuple of the rows' residuals.  Every P_i is Z_i over
    the one denominator D, so a row of 14 is the row of 15 over D, and its
    residual is the numerator of that quotient, reduced once.
    """
    d = data.diagram()
    # per system: the head z, the vector v and the virtual entry v_-1
    if which in (14, 15):
        head, vec, virtual = Laurent.z(), data.z_table, data.z_minus1
    elif which == 16:
        table = cofactors(d)
        head, vec = Poly.x(), [table[j, 0] for j in range(d.n)]
        virtual = char_poly(d)
    else:
        raise IndexOutOfRange("which must be 14, 15 or 16")
    parts = []
    for j in range(d.n):
        acc = head * vec[j]
        for i, w in d.neighbors(j):
            acc = acc - w * vec[i]
        if j == 0:
            acc = acc - virtual
        parts.append(acc)
    if which == 14:
        den = data.denominator()
        parts = [RatFunc(row, den).num for row in parts]
    return IdentityReport.of(f"system-{which}-{data.family}{data.n}",
                             None, None, tuple(parts))


def cramer_z_table(data: KleinGroupData) -> list[Laurent]:
    """Recompute the numerators from the linear system by Cramer's rule.

    Z_i = Z_{-1} * H_i0(q + 1/q) / T(q + 1/q); the division is exact, and
    the affine entry lands on 1 + q^h without any rescaling.
    """
    d = data.diagram()
    table = cofactors(d)
    denom = z_substitute(char_poly(d))
    return [(data.z_minus1 * z_substitute(table[i, 0])).exact_div(denom)
            for i in range(d.n)]


def ebeling_ratios(data: KleinGroupData) -> list[IdentityReport]:
    """Ratio formulas tying numerators to the cofactor column.

    Pairwise Z_i H_j0 = Z_j H_i0 for all vertex pairs, plus the anchored
    form q Z_i T^(z->q) = Z_{-1}-cleared H_i0: for every family the anchor
    divisor is the graph characteristic polynomial of the affine diagram
    (only for odd cycles does it differ from the Coxeter polynomial).
    """
    d = data.diagram()
    table = cofactors(d)
    h_q = [z_substitute(table[i, 0]) for i in range(d.n)]
    anchor = z_substitute(char_poly(d))
    reports = []
    for i in range(d.n):
        for j in range(i, d.n):
            reports.append(IdentityReport.compare(
                f"ratio-{data.family}{data.n}-{i}-{j}",
                data.z_table[i] * h_q[j], data.z_table[j] * h_q[i]))
    denom = data.denominator()
    for i in range(d.n):
        lhs = Laurent.q(1) * data.z_table[i] * anchor
        rhs = denom * h_q[i]
        reports.append(IdentityReport.compare(
            f"anchor-{data.family}{data.n}-{i}", lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# odd-cycle closed form
# ---------------------------------------------------------------------------

def _odd_cycle_char(m: int) -> Poly:
    """Characteristic polynomial of the cycle on 2m+1 vertices; the
    degenerate one-vertex cycle is z - 2."""
    if m == 0:
        return Poly((-2, 1))
    return char_poly(build("affA", 2 * m))


def a2m_recurrence(m: int) -> Poly:
    """Binomial expansion of the odd-cycle characteristic polynomial:
    z^(2m+1) - sum_i C(2m+1, i) * char(cycle 2m-2i) - 2*4^m, with the
    one-vertex cycle entering as z - 2 (a loop counts twice in walks).
    Follows from z^N = sum_j C(N, j) * 2 T_{N-2j}(z/2) and
    char(cycle N) = 2 T_N(z/2) - 2."""
    acc = Poly.monomial(1, 2 * m + 1)
    for i in range(1, m + 1):
        acc = acc - comb(2 * m + 1, i) * _odd_cycle_char(m - i)
    return acc - Poly.const(2 * 4 ** m)


def a2m_closed_form(m: int) -> IdentityReport:
    """Odd cycles: the binomial recurrence reproduces the characteristic
    polynomial, and q * char(q + 1/q) = q^(-2m) (q^(2m+1) - 1)^2.  The
    residual is the pair of the two differences."""
    direct = _odd_cycle_char(m)
    rec = a2m_recurrence(m)
    res_rec = rec - direct
    target = (Laurent.q(2 * m + 1) - Laurent.one()) ** 2
    res_sub = Laurent.q(1) * z_substitute(direct) - target.shifted(-2 * m)
    return IdentityReport.of(f"odd-cycle-closed-form-m{m}", rec, direct,
                             (res_rec, res_sub))


# ---------------------------------------------------------------------------
# squares, walks, perfect squares
# ---------------------------------------------------------------------------

def prop2_squares(data: KleinGroupData, i: int) -> IdentityReport:
    """Square formula: P_i^2 = (P_0 Tbar_i - T_i / q) / (q T^#), checked in
    the cleared polynomial form."""
    if not (1 <= i < data.vertex_count):
        raise UnknownVertex("vertex must be 1..n")
    d = data.diagram()
    t_i = coxeter_poly(d.delete([0, i]))
    tbar_i = coxeter_poly(d.delete([i]))
    anchor = z_substitute(char_poly(d))
    denom = data.denominator()
    lhs = Laurent.q(1) * anchor * data.z_table[i] * data.z_table[i]
    rhs = denom * data.z_table[0] * tbar_i - \
        denom * denom * Laurent.q(-1) * t_i
    return IdentityReport.compare(
        f"square-{data.family}{data.n}-{i}", lhs, rhs)


def walk_series_check(data: KleinGroupData, i: int, k_max: int) -> IdentityReport:
    """q P_i = sum_k d_i0^k z^(-k-1): the cofactor over the characteristic
    polynomial expands into weighted walk counts toward the affine vertex.
    The residual pairs eq. 10's (H_i0 / G against the counts) with the
    series' (q P_i against them through q^(k_max+1)), where a product with
    z^-1 = q / (1 + q^2) is the recurrence y_t = x_(t-1) - y_(t-2)."""
    if not (0 <= i < data.vertex_count):
        raise UnknownVertex(f"no vertex {i}")
    d = data.diagram()
    table = cofactors(d)  # first: it refuses a table above the cap
    walks = walk_gf(d, i, 0, k_max)
    acc = [0] * (k_max + 2)  # Horner in z^-1
    for d_k in reversed(walks):
        acc = [0, d_k, *acc[1:-1]]
        for t in range(2, k_max + 2):
            acc[t] -= acc[t - 2]
    series = (poincare_series(data, i, k_max).shifted(1)
              - Laurent(enumerate(acc)))
    return IdentityReport.of(f"walks-{data.family}{data.n}-{i}", None, None, (
        walk_expansion_residual(char_poly(d), table[i, 0], walks), series))


def perfect_square_check(data: KleinGroupData) -> IdentityReport:
    """s with s^2 = (h+2)^2 - 8|B| against |a - b|: a + b = h + 2 and
    ab = 2|B| make the value (a - b)^2.  A value that is not a square (a
    wrong |B|) reports no s and the residual 1."""
    want = abs(data.a - data.b)
    val = (data.h + 2) ** 2 - 8 * data.order_b
    s = isqrt(max(val, 0))
    if s * s != val:
        return IdentityReport.of("perfect-square", None, want, 1)
    return IdentityReport.of("perfect-square", s, want, s - want)
