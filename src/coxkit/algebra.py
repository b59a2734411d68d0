"""Exact arithmetic kernel.

Integer Laurent polynomials in one variable (sparse), dense integer
polynomials (the z-world), integer Laurent polynomials in two variables
(x, y), truncated power series with rational coefficients (integer
numerators over one common denominator), and rational functions kept in
reduced canonical form.  All values are immutable and every operation is
exact; no floating point enters anywhere.

The two sparse kinds, Laurent and BiLaurent, share one base (_Sparse)
for construction, addition, integer scaling, equality and hashing.
Bezoutians come from the Bezout matrix recurrence, so no two-variable
product or division is needed.  A Frame packs a polynomial into one
integer (Kronecker substitution), so that sums of products run as integer
arithmetic, and decodes such an integer back into a Laurent or BiLaurent.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod
from operator import add, mul, neg, sub
from struct import Struct
from typing import Union

from .errors import (DomainError, ExactDivisionError, IndexOutOfRange,
                     NotSymmetric, SizeMismatch, ZeroDenominator)


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (shared by Poly and the Laurent kernel)
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _list_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    # map runs the common prefix in C; the longer side's tail is copied
    out = list(map(add, a, b))
    out += a[len(b):] if len(a) > len(b) else b[len(a):]
    return _trim(out)


def _list_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = list(map(sub, a, b))
    if len(a) > len(b):
        out += a[len(b):]
    else:
        out += map(neg, b[len(a):])
    return _trim(out)


def _list_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _list_exact_div(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Exact division in Z[x]; raises if b does not divide a."""
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return ()
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c == 0:
            continue
        if c % lead:
            raise ExactDivisionError("leading coefficient does not divide")
        q = c // lead
        quot[k] = q
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    if any(rem):
        raise ExactDivisionError("nonzero remainder in exact division")
    return _trim(quot)


def _primitive(a: Sequence[int]) -> tuple[int, ...]:
    c = gcd(*a)
    if c in (0, 1):
        return tuple(a)
    return tuple(x // c for x in a)


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Sparse pseudo-remainder of a by b: lc(b)^k * a mod b with one factor
    lc(b) per step, so k <= da - db + 1, the exponent of the dense one
    (sympy's prem), and the sign follows lc(b)^k.  Both inputs are trimmed,
    and b is nonempty."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [x * lb for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= lr * y
        r = list(_trim(r))
    return tuple(r)


def _list_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """GCD in Z[x] via the primitive pseudo-remainder sequence."""
    if not a:
        g = list(b)
    elif not b:
        g = list(a)
    else:
        cont = gcd(*a, *b)
        f, g2 = _primitive(a), _primitive(b)
        if len(f) < len(g2):
            f, g2 = g2, f
        while g2:
            r = _pseudo_rem(f, g2)
            f, g2 = g2, _primitive(r)
        g = [cont * x for x in f]
    if g and g[-1] < 0:
        g = [-x for x in g]
    return _trim(list(g))


def _power(base, e: int, one):
    """base^e by square and multiply; one for e = 0."""
    if e < 0:
        raise IndexOutOfRange("exponent must be >= 0")
    out = one
    while e > 0:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# Poly: dense integer polynomial (the carrier of the z-world)
# ---------------------------------------------------------------------------

class Poly:
    """Dense integer polynomial, coefficients in ascending order."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self._c = _trim(list(coeffs))

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(c: int, k: int) -> "Poly":
        return Poly((c,)).shift(k)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def lead(self) -> int:
        return self._c[-1] if self._c else 0

    def __getitem__(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        p = Poly.__new__(Poly)
        p._c = _list_add(self._c, other._c)
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        # written out like +: self + (-other) builds the negation first
        if not isinstance(other, Poly):
            return NotImplemented
        p = Poly.__new__(Poly)
        p._c = _list_sub(self._c, other._c)
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p._c = tuple(map(neg, self._c))
        return p

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, Poly):
            p = Poly.__new__(Poly)
            p._c = _list_mul(self._c, other._c)
            return p
        if not isinstance(other, int):
            return NotImplemented
        if other == 1:
            return self  # a Poly is immutable
        if other == 0:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p._c = tuple(map(other.__mul__, self._c))
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly.one())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(("Poly", self._c))

    def exact_div(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected a Poly, got {type(other).__name__}")
        p = Poly.__new__(Poly)
        p._c = _list_exact_div(self._c, other._c)
        return p

    def gcd(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected a Poly, got {type(other).__name__}")
        p = Poly.__new__(Poly)
        p._c = _list_gcd(self._c, other._c)
        return p

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise IndexOutOfRange("exponent must be >= 0")
        return Poly((0,) * k + self._c)

    def render(self, var: str = "z") -> str:
        return _render_terms(
            [(k, c) for k, c in enumerate(self._c) if c], var)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


# ---------------------------------------------------------------------------
# sparse integer maps: the arithmetic Laurent and BiLaurent share
# ---------------------------------------------------------------------------

_new = object.__new__


class _Sparse:
    """A sparse map key -> nonzero integer coefficient, closed under +, -
    and integer scaling.  The empty map is zero.  Values of different
    subclasses never compare equal, not even two zeros, and neither add
    nor subtract."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | Iterable[tuple] = ()):
        # a dict is tested first: the test costs a tenth of the Mapping one
        items = (coeffs.items() if isinstance(coeffs, (dict, Mapping))
                 else coeffs)
        d: dict = {}
        for k, v in items:
            if v:
                d[k] = d.get(k, 0) + v
                if not d[k]:
                    del d[k]
        self._c = d

    @classmethod
    def _of(cls, d: dict):
        """Wrap a map whose coefficients are already nonzero.  The ring
        operations and from_poly build their result inline instead: this
        call costs about a tenth of a small Laurent sum."""
        out = _new(cls)
        out._c = d
        return out

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def total(cls, terms: Iterable):
        """The sum of values of this class, added into one map: a chain of
        + copies the running sum once per term."""
        d: dict = {}
        for term in terms:
            if type(term) is not cls:
                raise TypeError(f"cannot add {type(term).__name__} to "
                                f"{cls.__name__}")
            if not d:
                d = dict(term._c)
                continue
            get = d.get
            for k, v in term._c.items():
                nv = get(k, 0) + v
                if nv:
                    d[k] = nv
                elif k in d:
                    del d[k]
        return cls._of(d)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def items(self) -> tuple:
        return tuple(sorted(self._c.items()))

    def __len__(self) -> int:
        """The number of nonzero terms, without sorting them."""
        return len(self._c)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self._c)
        for k, v in other._c.items():
            nv = d.get(k, 0) + v
            if nv:
                d[k] = nv
            elif k in d:
                del d[k]
        out = _new(type(self))
        out._c = d
        return out

    def __sub__(self, other):
        # written out like +: going through self + (-other) builds the
        # negated map first, which doubles the cost of a small difference
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self._c)
        for k, v in other._c.items():
            nv = d.get(k, 0) - v
            if nv:
                d[k] = nv
            elif k in d:
                del d[k]
        out = _new(type(self))
        out._c = d
        return out

    def __neg__(self):
        out = _new(type(self))
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __mul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        if not c:
            return self.zero()
        out = _new(type(self))
        out._c = {k: c * v for k, v in self._c.items()}
        return out

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.items()))


# ---------------------------------------------------------------------------
# Laurent: sparse integer Laurent polynomial in one variable
# ---------------------------------------------------------------------------

class Laurent(_Sparse):
    """Integer Laurent polynomial, a sparse map exponent -> coefficient."""

    __slots__ = ()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def q(k: int = 1) -> "Laurent":
        return Laurent({k: 1})

    @staticmethod
    def term(c: int, k: int) -> "Laurent":
        return Laurent({k: c}) if c else Laurent()

    @staticmethod
    def const(c: int) -> "Laurent":
        return Laurent.term(c, 0)

    @staticmethod
    def z() -> "Laurent":
        """q + 1/q."""
        return Laurent({1: 1, -1: 1})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    @property
    def min_exp(self) -> int:
        return min(self._c)

    @property
    def max_exp(self) -> int:
        return max(self._c)

    def __mul__(self, other: Union["Laurent", int]) -> "Laurent":
        if isinstance(other, int):
            return _Sparse.__mul__(self, other)
        if not isinstance(other, Laurent):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        d: dict[int, int] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = ka + kb
                nv = d.get(k, 0) + va * vb
                if nv:
                    d[k] = nv
                elif k in d:
                    del d[k]
        out = _new(Laurent)
        out._c = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        return _power(self, n, Laurent.one())

    def bar(self) -> "Laurent":
        """Substitute q -> 1/q."""
        return Laurent._of({-k: v for k, v in self._c.items()})

    def shifted(self, k: int) -> "Laurent":
        """Multiply by q^k."""
        out = _new(Laurent)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

    @property
    def is_palindromic(self) -> bool:
        return all(self._c.get(-k, 0) == v for k, v in self._c.items())

    def to_poly(self) -> tuple[int, Poly]:
        """Write self = q^shift * p with p(0) != 0; zero gives (0, 0)."""
        if self.is_zero:
            return 0, Poly.zero()
        shift = self.min_exp
        coeffs = [0] * (self.max_exp - shift + 1)
        for k, v in self._c.items():
            coeffs[k - shift] = v
        return shift, Poly(coeffs)

    @staticmethod
    def from_poly(p: Poly, shift: int = 0) -> "Laurent":
        out = _new(Laurent)
        out._c = {k + shift: c for k, c in enumerate(p.coeffs) if c}
        return out

    def exact_div(self, other: "Laurent") -> "Laurent":
        """Exact division; the quotient is again a Laurent polynomial."""
        if other.is_zero:
            raise ExactDivisionError("division by zero")
        sa, pa = self.to_poly()
        sb, pb = other.to_poly()
        return Laurent.from_poly(pa.exact_div(pb), sa - sb)

    def is_unit_multiple_of(self, other: "Laurent") -> tuple[int, int] | None:
        """If self = sign * q^k * other, return (sign, k); else None."""
        if self.is_zero or other.is_zero:
            return (1, 0) if self.is_zero and other.is_zero else None
        sa, pa = self.to_poly()
        sb, pb = other.to_poly()
        for sign in (1, -1):
            if pa == pb * sign:
                return sign, sa - sb
        return None

    def render(self, var: str = "q") -> str:
        return _render_terms(self.items(), var)

    def __repr__(self) -> str:
        return f"Laurent({self.render()})"


def _render_terms(items: Sequence[tuple[int, int | Fraction]],
                  var: str) -> str:
    """Canonical text: terms ascending by exponent, `q^-2` style powers."""
    if not items:
        return "0"
    parts: list[str] = []
    for k, c in items:
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# conversions between the q-world and the z-world
# ---------------------------------------------------------------------------

def _next_row(row: list[int], sign: int) -> list[int]:
    """The binomial row of (q + sign/q)^(k+1) from that of (q + sign/q)^k.
    The row of power k lists sign^t C(k, t), the coefficient of q^(k-2t),
    for t = 0..k."""
    return [1, *[a + sign * b for a, b in zip(row[1:], row)], sign * row[-1]]


def _substitute(p: Poly, sign: int) -> Laurent:
    """p(q + sign/q) for sign = +-1: c_k contributes c_k sign^t C(k, t) to
    q^(k - 2t)."""
    d: dict[int, int] = {}
    row = [1]
    for k, c in enumerate(p.coeffs):
        if k:
            row = _next_row(row, sign)
        if c:
            for t, b in enumerate(row):
                e = k - 2 * t
                d[e] = d.get(e, 0) + c * b
    return Laurent._of({e: c for e, c in d.items() if c})


def _unsubstitute(p: Laurent, sign: int) -> Poly:
    """The polynomial f with f(q + sign/q) = p, for sign = +-1: peel the
    coefficient c of q^k off with c times the binomial row of power k, for
    k from the top exponent down to 0.  Its term c sign^t C(k, t) at
    q^(k - 2t) is the one before times sign (k - t + 1) / t, exactly."""
    rem = dict(p._c)
    out = [0] * (max(rem, default=-1) + 1)
    for k in reversed(range(len(out))):
        b = out[k] = rem.pop(k, 0)
        if b:
            for t in range(1, k + 1):
                b = sign * b * (k - t + 1) // t
                rem[k - 2 * t] = rem.get(k - 2 * t, 0) - b
    if any(rem.values()):
        name = "q + 1/q" if sign > 0 else "q - 1/q"
        raise DomainError(f"not a polynomial in {name}")
    return Poly(out)


def z_substitute(p: Poly) -> Laurent:
    """Evaluate a z-polynomial at z = q + 1/q."""
    return _substitute(p, 1)


def q_to_z(p: Laurent) -> Poly:
    """Inverse of z_substitute on palindromic Laurent polynomials."""
    if not p.is_palindromic:
        raise NotSymmetric(f"not invariant under q -> 1/q: {p.render()}")
    return _unsubstitute(p, 1)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_poly(mat: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant over Z[x] (see _det_packed)."""
    return Poly(_det_packed([[list(enumerate(e._c)) for e in row]
                             for row in mat]))


def _det_packed(rows) -> Sequence[int]:
    """Coefficients of the determinant over Z[x] of a matrix of term lists
    (k, c), k >= 0, by one integer Bareiss at x = 2^w.  Each permutation
    term has l1 norm at most the product of the rows' l1 norms, so that
    product bounds every coefficient."""
    frame = Frame(prod(sum(abs(c) for terms in row for _, c in terms)
                       for row in rows))
    det = _bareiss([[frame.pack(terms) for terms in row] for row in rows])
    return frame.digits(det, abs(det).bit_length() // frame.width + 1)


def _bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix: each
    division is exact, since each entry it gives is a minor of mat."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise SizeMismatch("matrix is not square")
    m = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            a = row[k]
            row[k + 1:] = [(pivot * x - a * y) // prev
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return sign * m[-1][-1] if n else 1


def _det_laplace(mat: Sequence[Sequence[Laurent]]) -> Laurent:
    """Cofactor expansion along the first row: the independent oracle that
    det_exact is tested against, never a computing path."""
    n = len(mat)
    if n == 0:
        return Laurent.one()
    if n == 1:
        return mat[0][0]
    acc = Laurent.zero()
    for j in range(n):
        c = mat[0][j]
        if c.is_zero:
            continue
        minor = [[row[t] for t in range(n) if t != j] for row in mat[1:]]
        term = c * _det_laplace(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def det_exact(mat: Sequence[Sequence[Laurent]]) -> Laurent:
    """Exact determinant of a square Laurent matrix.

    Divides each row by its lowest power of q, writes the rows in w = q^g
    for g the gcd of the exponents left (1 when they are all 0), takes
    the determinant over Z[w] by _det_packed, and multiplies the q-powers
    back in.  On the Coxeter matrix and its minors g is 2: the w = q^2 lift.
    """
    lows = [min((k for e in row for k in e._c), default=0) for row in mat]
    g = gcd(*[k - low for row, low in zip(mat, lows)
              for e in row for k in e._c]) or 1
    digits = _det_packed([[[((k - low) // g, c) for k, c in e._c.items()]
                           for e in row] for row, low in zip(mat, lows)])
    shift = sum(lows)
    return Laurent._of({g * k + shift: c
                        for k, c in enumerate(digits) if c})


# ---------------------------------------------------------------------------
# two-variable Laurent polynomials
# ---------------------------------------------------------------------------

class BiLaurent(_Sparse):
    """Integer Laurent polynomial in two variables x and y, a sparse map
    (i, j) -> coefficient of x^i y^j."""

    __slots__ = ()

    @staticmethod
    def outer(f: Laurent, g: Laurent) -> "BiLaurent":
        """f(x) * g(y)."""
        return BiLaurent._of({(i, j): a * b for i, a in f._c.items()
                              for j, b in g._c.items()})

    def shifted(self, k: int) -> "BiLaurent":
        """Multiply by (xy)^k."""
        return BiLaurent._of({(i + k, j + k): v
                              for (i, j), v in self._c.items()})

    def subs_y_eq_x(self) -> Laurent:
        return Laurent((i + j, v) for (i, j), v in self._c.items())

    def eval_fraction(self, x: Fraction, y: Fraction) -> Fraction:
        acc = Fraction(0)
        for (i, j), v in self._c.items():
            acc += Fraction(v) * x ** i * y ** j
        return acc

    def __repr__(self) -> str:
        return f"BiLaurent({dict(self.items())!r})"


def bezoutian(f: Laurent, g: Laurent) -> BiLaurent:
    """(f(x) g(y) - f(y) g(x)) / (x - y), exactly, by the Bezout matrix
    recurrence.

    With f = q^lo F and g = q^lo G for polynomials F, G of degree <= n, the
    Bezoutian is (xy)^lo sum b_ij x^i y^j over 0 <= i, j < n, where
    b_ij = F_{i+1} G_j - F_j G_{i+1} + b_{i+1,j-1} and b is zero outside
    that square.
    """
    exps = [*f._c, *g._c]
    if not exps:
        return BiLaurent()
    lo = min(exps)
    n = max(exps) - lo
    fs, gs = [0] * (n + 1), [0] * (n + 1)
    for k, v in f._c.items():
        fs[k - lo] = v
    for k, v in g._c.items():
        gs[k - lo] = v
    # row j is row j - 1 moved down one place plus the new terms, which are
    # nonzero only on the support of F and G
    support = sorted({k - lo for k in exps if k > lo})
    d: dict[tuple[int, int], int] = {}
    row = [0] * n
    for j in range(n):
        row = row[1:] + [0]
        fj, gj = fs[j], gs[j]
        if fj or gj:
            for a in support:
                row[a - 1] += fs[a] * gj - fj * gs[a]
        d.update({(i + lo, j + lo): v for i, v in enumerate(row) if v})
    return BiLaurent._of(d)


def wronskian(f: Laurent, g: Laurent) -> Laurent:
    """f' g - f g' with the formal Laurent derivative: each pair of terms
    f_i q^i and g_j q^j adds (i - j) f_i g_j q^(i + j - 1)."""
    d: dict[int, int] = {}
    get = d.get
    gs = g._c.items()
    for i, a in f._c.items():
        for j, b in gs:
            if i != j:
                k = i + j - 1
                d[k] = get(k, 0) + (i - j) * a * b
    return Laurent._of({k: v for k, v in d.items() if v})


# ---------------------------------------------------------------------------
# Kronecker packing: a polynomial as one integer
# ---------------------------------------------------------------------------

class Frame:
    """Signed digits of one width w (Kronecker substitution).

    A polynomial, as its terms (k, c) of c x^k (enumerate(coeffs) of a
    dense one), packs into the integer sum of c 2^(w k).  Integer sums and
    products of packed values are then the packed sums and products of the
    polynomials, as long as every coefficient of a value that is decoded
    stays a digit: |c| < 2^(w - 1).
    w is the least multiple of 8, and at least 64, with bound < 2^(w - 1),
    so any integer of absolute value at most bound is a digit.
    """

    __slots__ = ("width",)

    def __init__(self, bound: int):
        self.width = max(64, (bound.bit_length() + 8) // 8 * 8)

    def pack(self, terms: Iterable[tuple[int, int]], stride: int = 1) -> int:
        """The sum of c 2^(w stride k) over the terms (k, c), k >= 0."""
        shift = self.width * stride
        x = 0
        for k, c in terms:
            x += c << shift * k
        return x

    def digits(self, x: int, count: int) -> Sequence[int]:
        """Digits 0 .. count - 1 of x, which has no nonzero digit above
        them; a few zero digits may follow.

        With off holding 2^(w - 1) in each of them, x + off has the digits
        c + 2^(w - 1), all in 0..2^w - 1, and xor with off turns each into
        the two's complement of c."""
        w = self.width
        if w == 64:
            # more than 40 digits are read as a multiple of 8, so that few
            # readers are kept
            if count > 40:
                count = (count + 7) & -8
            off, read = _digit_reader(count)
            return read(((x + off) ^ off).to_bytes(8 * count, "little"))
        step = w // 8
        off = int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")
        raw = ((x + off) ^ off).to_bytes(step * count, "little")
        return [int.from_bytes(raw[k:k + step], "little", signed=True)
                for k in range(0, step * count, step)]

    def laurents(self, xs: Iterable[int], start: int = 0) -> list[Laurent]:
        """For each x, the Laurent polynomial with digit k of x as the
        coefficient of q^(k + start).

        Only the digits from the lowest nonzero one to the highest are
        read."""
        w = self.width
        zero = Laurent.zero()
        digits = self.digits
        of = Laurent._of
        out = []
        for x in xs:
            if not x:
                out.append(zero)
                continue
            low = ((x & -x).bit_length() - 1) // w
            x >>= low * w
            out.append(of({e: c for e, c in enumerate(
                digits(x, x.bit_length() // w + 1), low + start) if c}))
        return out

    def bilaurents(self, xs: Iterable[int], stride: int) -> list[BiLaurent]:
        """For each x, digit stride a + b of x, 0 <= b < stride, as the
        coefficient of x^a y^b: the packing at y = 2^w and
        x = 2^(w stride)."""
        return [BiLaurent._of({divmod(p, stride): c for p, c in e._c.items()})
                for e in self.laurents(xs)]


@lru_cache(maxsize=64)
def _digit_reader(count: int):
    """The offset with 2^63 in each of count 64-bit digits, and a reader of
    count signed little-endian 64-bit digits.  The explicit little-endian
    Struct is portable, where memoryview.cast reads native order."""
    return (int.from_bytes((bytes(7) + b"\x80") * count, "little"),
            Struct(f"<{count}q").unpack)


# ---------------------------------------------------------------------------
# truncated power series over the rationals
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series in one variable truncated at a fixed order.

    The coefficients of u^0 .. u^order are integer numerators over one
    positive common denominator, kept in lowest terms: a product is one
    integer convolution, and equal series have equal fields.  All
    arithmetic is exact and closed at the order.
    """

    __slots__ = ("order", "_n", "_d")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int] = ()):
        if order < 0:
            raise IndexOutOfRange("order must be >= 0")
        c = [Fraction(x) for x in coeffs][: order + 1]
        # over the lcm of reduced denominators no prime divides them all
        den = lcm(*(x.denominator for x in c))
        self.order = order
        self._n = [x.numerator * (den // x.denominator) for x in c]
        self._n += [0] * (order + 1 - len(c))
        self._d = den

    @staticmethod
    def _of(order: int, nums: list[int], den: int) -> "TruncSeries":
        """nums / den (den nonzero) in lowest terms with den > 0."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        out = _new(TruncSeries)
        out.order = order
        out._n = nums if g == 1 else [x // g for x in nums]
        out._d = den // g
        return out

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries(order)

    @staticmethod
    def u(order: int) -> "TruncSeries":
        return TruncSeries(order, (0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._d) for x in self._n)

    def _match(self, other: "TruncSeries") -> int:
        if self.order != other.order:
            raise SizeMismatch("series truncated at different orders")
        return self.order

    def _plus(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        n = self._match(other)
        g = gcd(self._d, other._d)
        sa, sb = other._d // g, sign * (self._d // g)
        return TruncSeries._of(n, [a * sa + b * sb for a, b
                                   in zip(self._n, other._n)], self._d * sa)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._plus(other, -1)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._of(self.order, [-a for a in self._n], self._d)

    def __mul__(self, other: Union["TruncSeries", int, Fraction]) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return TruncSeries._of(self.order,
                                   [a * f.numerator for a in self._n],
                                   self._d * f.denominator)
        n = self._match(other)
        a, b = self._n, other._n
        out = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]
        return TruncSeries._of(n, out, self._d * other._d)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncSeries) and self.order == other.order
                and self._d == other._d and self._n == other._n)

    def __hash__(self) -> int:
        return hash(("TruncSeries", self.order, self._d, tuple(self._n)))

    @property
    def is_zero(self) -> bool:
        return not any(self._n)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With numerators a and a0 = a[0], 1/a has the coefficients
        c_k / a0^(k+1) for the integers c_0 = 1 and
        c_k = -sum_(i=1..k) a_i a0^(i-1) c_(k-i); the inverse of a/d is
        d/a, brought over the one denominator a0^(order+1)."""
        a = self._n
        a0 = a[0]
        if a0 == 0:
            raise ZeroDenominator("series with zero constant term")
        n = self.order
        scaled, power = [0], 1
        for x in a[1:]:
            scaled.append(x * power)
            power *= a0
        c = [1]
        for k in range(1, n + 1):
            c.append(-sum(map(mul, scaled[1: k + 1], c[::-1])))
        nums, power = [0] * (n + 1), self._d
        for k in range(n, -1, -1):
            nums[k] = c[k] * power
            power *= a0
        return TruncSeries._of(n, nums, power // self._d)

    def compose_poly(self, coeffs: Sequence[int | Fraction]) -> "TruncSeries":
        """Evaluate the polynomial sum c_k t^k at t = self (Horner)."""
        acc = TruncSeries.zero(self.order)
        for c in reversed(list(coeffs)):
            acc = acc * self + TruncSeries(self.order, (c,))
        return acc

    def render(self, var: str = "u") -> str:
        return _render_terms([(k, Fraction(x, self._d))
                              for k, x in enumerate(self._n) if x], var)

    def __repr__(self) -> str:
        return f"TruncSeries({self.render()} + O(u^{self.order + 1}))"


def series_sqrt1p(order: int) -> TruncSeries:
    """Binomial series of (1 + u)^(1/2) truncated at the given order."""
    c = [Fraction(1)]
    for k in range(1, order + 1):
        c.append(c[-1] * (Fraction(1, 2) - (k - 1)) / k)
    return TruncSeries(order, c)


# ---------------------------------------------------------------------------
# rational functions in reduced canonical form
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of two polynomials, stored fully reduced.

    Both members come from one ring, or TypeError: either dense Poly (the
    z-world) or Laurent (the q-world).  The denominator is kept as an honest polynomial
    with nonzero constant term (units q^k are pushed into the numerator) and
    a positive leading coefficient; the joint integer content is stripped.
    Equality is structural equality of the reduced form.
    """

    __slots__ = ("num", "den", "_laurent")

    def __init__(self, num, den):
        if type(num) is not type(den):
            raise TypeError(f"numerator and denominator of different rings: "
                            f"{type(num).__name__}, {type(den).__name__}")
        if den.is_zero:
            raise ZeroDenominator("zero denominator")
        self._laurent = isinstance(num, Laurent)
        if self._laurent:
            ns, np = num.to_poly()
            ds, dp = den.to_poly()
            np, dp = _reduce_pair(np, dp)
            self.num = Laurent.from_poly(np, ns - ds)
            self.den = Laurent.from_poly(dp)
        else:
            self.num, self.den = _reduce_pair(num, den)

    @staticmethod
    def from_int(c: int, laurent: bool = False) -> "RatFunc":
        if laurent:
            return RatFunc(Laurent.const(c), Laurent.one())
        return RatFunc(Poly.const(c), Poly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc.from_int(other, self._laurent)
        return RatFunc(other, Laurent.one() if self._laurent else Poly.one())

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) - self

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num, out.den, out._laurent = -self.num, self.den, self._laurent
        return out

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return self._coerce(other) / self

    def reciprocal(self) -> "RatFunc":
        if self.num.is_zero:
            raise ZeroDenominator("reciprocal of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def render(self, var: str | None = None) -> str:
        """The fraction in var, by default z for Poly and q for Laurent."""
        var = var or ("q" if self._laurent else "z")
        n = self.num.render(var)
        if self.den == (Laurent.one() if self._laurent else Poly.one()):
            return n
        return f"({n}) / ({self.den.render(var)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


def _reduce_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero:
        return Poly.zero(), Poly.one()
    # g carries the joint content of num and den, so by Gauss's lemma the
    # two quotients have coprime contents
    g = num.gcd(den)
    if g.degree > 0 or abs(g.lead) > 1:
        num = num.exact_div(g)
        den = den.exact_div(g)
    if den.lead < 0:
        num, den = -num, -den
    return num, den


# ---------------------------------------------------------------------------
# small matrix helpers
# ---------------------------------------------------------------------------

def mat_mul(a, b) -> list:
    """Matrix product over int, Poly or Laurent entries, or int times Poly.

    Every row of a must have len(b) entries, and every row of b as many as
    the first.  When both matrices hold only Laurent entries, each entry of
    the product is summed over its term pairs into one exponent ->
    coefficient map, whose zero coefficients are dropped at the end.
    Otherwise zero entries are skipped, and the ring's zero is taken from
    one product of entries.  An empty b leaves the column count unknown:
    the product then has rows of length 0.
    """
    p = len(b[0]) if b else 0
    if any(len(ra) != len(b) for ra in a) or any(len(rb) != p for rb in b):
        raise SizeMismatch("matrix shapes do not match")
    if set(map(type, chain(*a, *b))) <= {Laurent}:
        # each column of b as its nonzero entries, with their row numbers
        cols = [[(k, tuple(y._c.items())) for k, y in enumerate(col) if y._c]
                for col in zip(*b)]
        out = []
        for ra in a:
            xs = [tuple(x._c.items()) for x in ra]
            row = []
            for col in cols:
                d: dict[int, int] = {}
                get = d.get
                for k, ys in col:
                    for ka, va in xs[k]:
                        for kb, vb in ys:
                            e = ka + kb
                            d[e] = get(e, 0) + va * vb
                entry = _new(Laurent)
                entry._c = {e: v for e, v in d.items() if v}
                row.append(entry)
            out.append(row)
        return out
    zero = a[0][0] * b[0][0] * 0 if a and p else 0
    out = [[zero] * p for _ in a]
    for ra, row in zip(a, out):
        for x, rb in zip(ra, b):
            if x:
                for j, y in enumerate(rb):
                    if y:
                        row[j] = row[j] + x * y
    return out


def mat_eq(a: Sequence[Sequence[Laurent]],
           b: Sequence[Sequence[Laurent]]) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))
