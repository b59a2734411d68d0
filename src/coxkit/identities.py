"""Christoffel-Darboux identities for Coxeter and characteristic polynomials.

Bezoutian and Wronskian forms of the one-row pivot decomposition, the chain
(three-term recurrence) bundle for a path tail, the cofactor forms, the
Binet-Cauchy determinant generalization, and the Poincare-series forms over
the Klein-group numerator tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations, starmap
from operator import add, mul

from .algebra import (BiLaurent, Frame, Laurent, RatFunc, _bareiss,
                      bezoutian, wronskian)
from .coxeter import _rebuild, char_poly, cofactors, coxeter_poly, schur_step
from .diagram import Diagram
from .errors import (BadType, ShapeViolation, SizeMismatch, UnknownVertex)
from .kostant import KleinGroupData
from .report import IdentityReport


# ---------------------------------------------------------------------------
# the one Christoffel-Darboux sum, and its forms on the one-row pivot
# ---------------------------------------------------------------------------

# A form is (F, S, s, total, holds): the pairing F, the square S(h) of a
# term, the shift s of (1 - u) X = X - X.shifted(s), the sum of the
# squares' class, which adds into one map, and the packed verdict of the
# sum (_bez_holds, _wr_holds).  The Wronskian is the y = x limit of the
# Bezoutian, so 1 - 1/(xy) becomes 1 - 1/x^2.  The pairing and the verdict
# are looked up when they run, so that a patched or traced one is the one
# called.
_BEZ = (lambda f, g: bezoutian(f, g), lambda h: BiLaurent.outer(h, h), -1,
        BiLaurent.total, lambda *sums: _bez_holds(*sums))
_WR = (lambda f, g: wronskian(f, g), lambda h: h * h, -2, Laurent.total,
       lambda *sums: _wr_holds(*sums))


def _cd(form, name: str, left, right, inside) -> IdentityReport:
    """sum_left F(f, g) = (1 - u) sum_inside S(h) + sum_right F(f, g): the
    sum of F(z h, h) = (1 - u) S(h) over the inside, where bilinearity and
    skew-symmetry keep only the pairs (f, g) that cross its boundary.

    The form's packed verdict decides it, and the two sums are made only
    when they are read: at once when they differ, for their difference, and
    on the first read of a side when they agree, whose residual is the
    ring's zero."""
    pair, square, shift, total, holds = form

    def sides():
        inner = total(map(square, inside))
        return (reduce(add, starmap(pair, left)),
                reduce(add, starmap(pair, right), inner - inner.shifted(shift)))

    if holds(left, right, inside):
        return IdentityReport.on_demand(name, total(()), sides)
    return IdentityReport.compare(name, *sides())


def _packed(left, right, inside):
    """The terms of each input of a sum, and the input and its Euler value
    T v = sum k c q^k packed at q = Y = 2^w, both keyed by the input's id,
    and w.

    Every input packs at one offset Y^-lo, lo the lowest exponent of them
    all, so that no exponent is negative: a term c q^k packs as
    c Y^(k - lo).  w is the width of Frame(bound), so that bound is below
    2^(w - 1), where, with |v| the sum of v's absolute coefficients and
    ||v|| = |v| + |T v|, bound is 2 ||f|| ||g|| summed over the pairs plus
    4 |h|^2 summed over the inside.  It is at least the sum of absolute
    coefficients of the difference of the two sides of either form, once
    its denominators are cleared (_bez_holds, _wr_holds)."""
    terms = {id(v): v.items() for part in (*left, *right, inside)
             for v in part}
    size = {key: sum(abs(c) for _, c in t) for key, t in terms.items()}
    both = {key: size[key] + sum(abs(k * c) for k, c in t)
            for key, t in terms.items()}
    bound = (2 * sum(both[id(f)] * both[id(g)] for f, g in (*left, *right))
             + 4 * sum(size[id(h)] ** 2 for h in inside))
    frame = Frame(bound)
    lo = min((t[0][0] for t in terms.values() if t), default=0)
    at_y = {key: (frame.pack((k - lo, c) for k, c in t),
                  frame.pack((k - lo, k * c) for k, c in t))
            for key, t in terms.items()}
    return terms, at_y, frame.width


def _bez_holds(left, right, inside) -> bool:
    """Whether sum_left Bez(f, g) = (1 - 1/(xy)) sum_inside h(x) h(y)
    + sum_right Bez(f, g), decided without a Bezoutian.

    Times xy (x - y), and then over x, every term is a product of the
    one-variable inputs: y (f(x) g(y) - f(y) g(x)) for a pair, and
    (xy - y^2 - 1 + y/x) h(x) h(y) for the inside.  At y = Y = 2^w, with
    every input packed at one offset Y^-lo (_packed), the coefficient of
    each power of x of the difference D is an integer sum d_j Y^(j - lo)
    over j >= lo, which is zero iff every d_j is, since |d_j| < Y / 2:
    |d_j| is at most the sum of D's absolute coefficients, at most
    2 |f| |g| summed over the pairs plus 4 |h|^2 summed over the inside,
    which _packed's bound is not below."""
    terms, at_y, w = _packed(left, right, inside)
    acc: dict[int, int] = {}
    get = acc.get
    for sign, side in ((1, left), (-1, right)):
        for f, g in side:
            fy, gy = sign * at_y[id(f)][0] << w, sign * at_y[id(g)][0] << w
            for i, c in terms[id(f)]:
                acc[i] = get(i, 0) + c * gy
            for i, c in terms[id(g)]:
                acc[i] = get(i, 0) - c * fy
    inner: dict[int, int] = {}
    for h in inside:
        hy = at_y[id(h)][0]
        for i, c in terms[id(h)]:
            inner[i] = inner.get(i, 0) + c * hy
    for i, v in inner.items():
        vy = v << w
        acc[i + 1] = get(i + 1, 0) - vy
        acc[i] = get(i, 0) + (vy << w) + v
        acc[i - 1] = get(i - 1, 0) - vy
    return not any(acc.values())


def _wr_holds(left, right, inside) -> bool:
    """Whether sum_left Wr(f, g) = (1 - 1/x^2) sum_inside h^2
    + sum_right Wr(f, g), decided without a Wronskian.

    Times q^2, every term is a product of one-variable values:
    q (Tf g - f Tg) for a pair, T the Euler operator q d/dq, and
    (q^2 - 1) h^2 for the inside.  At q = Y = 2^w, with every input packed
    at one offset Y^-lo (_packed), the difference D is one integer
    sum d_j Y^(j - 2 lo) over j >= 2 lo, which is zero iff every d_j is,
    since |d_j| < Y / 2: |d_j| is at most the sum of D's absolute
    coefficients, at most |Tf| |g| + |f| |Tg| summed over the pairs plus
    2 |h|^2 summed over the inside, which _packed's bound is not below."""
    _, at_y, w = _packed(left, right, inside)
    diff = 0
    for sign, side in ((1, left), (-1, right)):
        for f, g in side:
            (pf, tf), (pg, tg) = at_y[id(f)], at_y[id(g)]
            diff += sign * (tf * pg - pf * tg)
    squares = sum(at_y[id(h)][0] ** 2 for h in inside)
    return (diff << w) == (squares << 2 * w) - squares


def cd_coxeter(d: Diagram, pivot: int) -> IdentityReport:
    """Bezoutian form: Bez(G, G_del) = (1 - 1/(xy)) G_del(x) G_del(y)
    + weighted Bezoutians of the branch and cross terms, which by
    bilinearity are one Bezoutian of their weighted sum."""
    step = schur_step(d, pivot)
    return _cd(_BEZ, f"cd-bez-pivot{pivot}", [(step.total, step.base)],
               [(step.base, step.terms)], [step.base])


def cd_wronskian(d: Diagram, pivot: int) -> IdentityReport:
    """Wronskian form: the diagonal limit of the Bezoutian identity."""
    step = schur_step(d, pivot)
    return _cd(_WR, f"cd-wr-pivot{pivot}", [(step.total, step.base)],
               [(step.base, step.terms)], [step.base])


# ---------------------------------------------------------------------------
# chain bundle for an attached path
# ---------------------------------------------------------------------------

def _check_tail(d: Diagram, tail) -> None:
    k = len(tail)
    if len(set(tail)) != k or any(not 0 <= v < d.n for v in tail):
        raise UnknownVertex("tail must list distinct vertices of the diagram")
    for t in range(k - 1):
        if d.weight(tail[t], tail[t + 1]) != 1:
            raise ShapeViolation("tail edges must be consecutive with weight 1")
    allowed = set(tail)
    for t, v in enumerate(tail[:-1]):
        if not allowed.issuperset(d.neighbors(v)):
            raise ShapeViolation(
                f"tail vertex {v} has an edge leaving the tail")
        expected = {tail[t + 1]} | ({tail[t - 1]} if t > 0 else set())
        if set(d.neighbors(v)) != expected:
            raise ShapeViolation("tail is not an induced path")


def chain_identities(d: Diagram, tail) -> list[IdentityReport]:
    """Identity bundle for a path tail v_1 .. v_k hanging off the diagram.

    With C_i the polynomial of the diagram minus the first i tail vertices:
    the three-term recurrence, the transfer-matrix form, the telescoped
    ratio, and the Bezoutian and Wronskian sums.
    """
    tail = list(tail)
    k = len(tail)
    if k == 0:
        raise ShapeViolation("empty tail")
    _check_tail(d, tail)
    c = [coxeter_poly(d.delete(tail[:i])) for i in range(k + 1)]
    z = Laurent.z()
    reports = [IdentityReport.compare(f"chain-recurrence-{i}",
                                      c[i - 1] + c[i + 1], z * c[i])
               for i in range(1, k)]
    # transfer matrix [[0,1],[-1,z]]^(i-1) * [[C0,C1],[C1,C2]]
    if k >= 2:
        mat = [[c[0], c[1]], [c[1], c[2]]]
        for i in range(1, k):
            want = [[c[i - 1], c[i]], [c[i], c[i + 1]]]
            reports.append(IdentityReport.of(
                f"chain-transfer-{i}", None, None,
                tuple(mat[r][t] - want[r][t]
                      for r in range(2) for t in range(2))))
            mat = [[mat[1][0], mat[1][1]],
                   [z * mat[1][0] - mat[0][0], z * mat[1][1] - mat[0][1]]]
    # telescoped ratio: C_{i-1}/C_i = D * sum 1/(C_{j-1} C_j) + C_{k-1}/C_k,
    # taken over M_i = C_i ... C_k and reduced once.  With
    # S_i = sum_{j>i} M_i / (C_{j-1} C_j), going down from i = k gives
    # M_i = C_i M_{i+1}, M_i / C_k = C_i M_{i+1} / C_k and
    # S_i = M_{i+2} + C_i S_{i+1}, so no cofactor of M_i needs a division.
    det2 = c[0] * c[2] - c[1] * c[1] if k >= 2 else Laurent.zero()
    # M_{i+1}, M_{i+2}, M_{i+1}/C_k and S_{i+1}, at i = k - 1
    after, after2, head, s = c[k], Laurent.one(), Laurent.one(), Laurent.zero()
    ratios = []
    for i in range(k - 1, 0, -1):
        head, s = c[i] * head, after2 + c[i] * s
        whole = c[i] * after
        diff = RatFunc(c[i - 1] * after - c[k - 1] * head - det2 * s, whole)
        lhs = RatFunc(c[i - 1], c[i])
        # one reduced quotient serves both sides when they are equal
        rhs = lhs if diff.is_zero else lhs - diff
        ratios.append(IdentityReport.of(
            f"chain-ratio-{i}", lhs, rhs, diff.num))
        after, after2 = whole, after
    reports += reversed(ratios)
    # Christoffel-Darboux sums along the chain, over C_i .. C_{k-1}
    for i in range(1, k):
        for tag, form in (("bez", _BEZ), ("wr", _WR)):
            reports.append(_cd(form, f"chain-{tag}-{i}", [(c[i - 1], c[i])],
                               [(c[k - 1], c[k])], c[i:k]))
    return reports


# ---------------------------------------------------------------------------
# characteristic-polynomial forms
# ---------------------------------------------------------------------------

def cd_char(d: Diagram, i: int, j: int) -> tuple[IdentityReport, IdentityReport]:
    """Cofactor forms: Bez(G, H_ij) = sum_k H_ik(x) H_jk(y) and its
    diagonal limit Wr(G, H_ij) = sum_k H_ik(x) H_jk(x).

    Every side is a packed integer (_packed_table, _packed_row): the
    Bezoutian is (G(X) H(Y) - G(Y) H(X)) / (X - Y) at y = Y = 2^w and
    x = X = 2^(w s), and each sum is one sum of integer products."""
    if not (0 <= i < d.n and 0 <= j < d.n):
        raise UnknownVertex("vertices outside the diagram")
    edges = d.edges()
    frame, s, g_x, g_y, dg_y, at_y, table = _packed_table(d.n, edges)
    row_x = _packed_row(d.n, edges, i)
    h_x, h_y = row_x[j], at_y[i][j]
    h = table[i, j].coeffs
    dh_y = frame.pack((k - 1, k * c) for k, c in enumerate(h) if k)
    bez_rhs = sum(map(mul, row_x, at_y[j]))
    num = g_x * h_y - g_y * h_x
    # X - Y = Y^s - Y; a product is much cheaper than the division, which
    # is needed only when the identity fails
    x_minus_y = (1 << (frame.width * s)) - (1 << frame.width)
    bez_lhs = bez_rhs if num == bez_rhs * x_minus_y else num // x_minus_y
    rep8 = _packed_report(f"cd-char-bez-{i}-{j}", bez_lhs, bez_rhs,
                          lambda xs: frame.bilaurents(xs, s), BiLaurent)
    rep9 = _packed_report(
        f"cd-char-wr-{i}-{j}", dg_y * h_y - g_y * dh_y,
        sum(map(mul, at_y[i], at_y[j])), frame.laurents, Laurent)
    return rep8, rep9


def _packed_report(name: str, lhs: int, rhs: int, decode, ring
                   ) -> IdentityReport:
    """The report of two packed sides.  Equal sides take the ring's zero
    as residual, and are decoded when one is read; sides that differ are
    decoded at once, with their difference."""
    if lhs == rhs:
        return IdentityReport.on_demand(name, ring.zero(),
                                        lambda: decode((lhs, rhs)))
    left, right, residual = decode((lhs, rhs, lhs - rhs))
    return IdentityReport.of(name, left, right, residual)


# Keyed like coxeter's cofactor memo, and like it keeps only the most
# recent diagram: the suites finish with one diagram before the next.  The
# value is a plain tuple: a dataclass built at import added ~80 KB to the
# import's peak memory, which showed in the benchmark's peak RSS.
@lru_cache(maxsize=1)
def _packed_table(n: int, edges):
    """A diagram's char poly G and cofactor table H packed in one frame:
    (frame, stride s, G(X), G(Y), G'(Y), the rows of H_ik(Y), the table),
    with Y = 2^w and X = Y^s.

    The width comes from l1 bounds.  With |.| the sum of
    absolute coefficients, a = max |H_ik| and deg G = n:
    - Bez(G, H) has coefficients at most |G| |H| (each f_a g_b adds at most
      one to a coefficient), and G'H - GH' at most (2n - 1) |G| a;
    - sum_k H_ik(x) H_jk(y) and sum_k H_ik H_jk at most sum_k |H_ik| |H_jk|,
      which is at most max_i sum_k |H_ik|^2 (Cauchy-Schwarz);
    - a residual at most the sum of the two bounds, which every digit that
      is packed or decoded then fits under.
    Degrees in y stay below the stride s = n + 1."""
    d = _rebuild(n, edges)
    table = cofactors(d)
    g = char_poly(d).coeffs
    norms = [[sum(map(abs, h.coeffs)) for h in row] for row in table.entries]
    g1 = sum(map(abs, g))
    bound = ((2 * n - 1) * g1 * max(map(max, norms))
             + max(sum(a * a for a in row) for row in norms))
    s = n + 1
    frame = Frame(bound)
    at_y = [[0] * n for _ in range(n)]
    for r, row in enumerate(table.entries):
        for c in range(r, n):
            at_y[r][c] = at_y[c][r] = frame.pack(enumerate(row[c].coeffs))
    return (frame, s, frame.pack(enumerate(g), s), frame.pack(enumerate(g)),
            frame.pack((k - 1, k * c) for k, c in enumerate(g) if k),
            tuple(map(tuple, at_y)), table)


# A value at X has about s times the digits of one at Y: on A48 the whole
# table at X takes 18 MB, its largest row 0.8 MB and the table at Y 0.4 MB.
# So only the row of the current pairs is kept at X; the suites take the
# pairs of a diagram row by row.
@lru_cache(maxsize=1)
def _packed_row(n: int, edges, i: int) -> tuple[int, ...]:
    """Row i of the cofactor table at X = 2^(w s)."""
    frame, s, *_, table = _packed_table(n, edges)
    return tuple(frame.pack(enumerate(h.coeffs), s) for h in table.entries[i])


def binet_cauchy(d: Diagram, i: int, j: int, xs, ys) -> IdentityReport:
    """Binet-Cauchy form on integer sample points.

    The matrix of Bezoutian values at (x_l, y_s) factors through the
    cofactor rows; its determinant equals the sum over size-m column
    subsets of the product of the two maximal minors.  The entrywise
    factorization is also checked symbolically through the cofactor form.
    The residual is the tuple of the cofactor form's residual, each sampled
    entry's cofactor sum minus its Bezoutian value, and lhs - rhs.
    """
    xs, ys = list(xs), list(ys)
    m = len(xs)
    if len(ys) != m:
        raise SizeMismatch("need equally many x and y sample points")
    if m > d.n:
        raise SizeMismatch("more sample points than vertices")
    rep8, _ = cd_char(d, i, j)
    bez = rep8.lhs  # Bez(G, H_ij)
    table = cofactors(d)
    bmat = [[bez.eval_fraction(Fraction(x), Fraction(y)) for y in ys]
            for x in xs]
    hx = [[table[i, k].eval_int(x) for k in range(d.n)] for x in xs]
    hy = [[table[j, k].eval_int(y) for k in range(d.n)] for y in ys]
    entries = tuple(sum(hx[l][k] * hy[t][k] for k in range(d.n)) - bmat[l][t]
                    for l in range(m) for t in range(m))
    # when the entries match these integer sums, every value is an integer
    lhs = _bareiss([[v.numerator for v in row] for row in bmat])
    rhs = 0
    for subset in combinations(range(d.n), m):
        mx = [[hx[l][k] for k in subset] for l in range(m)]
        my = [[hy[t][k] for k in subset] for t in range(m)]
        rhs += _bareiss(mx) * _bareiss(my)
    residual = (rep8.residual, *entries, lhs - rhs)
    return IdentityReport.of(f"binet-cauchy-{i}-{j}-m{m}", lhs, rhs, residual)


# ---------------------------------------------------------------------------
# Poincare-series forms over the numerator tables
# ---------------------------------------------------------------------------

# The (Bezoutian, Wronskian) tables of the most recent Klein type: the
# suites and the benchmark take a type's calls in a row.  The one slot
# holds the data itself and is checked with `is`.  A key (family, n) would
# answer a hand-built z_table with the built-in table, and hashing the
# data costs about half a call.
_klein_slot: list = [None, ()]


def poincare_cd(data: KleinGroupData, i, j: int | None = None
                ) -> tuple[IdentityReport, IdentityReport]:
    """Christoffel-Darboux forms over the numerator tables.

    Tree families: Bez(Z_parent(i), Z_i) = (1 - 1/(xy)) * sum over the
    branch hanging below i of Z_k(x) Z_k(y), where the virtual vertex -1
    (numerator q^-1 (1-q^a)(1-q^b)) is the parent of the affine vertex.
    Passing i = 0 gives the full-diagram special case.  Cycle families take
    a vertex pair (i, j) and check the two-sided form
    Bez(Z_{i-1}, Z_i) + Bez(Z_j, Z_{j+1}) = (1 - 1/(xy)) sum_{k=i}^{j} ...,
    wrapping Z_{n+1} = Z_0.  Returns the (Bezoutian, Wronskian) pair, read
    off the type's table (_klein_form), built on its first call.
    """
    if data.family == "affA" and j is not None:
        if not (1 <= i <= j <= data.n):
            raise BadType("cycle form needs 1 <= i <= j <= n")
    else:
        if j is not None:
            raise BadType("vertex pairs only apply to the cycle family")
        if not (0 <= i < data.vertex_count):
            raise UnknownVertex(f"no vertex {i}")
        # only the full-diagram case is two-sided-free on a cycle
        if data.family == "affA" and i != 0:
            raise BadType("cycle family needs a vertex pair for i > 0")
    name = f"poincare-cd-{data.family}{data.n}-{i}" + (f"-{j}" if j else "")
    if _klein_slot[0] is not data:
        _klein_slot[:] = data, (_klein_form(_BEZ, data),
                                _klein_form(_WR, data))
    reports = []
    for tag, (down, whole, up, arcs) in zip(("-bez", "-wr"), _klein_slot[1]):
        if j is None:
            reports.append(IdentityReport.compare(name + tag, down[i],
                                                  whole[i]))
        else:
            # two expansions meeting around the cycle
            reports.append(IdentityReport.compare(
                name + tag, down[i] + up[j - 1], arcs[j + 1] - arcs[i]))
    return tuple(reports)


def _klein_form(form, data: KleinGroupData):
    """(down, whole, up, arcs) of one form, with F its pairing, S its square
    and (1 - u) its shift:
    - down[i] = F(Z_p, Z_i), p the parent of i: i - 1 on the cycle, the
      vertex toward the affine one on a tree, and -1 at the affine vertex;
    - whole[i] = (1 - u) sum S(Z_k) over the branch below i on a tree, and
      over the whole cycle at i = 0;
    - on the cycle, up[j - 1] = F(Z_{j+1}, Z_j), wrapping Z_{n+1} = Z_0
      (skew-symmetry puts it in reversed order), and arcs[m] = (1 - u)
      sum_{k<m} S(Z_k), so that the arc i..j is arcs[j + 1] - arcs[i].
    Each side is a sum over a set whose boundary is one or two pairs
    (_cd), and the table holds them all, each made once."""
    pair, square, shift, total, _ = form
    zt = data.z_table
    if data.family == "affA":
        parents = range(-1, data.n)
        sums = list(accumulate(map(square, zt), add, initial=total(())))
        wrap = (*zt, zt[0])
        up = [pair(wrap[j + 1], wrap[j]) for j in range(1, data.n + 1)]
        arcs = [s - s.shifted(shift) for s in sums]
        whole = arcs[-1:]
    else:
        # a branch sum is its vertex's square plus its children's sums, and
        # the reversed tour has each child before its parent
        tour, parent = data.diagram().tour(0)
        sums = list(map(square, zt))
        for v in reversed(tour[1:]):
            sums[parent[v]] = sums[parent[v]] + sums[v]
        parents = [parent[v] for v in range(len(zt))]
        whole = [s - s.shifted(shift) for s in sums]
        up = arcs = ()
    down = [pair(data.numerator(p), z) for p, z in zip(parents, zt)]
    return down, whole, up, arcs


def poincare_cd_antipodal_choices(data: KleinGroupData):
    """On even cycles the vertex opposite the affine one has two equally
    short routes back; the expansion must not depend on which neighbor is
    taken as its parent.  Returns five reports, which must all hold: that
    the two neighbors carry one numerator, the meeting identity under each
    parent choice, and the (Bezoutian, Wronskian) pair of poincare_cd at
    the antipode."""
    if data.family != "affA" or data.n % 2 == 0 or data.n < 3:
        raise BadType("two parent choices only occur on even cycles")
    mid = (data.n + 1) // 2
    zt = data.z_table
    same = zt[mid - 1] - zt[mid + 1]
    out = [IdentityReport.of("antipodal-parents-agree", zt[mid - 1],
                             zt[mid + 1], same)]
    for parent, other in ((mid - 1, mid + 1), (mid + 1, mid - 1)):
        out.append(_cd(_BEZ, f"poincare-cd-antipodal-parent{parent}",
                       [(zt[parent], zt[mid]), (zt[other], zt[mid])],
                       [], [zt[mid]]))
    return out + list(poincare_cd(data, mid, mid))
