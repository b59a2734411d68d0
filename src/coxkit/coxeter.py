"""Coxeter and characteristic polynomials of weighted diagrams.

Coxeter polynomial det(qS + q^-1 S^t), graph characteristic polynomial
det((z-2)E + C), cofactor tables, the one-row Schur-complement step, the
join formula, path-sum and walk identities, and the tripartite divide
block-matrix factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import dropwhile
from operator import add, not_, sub
from typing import Sequence

from .algebra import Laurent, Poly, det_exact, det_poly, mat_mul, z_substitute
from .diagram import Diagram, SeifertMatrix
from .errors import (DimensionMismatch, DomainError, PreconditionABneq2C,
                     UnknownVertex)
from .report import IdentityReport

# ---------------------------------------------------------------------------
# memo keys
# ---------------------------------------------------------------------------
# The identity suites ask for the polynomials of one diagram over and over,
# often through reordered copies (pivot_first, bipartite reorders).  Each
# memo is keyed on exactly what its value depends on: the vertex count and
# the edge list, plus the vertex order for the Coxeter polynomial of a
# diagram with a cycle and for a Schur step.  Cached values are shared
# between callers, which is safe because Poly, Laurent, CofactorTable and
# SchurStep are never mutated after construction.

_POLY_MEMO = 256  # char and Coxeter polynomials: O(n) integers each


def _rebuild(n: int, edges, order=None) -> Diagram:
    return Diagram(n, {(i, j): w for i, j, w in edges}, order=order)


# ---------------------------------------------------------------------------
# Coxeter polynomial
# ---------------------------------------------------------------------------

def coxeter_poly(d: Diagram) -> Laurent:
    """det(qS + q^-1 S^t) in the diagram's vertex order, by graph expansion.

    On a forest every vertex order gives G(q + 1/q) with G = char_poly(d)
    (A'Campo 1976), and G comes from the rooted forest recursion.  A
    diagram with a cycle takes Schwenk's edge step (_edge_step), which
    respects the vertex order, until only forests are left.  Bareiss
    (det_exact) runs only on a diagram whose cyclomatic number exceeds
    _EXPAND_MAX.
    """
    edges = d.edges()
    return _coxeter_poly(d.n, edges,
                         d.order if _cyclomatic(d.n, edges) else None)


# Schwenk's step on a diagram with cyclomatic number c recurses c levels
# deep, with a term for every cycle through the chosen edge at each level;
# Bareiss costs about n^3 whatever the cycles.  On random trees plus c
# chords in a shuffled order, the two cross at c = 3 on 8 vertices (the
# step takes 1.1 times Bareiss's time at c = 3, 1.7 at c = 4), while at
# c = 4 on 16-32 vertices the step takes 0.15-0.46 of it.
_EXPAND_MAX = 4


@lru_cache(maxsize=_POLY_MEMO)
def _coxeter_poly(n: int, edges, order) -> Laurent:
    """order is None for a forest, whose polynomial ignores the order."""
    if order is None:
        return z_substitute(_char_poly(n, edges))
    d = _rebuild(n, edges, order)
    closing = _cyclomatic(n, edges)
    if len(closing) > _EXPAND_MAX:
        return det_exact(coxeter_matrix(d))
    return _edge_step(d, closing[0])


def _edge_step(d: Diagram, e) -> Laurent:
    """Schwenk's edge expansion of the Coxeter polynomial at an edge e = uv
    of weight a that lies on a cycle:

    det G = det(G-e) - a^2 det(G-u-v) - a (q^s X + q^-s Xbar)

    Each term of det(qS + q^-1 S^t) is a permutation: its fixed points give
    z, its transpositions -a^2 and each cycle, read in both directions,
    -(prod a) q^(+-s'), with s' the number of its arcs that go forward in
    the vertex order minus the number that go backward.  The cycles
    through e are the paths v -> u of G-e closed by e, so their terms are
    a q^s times the cross minor X = _cross_minor(G-e, u, v, pos) and its
    bar, where s = +-1 is the direction of the arc u -> v.  Every subgraph
    keeps the induced order.
    """
    u, v, a = e
    rest = _rebuild(d.n, [x for x in d.edges() if x != e], d.order)
    pos = {x: p for p, x in enumerate(d.order)}
    s = 1 if pos[u] < pos[v] else -1
    cross = _cross_minor(rest, u, v, pos)
    return (coxeter_poly(rest) - a * a * coxeter_poly(rest.delete([u, v]))
            - a * (cross.shifted(s) + cross.bar().shifted(-s)))


def _paths(d: Diagram, start: int, end: int):
    """Every simple path from start to end as (vertex list, product of the
    edge weights along it)."""
    stack = [(start, [start], 1)]
    while stack:
        x, path, weight = stack.pop()
        if x == end:
            yield path, weight
            continue
        for y in d.neighbors(x):
            if y not in path:
                stack.append((y, path + [y], weight * d.weight(x, y)))


def _cyclomatic(n: int, edges) -> list:
    """The edges that close a cycle when the edges join a union-find forest
    one by one.  Each lies on a cycle, and there are |E| - n + components
    of them, the cyclomatic number: the list is empty on a forest."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    out = []
    for e in edges:
        a, b = find(e[0]), find(e[1])
        if a == b:
            out.append(e)
        else:
            root[a] = b
    return out


def coxeter_matrix(d: Diagram) -> list[list[Laurent]]:
    """The matrix qS + q^-1 S^t itself, with S the Seifert matrix of the
    diagram in its vertex order."""
    s = SeifertMatrix.from_diagram(d).entries
    return [[Laurent({1: s[p][t], -1: s[t][p]}) for t in range(d.n)]
            for p in range(d.n)]


# ---------------------------------------------------------------------------
# characteristic polynomial and cofactors
# ---------------------------------------------------------------------------

def _z_matrix(d: Diagram) -> list[list[Poly]]:
    """(z-2)E + C = zE - A with A the weighted adjacency matrix."""
    n = d.n
    adj = d.adjacency()
    return [[Poly((0, 1)) if i == j else Poly((-adj[i][j],))
             for j in range(n)] for i in range(n)]


def _adjacency_rows(n: int, edges) -> list[list[tuple[int, int]]]:
    """Nonzero entries (column, weight) of each row of the adjacency."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        rows[i].append((j, w))
        rows[j].append((i, w))
    return rows


def _row_times(row, m: list[list[int]], n: int) -> list[int]:
    """One row of M m, for the row of M given by its nonzero entries.  The
    sums run through map, so every element is added in C; a row made of
    one entry of weight 1 is a copy, since the caller updates the
    diagonal in place."""
    if not row:
        return [0] * n
    (t, w), *rest = row
    acc = m[t][:] if w == 1 else list(map(w.__mul__, m[t]))
    for t, w in rest:
        if w == 1:
            acc = list(map(add, acc, m[t]))
        elif w == -1:
            acc = list(map(sub, acc, m[t]))
        else:
            acc = list(map(add, acc, map(w.__mul__, m[t])))
    return acc


def _trace_coeff(tr: int, k: int) -> int:
    """c_k = -tr / k, which Newton's identities make exact."""
    if tr % k:
        raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
    return -(tr // k)


def _faddeev_leverrier(rows, entry=None):
    """det(xE - M), and adj(xE - M) on request, for a symmetric integer
    matrix M given by the nonzero entries (column, value) of each row.

    M_0 = E, M_k = M M_{k-1} + c_k E with c_k = -tr(M M_{k-1}) / k (always
    exact).  The c_k are the coefficients of det(xE - M) = sum c_k x^(n-k)
    and adj(xE - M) = sum M_k x^(n-1-k).  A step costs one pass over the
    nonzero entries of M per column: 2|E|n products on a diagram, not n^3.
    The trace is read off the diagonal of M M_{k-1} before c_k is added;
    the last step, which needs no layer, computes only that diagonal.

    Returns the ascending coefficients of the determinant, and the table
    of entry(ascending coefficients of adj(xE - M)[i][j]) when entry is
    given; else None, and only the current layer is held.  M symmetric
    (every caller's is) makes the adjugate symmetric, so entry runs once
    per unordered pair and [i][j] and [j][i] hold the same value.
    """
    n = len(rows)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    layers = [m] if entry else None
    coeffs = [1]
    for k in range(1, n):
        m = [_row_times(row, m, n) for row in rows]
        c = _trace_coeff(sum(m[i][i] for i in range(n)), k)
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
        if entry:
            layers.append(m)
    if n:
        coeffs.append(_trace_coeff(
            sum(w * m[t][i] for i, row in enumerate(rows) for t, w in row), n))
    coeffs.reverse()
    if not entry:
        return coeffs, None
    # zipped in layer order, an entry's coefficients come highest power
    # first, so its leading zeros (|i - j| of them on a path) drop in C.
    # The scratch copies are lists: freed tuples of fewer than 20 items
    # stay on the interpreter's free lists, and with tuples here the peak
    # RSS of the 25 verify suites rose by 0.4 MB (2%).
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j, c in enumerate(zip(*(layer[i][i:] for layer in layers)), i):
            adj[i][j] = adj[j][i] = entry(list(dropwhile(not_, c))[::-1])
        for layer in layers:
            layer[i] = None  # the table takes the place of the layers
    return coeffs, adj


def char_poly(d: Diagram) -> Poly:
    """det((z-2)E + C); independent of the vertex order.

    A forest takes the rooted recursion (_rooted_step) at every vertex, a
    graph with a cycle the sparse Faddeev-LeVerrier pass."""
    return _char_poly(d.n, d.edges())


@lru_cache(maxsize=_POLY_MEMO)
def _char_poly(n: int, edges) -> Poly:
    if _cyclomatic(n, edges):
        coeffs, _ = _faddeev_leverrier(_adjacency_rows(n, edges))
        return Poly(coeffs)
    d = _rebuild(n, edges)
    total = Poly.one()
    for comp in d.components():
        tour, parent = d.tour(comp[0])
        pairs: dict[int, tuple[Poly, Poly]] = {}
        for x in reversed(tour):
            pairs[x] = _rooted_step((d.weight(x, y) ** 2, *pairs.pop(y))
                                   for y in d.neighbors(x) if y != parent[x])
        total = total * pairs[comp[0]][0]
    return total


def _rooted_step(children) -> tuple[Poly, Poly]:
    """One vertex x of the rooted forest recursion, from (a^2, A_c, B_c)
    for each child c joined to x by an edge of weight a:

    A(x) = z prod_c A_c - sum_c a^2 B_c prod_(c' != c) A_c',  B(x) = prod_c A_c.

    A(x) is det(zE - A) of the subtree of x and B(x) that of the subtree
    less x, so B/A is the branching continued fraction
    1 / (z - sum_c a^2 B_c/A_c).  cfrac.evaluate runs the same step.
    """
    prod, rest = Poly.one(), Poly.zero()
    for wsq, a, b in children:
        rest = rest * a + wsq * b * prod
        prod = prod * a
    return prod.shift(1) - rest, prod


@dataclass(frozen=True)
class CofactorTable:
    """Symmetric table of algebraic complements of (z-2)E + C."""

    entries: tuple[tuple[Poly, ...], ...]

    def __getitem__(self, ij: tuple[int, int]) -> Poly:
        i, j = ij
        n = len(self.entries)
        # plain comparisons: a negative index must not wrap around
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownVertex(f"no cofactor ({i}, {j})")
        return self.entries[i][j]

    @property
    def n(self) -> int:
        return len(self.entries)


# The most vertices of a cofactor table.  Its n^3/2 integers grow like n^3
# in time and memory: on a seeded random tree (Python 3.11, 2 cores) 64
# vertices took 0.3 s and a 4.5 MB traced peak, 128 took 2.0 s and 38 MB,
# and 192 took 6.8 s and 138 MB, so diagram.MAX_VERTICES (1024) would ask
# for some 20 GB.  The suites and the benchmark reach at most 49 vertices.
MAX_COFACTOR_VERTICES = 192


def cofactors(d: Diagram) -> CofactorTable:
    """All cofactors at once: adj(zE - A) from the sparse Faddeev-LeVerrier
    pass that also gives char_poly (A the weighted adjacency)."""
    if d.n > MAX_COFACTOR_VERTICES:
        raise DomainError(f"a cofactor table of {d.n} vertices exceeds the "
                          f"limit {MAX_COFACTOR_VERTICES}")
    return _cofactors(d.n, d.edges())


# One table holds about n^3/2 integers (adj is symmetric, so each entry is
# built once and shared by [i][j] and [j][i]), and only the most recent one
# is kept: the suites finish with one diagram before they move to the next.
@lru_cache(maxsize=1)
def _cofactors(n: int, edges) -> CofactorTable:
    _, adj = _faddeev_leverrier(_adjacency_rows(n, edges), Poly)
    return CofactorTable(tuple(map(tuple, adj)))


def _check_vertices(d: Diagram, what: str, *vertices: int) -> None:
    if not all(0 <= v < d.n for v in vertices):
        raise UnknownVertex(f"{what} outside the diagram")


def cofactor_entry(d: Diagram, i: int, j: int) -> Poly:
    """Single cofactor by a direct signed minor determinant."""
    _check_vertices(d, "cofactor indices", i, j)
    n = d.n
    m = _z_matrix(d)
    minor = [[m[r][c] for c in range(n) if c != j]
             for r in range(n) if r != i]
    det = det_poly(minor)
    return det if (i + j) % 2 == 0 else -det


# ---------------------------------------------------------------------------
# one-row Schur step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurStep:
    """Decomposition produced by pivoting the Coxeter matrix on one vertex.

    Relative to the pivot-first ordering: total = z*base - terms, with terms
    the weighted branch terms plus the weighted cross cofactors.
    """

    pivot: int
    total: Laurent
    base: Laurent
    branches: tuple[tuple[int, int, Laurent], ...]
    crosses: tuple[tuple[tuple[int, int], int, Laurent], ...]

    @property
    def terms(self) -> Laurent:
        """sum wsq g over the branches plus sum coeff p over the crosses."""
        return Laurent.total([*(wsq * g for _, wsq, g in self.branches),
                              *(coeff * p for _, coeff, p in self.crosses)])

    def reassemble(self) -> Laurent:
        return Laurent.z() * self.base - self.terms

    @property
    def residual(self) -> Laurent:
        return self.reassemble() - self.total


def pivot_first(d: Diagram, pivot: int) -> Diagram:
    if not (0 <= pivot < d.n):
        raise UnknownVertex(f"no vertex {pivot}")
    return d.with_order((pivot,) + tuple(v for v in d.order if v != pivot))


def schur_step(d: Diagram, pivot: int) -> SchurStep:
    """Pivot on one vertex: head z, squared-weight branch terms, and signed
    cross cofactors of the pivot-deleted matrix (_cross_minor).  The matrix
    is its own transpose under q -> 1/q, so cross(j, i) is cross(i, j).bar()
    and each unordered pair is computed once."""
    return _schur_step(d.n, d.edges(), d.order, pivot)


# The schur, cd-coxeter and cd-wronskian suites pivot the same diagrams on
# the same vertices: `verify all` asks for 880 steps at seed 42, of which
# 301 are distinct (302 at seed 7), and no step is asked for again more
# than 301 other steps after its last use.  So 512 steps hold the whole
# working set, where the 256-entry polynomial memos thrash.  The cross
# minors depend on the vertex order, hence the order in the key.  Holding
# the steps raised the peak RSS of the benchmark's verify-sweep workload by
# 0.15 MB, from 19.15 MB (Python 3.11, seeds 42 and 7).
_STEP_MEMO = 512


@lru_cache(maxsize=_STEP_MEMO)
def _schur_step(n: int, edges, order, pivot: int) -> SchurStep:
    d = _rebuild(n, edges, order)
    dp = pivot_first(d, pivot)
    total = coxeter_poly(dp)
    rest = d.delete([pivot])
    base = coxeter_poly(rest)
    nbrs = [v for v in d.neighbors(pivot) if d.weight(pivot, v)]
    branches = []
    for v in nbrs:
        a = d.weight(pivot, v)
        branches.append((v, a * a, coxeter_poly(d.delete([pivot, v]))))
    crosses = []
    pos = {x: p for p, x in enumerate(rest.order)}
    done: dict[tuple[int, int], Laurent] = {}
    for i in nbrs:
        for j in nbrs:
            if i == j:
                continue
            if (j, i) in done:
                p = done[j, i].bar()
            else:
                # vertex v of d is v - (v > pivot) in rest
                p = _cross_minor(rest, i - (i > pivot), j - (j > pivot), pos)
            done[i, j] = p
            if not p.is_zero:
                crosses.append(((i, j),
                                d.weight(pivot, i) * d.weight(pivot, j), p))
    return SchurStep(pivot, total, base, tuple(branches), tuple(crosses))


def _cross_minor(d: Diagram, i: int, j: int, pos) -> Laurent:
    """The cofactor of the Coxeter matrix M at row pos[i], column pos[j],
    which is adj(M)[pos[j]][pos[i]].

    At or below the gate of coxeter_poly it is the path expansion of an
    adjugate entry (Godsil, Algebraic Combinatorics, ch. 4):

    sum over simple paths P from j to i of (prod_P a) q^s det(G-P)

    where s is the number of arcs of P that go forward in the vertex order
    minus the number that go backward: M = zE - N with N = a q^(+-1) off
    the diagonal.  Vertices in two components are joined by no path, so
    their minor is zero.  Every subgraph keeps the induced order.  Above
    the gate it is the signed det_exact minor of M.
    """
    edges = d.edges()
    if len(_cyclomatic(d.n, edges)) > _EXPAND_MAX:
        r, c = pos[i], pos[j]
        minor = [[x for t, x in enumerate(row) if t != c]
                 for p, row in enumerate(coxeter_matrix(d)) if p != r]
        det = det_exact(minor)
        return -det if (r + c) % 2 else det
    total = Laurent.zero()
    for path, weight in _paths(d, j, i):
        s = sum(1 if pos[x] < pos[y] else -1 for x, y in zip(path, path[1:]))
        total = total + weight * coxeter_poly(d.delete(path)).shifted(s)
    return total


def join_poly(parts) -> Laurent:
    """Coxeter polynomial of a join, assembled without division:
    z * prod T_i - sum_j Tbar_j * prod_{i != j} T_i."""
    parts = list(parts)
    polys = [coxeter_poly(d) for d, _ in parts]
    bars = [coxeter_poly(d.delete([v])) for d, v in parts]
    prod = Laurent.one()
    for p in polys:
        prod = prod * p
    acc = Laurent.z() * prod
    for j in range(len(parts)):
        term = bars[j]
        for i, p in enumerate(polys):
            if i != j:
                term = term * p
        acc = acc - term
    return acc


# ---------------------------------------------------------------------------
# path sums and walk generating coefficients
# ---------------------------------------------------------------------------

def path_sum_H(d: Diagram, i: int, j: int) -> Poly:
    """Cofactor H_ij as a sum over simple paths from i to j of the path
    weight times the characteristic polynomial of the path-deleted graph."""
    _check_vertices(d, "path endpoints", i, j)
    acc = Poly.zero()
    for path, weight in _paths(d, i, j):
        acc = acc + weight * char_poly(d.delete(path))
    return acc


def walk_gf(d: Diagram, i: int, j: int, k_max: int) -> list[int]:
    """Weighted walk counts d_ij^k for k = 0..k_max (powers of the
    adjacency matrix)."""
    _check_vertices(d, "walk endpoints", i, j)
    adj = d.adjacency()
    vec = [1 if t == j else 0 for t in range(d.n)]
    out = [vec[i]]
    for _ in range(k_max):
        vec = [sum(adj[r][t] * vec[t] for t in range(d.n)) for r in range(d.n)]
        out.append(vec[i])
    return out


def walk_expansion_residual(g_char: Poly, h: Poly, walks: Sequence[int]) -> Poly:
    """Residual of H/G = sum d^k z^(-k-1) through the given walk list.

    Of h * z^(K+1) - (sum_k d_k z^(K-k)) * g, returns the terms of degree at
    least deg g: the identity holds at order K exactly when they vanish
    (below them is g times the series' tail past z^(-K-1)).
    """
    k_hi = len(walks) - 1
    lhs = h.shift(k_hi + 1)
    series = Poly([walks[k_hi - t] for t in range(k_hi + 1)])
    res = (lhs - series * g_char).coeffs
    return Poly((0,) * g_char.degree + res[g_char.degree:])


def identity7_check(d: Diagram, i: int, j: int) -> Poly:
    """Residual H_ij^2 - (G_del_i * G_del_j - G * G_del_ij); zero when the
    two-by-two minor identity holds."""
    _check_vertices(d, "identity vertices", i, j)
    if i == j:
        raise UnknownVertex("identity needs two distinct vertices")
    h = cofactors(d)[i, j]
    g = char_poly(d)
    gi = char_poly(d.delete([i]))
    gj = char_poly(d.delete([j]))
    gij = char_poly(d.delete([i, j]))
    return h * h - (gi * gj - g * gij)


# ---------------------------------------------------------------------------
# tripartite divide block matrix
# ---------------------------------------------------------------------------

def _int_rows(mat) -> list[list[int]]:
    return [list(map(int, row)) for row in mat]


def _mat_t(m):
    return [list(col) for col in zip(*m)] if m else []


def _at_square(coeffs) -> Poly:
    """The polynomial with these ascending coefficients, at x = z^2."""
    out = [0] * (2 * len(coeffs))
    out[::2] = coeffs
    return Poly(out)


def _det_adj_at_square(m: list[list[int]]):
    """det and adj of z^2 E - m, m a symmetric integer matrix (AA^t or
    B^tB)."""
    rows = [[(t, x) for t, x in enumerate(row) if x] for row in m]
    det, adj = _faddeev_leverrier(rows, _at_square)
    return _at_square(det), adj


def divide_identity(a_mat, b_mat, c_mat) -> IdentityReport:
    """Check the Schur factorization of the tripartite block matrix
    [[zE, -qA, qC], [-A^t/q, zE, -qB], [C^t/q, -B^t/q, zE]] under AB = 2C.

    The matrix is the Coxeter matrix of the divide diagram on p + r + s
    vertices in natural order, with weight a_ij on (i, p+j), -c_ij on
    (i, p+r+j) and b_ij on (p+i, p+r+j).  The residual is the pair of the
    simplified closed form, whose twist power is the middle block size r,
    and the generic two-block Schur factorization (always exact).
    """
    a = _int_rows(a_mat)
    b = _int_rows(b_mat)
    c = _int_rows(c_mat)
    p = len(a)
    r = len(a[0]) if a and a[0] else (len(b) if b else 0)
    s = len(b[0]) if b and b[0] else (len(c[0]) if c and c[0] else 0)
    if any(len(row) != r for row in a) or any(len(row) != s for row in b):
        raise DimensionMismatch("ragged blocks")
    if len(b) != r:
        raise DimensionMismatch("A columns must match B rows")
    if not c:
        c = [[0] * s for _ in range(p)]
    elif len(c) != p or any(len(row) != s for row in c):
        raise DimensionMismatch("C must be (rows of A) x (cols of B)")
    # the diagram refuses more than MAX_VERTICES vertices before any
    # product or determinant is formed
    d = Diagram(p + r + s, [
        *(((i, p + j), a[i][j]) for i in range(p) for j in range(r)),
        *(((i, p + r + j), -c[i][j]) for i in range(p) for j in range(s)),
        *(((p + i, p + r + j), b[i][j]) for i in range(r) for j in range(s))])
    ab = mat_mul(a, b) if r else [[0] * s for _ in range(p)]
    if ab != [[2 * x for x in row] for row in c]:
        raise PreconditionABneq2C("A*B != 2*C")

    z = Laurent.z()
    m = coxeter_matrix(d)
    g = det_exact(m)

    # generic Schur step against the last diagonal block:
    # G * z^(p+r) == z^s * det(z*M11 - M12*M21)
    m11 = [[m[i][j] for j in range(p + r)] for i in range(p + r)]
    m12 = [[m[i][p + r + j] for j in range(s)] for i in range(p + r)]
    m21 = [[m[p + r + i][j] for j in range(p + r)] for i in range(s)]
    inner = [[z * m11[i][j] for j in range(p + r)] for i in range(p + r)]
    if s:
        prod = mat_mul(m12, m21)
        inner = [[inner[i][j] - prod[i][j] for j in range(p + r)]
                 for i in range(p + r)]
    schur_residual = g * z ** (p + r) - z ** s * det_exact(inner)

    # simplified closed form over z-polynomials
    aat = mat_mul(a, _mat_t(a)) if r else [[0] * p for _ in range(p)]
    btb = mat_mul(_mat_t(b), b) if r else [[0] * s for _ in range(s)]
    det_a, adj_a = _det_adj_at_square(aat)
    det_b, adj_b = _det_adj_at_square(btb)
    dd = det_a * det_b
    four_minus = Poly((4, 0, -1))
    if s:
        if p:
            core = mat_mul(mat_mul(mat_mul(_mat_t(c), adj_a), c), adj_b)
        else:
            core = [[Poly.zero()] * s for _ in range(s)]
        big = [[dd * (Poly.one() if i == j else Poly.zero())
                - four_minus * core[i][j] for j in range(s)] for i in range(s)]
        big_det = det_poly(big)
    else:
        big_det = Poly.one()

    # the closed form g z^(p+s) / dd = z^r det(big) / dd^s, cross-multiplied:
    # dd is a product of monic determinants, so no denominator is zero
    dd_q = z_substitute(dd)
    closed = (g * z ** (p + s) * dd_q ** s
              - z ** r * z_substitute(big_det) * dd_q)
    return IdentityReport.of(f"divide-p{p}-r{r}-s{s}", None, None,
                             (closed, schur_residual))


__all__ = [
    "CofactorTable", "SchurStep", "char_poly", "cofactors", "cofactor_entry",
    "coxeter_matrix", "coxeter_poly", "divide_identity", "identity7_check",
    "join_poly", "path_sum_H", "pivot_first", "schur_step",
    "walk_expansion_residual", "walk_gf",
]
