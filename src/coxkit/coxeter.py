"""Coxeter and characteristic polynomials of weighted diagrams.

Coxeter polynomial det(qS + q^-1 S^t), graph characteristic polynomial
det((z-2)E + C), cofactor tables, the one-row Schur-complement step, the
join formula, path-sum and walk identities, and the tripartite divide
block-matrix factorization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, sub
from typing import Sequence

from .algebra import (Frame, Laurent, Poly, det_exact, det_poly, mat_mul,
                      z_substitute)
from .diagram import Diagram, SeifertMatrix, two_coloring
from .errors import (DomainError, PreconditionABneq2C, SizeMismatch,
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
# Bareiss costs about n^3 integer steps whatever the cycles.  On random
# trees plus c chords in a shuffled order, with empty memos, the step
# takes (median of five graphs, two runs) 3.6 times Bareiss's time at
# c = 3 and 4.3-4.9 at c = 4 on 8 vertices, 1.3-1.7 and 2.6-2.7 on 16,
# 0.8-1.0 and 1.5-1.7 on 24, 0.42 and 0.8-1.0 on 32, and 0.14 and 0.24
# on 48: the crossover moves with n, which this constant gate does not
# read.  _char_poly reads the same gate, although its step's crossover
# with Faddeev-LeVerrier lies elsewhere.
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
        for y, w in d.neighbors(x):
            if y not in path:
                stack.append((y, path + [y], weight * w))


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

def _row_times(row, m: list[list[int]]) -> list[int]:
    """One row of M m, for the row of M given by its nonzero entries: one
    lazy map chain over the rows of m that list runs once, so every element
    is added in C and no row of m is copied before the sum.  An empty row
    gives []."""
    acc = None
    for t, w in row:
        r = m[t]
        if acc is None:
            acc = r if w == 1 else map(w.__mul__, r)
        elif w == 1:
            acc = map(add, acc, r)
        elif w == -1:
            acc = map(sub, acc, r)
        else:
            acc = map(add, acc, map(w.__mul__, r))
    return [] if acc is None else list(acc)


def _trace_coeff(tr: int, k: int) -> int:
    """c_k = -tr / k, which Newton's identities make exact."""
    if tr % k:
        raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
    return -(tr // k)


def _faddeev_leverrier(d: Diagram, table: bool = False):
    """det(xE - M), and adj(xE - M) on request, for the weighted adjacency
    M of the diagram d, read as its nonzero entries (j, M_ij), row i being
    d.neighbors(i).

    M_0 = E, M_k = M M_{k-1} + c_k E with c_k = -tr(M M_{k-1}) / k (always
    exact).  The c_k are the coefficients of det(xE - M) = sum c_k x^(n-k)
    and adj(xE - M) = sum M_k x^(n-1-k).  The trace is read off the
    diagonal of M M_{k-1} before c_k is added; the last step, which needs
    no layer, computes only that diagonal.

    On a bipartite diagram, side(i) the color of i (diagram.two_coloring),
    (M^k)_ij vanishes unless k = side(i) + side(j) mod 2, so c_k = 0 at
    odd k, and row i of M_k is held at half width, on the class of side
    side(i) + k mod 2, where the row of every neighbour of i lies in
    M_{k-1}: a step costs |E|n products, and the trace runs at even k
    only.  Any other diagram runs the same loop with one class of every
    vertex: full rows, and a trace at every k.

    Returns the ascending coefficients of the determinant, and with table
    the table of adj(xE - M) as Poly entries; else None, and only the
    current layer is held.  Each row is zipped once per parity over its
    layers, lowest power first, with repeat(0) for the other parity, on
    the columns j >= i of the class it lies in, so an entry is one tuple
    of n integers whose trailing zeros Poly drops.  M is symmetric, so the
    adjugate is too: each unordered pair is built once, and [i][j] and
    [j][i] hold the same Poly.
    """
    n = d.n
    side, clash = two_coloring(d)
    rows = [d.neighbors(i) for i in range(n)]
    if clash:
        side, classes = [0] * n, [range(n)]
    else:
        classes = [[i for i in range(n) if not side[i]],
                   [i for i in range(n) if side[i]]]
    h = len(classes)  # 2 on a bipartite diagram, else 1
    at = [0] * n  # the place of each vertex in its class
    for cls in classes:
        for p, i in enumerate(cls):
            at[i] = p
    m = [[0] * len(classes[s]) for s in side]
    for r, p in zip(m, at):
        r[p] = 1
    layers = [m] if table else None
    coeffs = [1]
    for k in range(1, n):
        m = [_row_times(row, m) or [0] * len(classes[(s + k) % h])
             for row, s in zip(rows, side)]
        if k % h:
            coeffs.append(0)
        else:
            c = _trace_coeff(sum(r[p] for r, p in zip(m, at)), k)
            coeffs.append(c)
            for r, p in zip(m, at):
                r[p] += c
        if table:
            layers.append(m)
    if n:
        coeffs.append(0 if n % h else _trace_coeff(
            sum(w * m[t][at[i]] for i, row in enumerate(rows)
                for t, w in row), n))
    coeffs.reverse()
    if not table:
        return coeffs, None
    adj = [[None] * n for _ in range(n)]
    zeros = repeat(0)
    for i in range(n):
        for par in range(h):
            cls = classes[(side[i] + par) % h]
            lo = bisect_left(cls, i)  # the columns j >= i
            # layer n - 1 holds the coefficient of x^0
            cols = zip(*[layers[k][i][lo:] if k % h == par else zeros
                         for k in range(n - 1, -1, -1)])
            for j, c in zip(cls[lo:], cols):
                adj[i][j] = adj[j][i] = Poly(c)
        for layer in layers:
            layer[i] = None  # the table takes the place of the layers
    return coeffs, adj


def char_poly(d: Diagram) -> Poly:
    """det((z-2)E + C); independent of the vertex order.

    A forest takes the rooted recursion (_rooted_step) at every vertex, a
    graph with a cycle Schwenk's edge step (_edge_step) read in z, where a
    cycle counts in both directions: G = G(G-e) - a^2 G(G-u-v) - 2a H_uv(G-e)
    with H the cross minor path_sum_H.  Above the gate, Faddeev-LeVerrier."""
    return _char_poly(d.n, d.edges())


@lru_cache(maxsize=_POLY_MEMO)
def _char_poly(n: int, edges) -> Poly:
    closing = _cyclomatic(n, edges)
    if closing and len(closing) > _EXPAND_MAX:  # not a forest, at any gate
        coeffs, _ = _faddeev_leverrier(_rebuild(n, edges))
        return Poly(coeffs)
    if closing:
        u, v, a = e = closing[0]
        rest = _rebuild(n, [x for x in edges if x != e])
        return (char_poly(rest) - a * a * char_poly(rest.delete([u, v]))
                - 2 * a * path_sum_H(rest, u, v))
    d = _rebuild(n, edges)
    total = None  # no product with the unit: total starts at the first tree
    for tour, parent in d.tours():
        pairs: dict[int, tuple[Poly, Poly]] = {}
        for x in reversed(tour):
            pairs[x] = _rooted_step((w ** 2, *pairs.pop(y))
                                   for y, w in d.neighbors(x) if y != parent[x])
        top = pairs[tour[0]][0]
        total = top if total is None else total * top
    return Poly.one() if total is None else total  # A0, the empty diagram


def _rooted_step(children, z=None):
    """One vertex x of the rooted forest recursion, from (a^2, A_c, B_c)
    for each child c joined to x by an edge of weight a:

    A(x) = z prod_c A_c - sum_c a^2 B_c prod_(c' != c) A_c',  B(x) = prod_c A_c.

    A(x) is det(zE - A) of the subtree of x and B(x) that of the subtree
    less x, so B/A is the branching continued fraction
    1 / (z - sum_c a^2 B_c/A_c).  cfrac.evaluate runs the same step.  With
    z = Laurent.z() the step runs in q, on Coxeter polynomials (join_poly).
    """
    prod = None  # no product or scaling with the unit: prod starts at A_c
    for wsq, a, b in children:
        if wsq != 1:
            b = wsq * b
        if prod is None:
            prod, rest = a, b
        else:
            rest = rest * a + b * prod
            prod = prod * a
    if prod is None:  # a leaf: A = z, B = 1
        return (Poly.x(), Poly.one()) if z is None else (z, Laurent.one())
    return (prod.shift(1) if z is None else z * prod) - rest, prod


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
# in time and memory, although a bipartite graph holds its layers at half
# width: on the seeded random tree random_tree(Random(n), n, (1, 2))
# (Python 3.11, 2 cores) 64 vertices took 0.04 s and a 3.5 MB traced
# peak, 128 took 0.31 s and 34 MB, and 192 took 1.15 s and 126 MB (full
# rows: 0.06 s and 4.4 MB, 0.57 s and 42 MB, 2.2 s and 151 MB), so
# diagram.MAX_VERTICES (1024) would ask for some 20 GB.  The suites and
# the benchmark reach at most 49 vertices.
MAX_COFACTOR_VERTICES = 192


def cofactors(d: Diagram) -> CofactorTable:
    """All cofactors at once: adj(zE - A) from the sparse Faddeev-LeVerrier
    pass (A the weighted adjacency)."""
    if d.n > MAX_COFACTOR_VERTICES:
        raise DomainError(f"a cofactor table of {d.n} vertices exceeds the "
                          f"limit {MAX_COFACTOR_VERTICES}")
    return _cofactors(d.n, d.edges())


# One table holds about n^3/2 integers (adj is symmetric, so each entry is
# built once and shared by [i][j] and [j][i]), and only the most recent one
# is kept: the suites finish with one diagram before they move to the next.
@lru_cache(maxsize=1)
def _cofactors(n: int, edges) -> CofactorTable:
    _, adj = _faddeev_leverrier(_rebuild(n, edges), True)
    return CofactorTable(tuple(map(tuple, adj)))


def _check_vertices(d: Diagram, what: str, *vertices: int) -> None:
    if not all(0 <= v < d.n for v in vertices):
        raise UnknownVertex(f"{what} outside the diagram")


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
# working set, where the 256-entry polynomial memos thrash.  On a diagram
# with a cycle the cross minors depend on the vertex order, hence the order
# in the key; a forest's steps have no crosses and ignore it.  Holding
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
    nbrs = d.neighbors(pivot)  # every stored edge has a nonzero weight
    branches = [(v, w ** 2, coxeter_poly(d.delete([pivot, v])))
                for v, w in nbrs]
    crosses = []
    pos = {x: p for p, x in enumerate(rest.order)}
    done: dict[tuple[int, int], Laurent] = {}
    for i, wi in nbrs:
        for j, wj in nbrs:
            if i == j:
                continue
            if (j, i) in done:
                p = done[j, i].bar()
            else:
                # vertex v of d is v - (v > pivot) in rest
                p = _cross_minor(rest, i - (i > pivot), j - (j > pivot), pos)
            done[i, j] = p
            if not p.is_zero:
                crosses.append(((i, j), wi * wj, p))
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
    """Coxeter polynomial of a join, assembled without division: the rooted
    step at the join vertex, with unit weights and z = q + 1/q,
    z * prod T_i - sum_j Tbar_j * prod_{i != j} T_i."""
    return _rooted_step(((1, coxeter_poly(d), coxeter_poly(d.delete([v])))
                         for d, v in parts), Laurent.z())[0]


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
    adjacency matrix, applied to column j one row d.neighbors(t) at a
    time)."""
    _check_vertices(d, "walk endpoints", i, j)
    rows = [d.neighbors(t) for t in range(d.n)]
    vec = [1 if t == j else 0 for t in range(d.n)]
    out = [vec[i]]
    for _ in range(k_max):
        vec = [sum(w * vec[t] for t, w in row) for row in rows]
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

def _gram_det_adj(half: Diagram, rows: range):
    """det and adj of z^2 E - M M^t, M the biadjacency of the bipartite
    diagram half from the vertices rows to its other vertices.  With B the
    adjacency of half, p = len(rows) and r = half.n - p, the Schur
    complement gives det(zE - B) = z^(r-p) det(z^2 E - M M^t), and the rows
    by rows block of adj(zE - B) is z^(r-p+1) adj(z^2 E - M M^t).  One
    full-table pass over half; its rows block is sliced before the shifts."""
    det, adj = _faddeev_leverrier(half, True)
    k = 2 * len(rows) - half.n  # p - r
    return (_times_z(Poly(det), k),
            [[_times_z(adj[i][j], k - 1) for j in rows] for i in rows])


def _times_z(f: Poly, k: int) -> Poly:
    """f z^k; at k < 0 an exact division, which refuses a remainder."""
    return f.shift(k) if k >= 0 else f.exact_div(Poly.monomial(1, -k))


def divide_identity(a_mat, b_mat, c_mat) -> IdentityReport:
    """Check the Schur factorization of the tripartite block matrix
    [[zE, -qA, qC], [-A^t/q, zE, -qB], [C^t/q, -B^t/q, zE]] under AB = 2C.

    The matrix is the Coxeter matrix of the divide diagram on p + r + s
    vertices in natural order, with weight a_ij on (i, p+j), -c_ij on
    (i, p+r+j) and b_ij on (p+i, p+r+j).  The residual is the pair of the
    simplified closed form, whose twist power is the middle block size r,
    and the generic two-block Schur factorization (always exact).
    """
    a, b, c = ([list(row) for row in m] for m in (a_mat, b_mat, c_mat))
    if not all(isinstance(x, int)
               for m in (a, b, c) for row in m for x in row):
        raise DomainError("block entries must be integers")
    p = len(a)
    r = len(a[0]) if a and a[0] else (len(b) if b else 0)
    s = len(b[0]) if b and b[0] else (len(c[0]) if c and c[0] else 0)
    if any(len(row) != r for row in a) or any(len(row) != s for row in b):
        raise SizeMismatch("ragged blocks")
    if len(b) != r:
        raise SizeMismatch("A columns must match B rows")
    # each half's Gram adjugate is read off its whole cofactor table, so
    # the halves are capped as cofactors is, before any product is formed
    half = max(p + r, r + s)
    if half > MAX_COFACTOR_VERTICES:
        raise DomainError(f"a divide half of {half} vertices exceeds the "
                          f"limit {MAX_COFACTOR_VERTICES}")
    if not c:
        c = [[0] * s for _ in range(p)]
    elif len(c) != p or any(len(row) != s for row in c):
        raise SizeMismatch("C must be (rows of A) x (cols of B)")
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
    k = p + r
    inner = [[z * x for x in row[:k]] for row in m[:k]]
    if s:
        prod = mat_mul([row[k:] for row in m[:k]], [row[:k] for row in m[k:]])
        inner = [[x - y for x, y in zip(a, b)] for a, b in zip(inner, prod)]
    inner_det = det_exact(inner)

    # simplified closed form over z-polynomials, with the Gram determinants
    # and adjugates of A A^t and B^t B read off the two bipartite halves
    det_a, adj_a = _gram_det_adj(d.delete(range(p + r, p + r + s)), range(p))
    det_b, adj_b = _gram_det_adj(d.delete(range(p)), range(r, r + s))
    dd = det_a * det_b
    four_minus = Poly((4, 0, -1))
    core = (mat_mul(mat_mul(mat_mul([*zip(*c)], adj_a), c), adj_b) if p
            else [[Poly.zero()] * s for _ in range(s)])
    big_det = det_poly([[(dd if i == j else Poly.zero()) - four_minus * x
                         for j, x in enumerate(row)]
                        for i, row in enumerate(core)])  # 1 at s = 0

    # the closed form g z^(p+s) / dd = z^r det(big) / dd^s, cross-multiplied:
    # dd is a product of monic determinants, so no denominator is zero
    dd_q = z_substitute(dd)
    big_q = z_substitute(big_det)
    if _divide_holds(p, r, s, g, inner_det, dd_q, big_q):
        residual = (Laurent.zero(), Laurent.zero())
    else:
        residual = (g * z ** (p + s) * dd_q ** s - z ** r * big_q * dd_q,
                    g * z ** (p + r) - z ** s * inner_det)
    return IdentityReport.of(f"divide-p{p}-r{r}-s{s}", None, None, residual)


def _divide_holds(p: int, r: int, s: int, g: Laurent, inner: Laurent,
                  dd: Laurent, big: Laurent) -> bool:
    """Whether the closed form g z^(p+s) dd^s = z^r big dd and the Schur
    factorization g z^(p+r) = z^s inner of divide_identity hold, decided
    at q = Y = 2^w with no Laurent product.

    Each input f = q^e F, e its lowest exponent, packs once as F(Y), and
    z^k = q^-k (q^2 + 1)^k as (Y^2 + 1)^k with the shift -k, so each side
    is q^e P with P(Y) one integer product.  Two sides q^e P and q^e' P'
    are equal iff P Y^(e - e'') = P' Y^(e' - e''), e'' = min(e, e'), which
    their packed integers decide, since every coefficient of either is
    below 2^(w - 1): w is the width of Frame of the largest l1 bound of a
    side, by |f g| <= |f| |g| and |z^k| = 2^k."""
    fg, fi, fd, fb = (sum(abs(c) for _, c in f.items())
                      for f in (g, inner, dd, big))
    frame = Frame(max(fg << p + r, fi << s,
                      (fg << p + s) * fd ** s, (fb << r) * fd))
    w = frame.width

    def packed(f: Laurent) -> tuple[int, int]:
        if not f:
            return 0, 0
        e = f.min_exp
        return e, frame.pack((k - e, c) for k, c in f.items())

    (eg, g_y), (ei, i_y), (ed, d_y), (eb, b_y) = map(packed,
                                                     (g, inner, dd, big))
    z_y = (1 << 2 * w) + 1

    def same(x: int, ex: int, y: int, ey: int) -> bool:
        low = min(ex, ey)
        return x << w * (ex - low) == y << w * (ey - low)

    return (same(g_y * z_y ** (p + r), eg - p - r, i_y * z_y ** s, ei - s)
            and same(g_y * z_y ** (p + s) * d_y ** s, eg - p - s + s * ed,
                     z_y ** r * b_y * d_y, eb + ed - r))
