"""Weighted Dynkin diagrams.

Finite graphs without loops or multiple edges, symmetric integer edge
weights, and an explicit vertex total order.  Builders cover the euclidean
families A/D/E and their affine extensions; in every affine family vertex 0
is the added affine vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadRank, DomainError, UnknownVertex

FAMILIES = ("A", "D", "E", "affA", "affD", "affE")

# Largest vertex count accepted from outside input (names, files, builders).
# It opens the rank 50-200 families with room to spare and stops a typo such
# as `n 1000000000000` before anything of that size is allocated.
MAX_VERTICES = 1024


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise DomainError(f"size {n} exceeds the vertex limit {MAX_VERTICES}")


class Diagram:
    """Immutable weighted graph: a vertex count, weighted edges and a
    vertex order.

    Edges are stored once per unordered pair with a nonzero integer weight;
    an absent pair means weight 0.  The neighbor lists are built from the
    edges on the first neighbors() call, not here: most diagrams (the
    subgraphs of the expansions in coxeter) never need them.
    """

    __slots__ = ("n", "order", "_w", "_nbrs")

    def __init__(self, n: int, edges=(), order=None):
        _check_vertex_count(n)
        if n < 0:
            raise DomainError(f"vertex count {n} is negative")
        self.n = n
        w: dict[tuple[int, int], int] = {}
        items = edges.items() if isinstance(edges, dict) else edges
        for (i, j), weight in items:
            if i == j:
                raise DomainError("loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownVertex(f"edge ({i},{j}) outside 0..{n - 1}")
            key = (i, j) if i < j else (j, i)
            if key in w and w[key] != weight:
                raise DomainError(f"conflicting weights for edge {key}")
            if weight:
                w[key] = weight
        self._w = w
        self._nbrs = None
        self.order = tuple(order) if order is not None else tuple(range(n))
        if sorted(self.order) != list(range(n)):
            raise DomainError("order must be a permutation of the vertices")

    # -- basic queries ------------------------------------------------------

    def weight(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        return self._w.get(key, 0)

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted((i, j, w) for (i, j), w in self._w.items()))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """The vertices joined to i, ascending; () when i is no vertex."""
        if self._nbrs is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for a, b in self._w:
                nbrs[a].append(b)
                nbrs[b].append(a)
            self._nbrs = tuple(tuple(sorted(x)) for x in nbrs)
        return self._nbrs[i] if 0 <= i < self.n else ()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Diagram) and self.n == other.n
                and self._w == other._w and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._w.items())), self.order))

    def __repr__(self) -> str:
        return f"Diagram(n={self.n}, edges={self.edges()})"

    # -- derived diagrams ----------------------------------------------------

    def with_order(self, order) -> "Diagram":
        return Diagram(self.n, dict(self._w), order=tuple(order))

    def delete(self, vertices) -> "Diagram":
        """Induced subdiagram on the remaining vertices, order inherited."""
        gone = set(vertices)
        for v in gone:
            if not (0 <= v < self.n):
                raise UnknownVertex(f"no vertex {v}")
        keep = [v for v in range(self.n) if v not in gone]
        index = {v: k for k, v in enumerate(keep)}
        edges = {(index[i], index[j]): w for (i, j), w in self._w.items()
                 if i in index and j in index}
        order = [index[v] for v in self.order if v in index]
        return Diagram(len(keep), edges, order=order)

    def tour(self, root: int) -> tuple[list[int], dict[int, int]]:
        """The component of root, breadth first with neighbors ascending,
        and the parent of each of its vertices (-1 at the root).  A parent
        comes before its children, so a reversed tour builds a rooted
        recursion leaves first."""
        if not (0 <= root < self.n):
            raise UnknownVertex(f"no vertex {root}")
        tour, parent = [root], {root: -1}
        for v in tour:
            for u in self.neighbors(v):
                if u not in parent:
                    parent[u] = v
                    tour.append(u)
        return tour, parent

    def tours(self):
        """tour(root) of each component from its least vertex, by least
        vertex: one walk per component."""
        seen: set[int] = set()
        for start in range(self.n):
            if start not in seen:
                tour, parent = self.tour(start)
                seen.update(tour)
                yield tour, parent

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the components, each ascending, by least vertex."""
        return [tuple(sorted(tour)) for tour, _ in self.tours()]

    def is_tree(self) -> bool:
        return (len(self._w) == self.n - 1
                and len(self.components()) == 1) or self.n == 0


# ---------------------------------------------------------------------------
# Seifert matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertMatrix:
    """Upper-triangular unit-diagonal matrix with -a_ij above the diagonal,
    rows and columns in the diagram's order."""

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_diagram(d: Diagram) -> "SeifertMatrix":
        n = d.n
        rows = []
        for p in range(n):
            row = []
            for t in range(n):
                if t == p:
                    row.append(1)
                elif t > p:
                    row.append(-d.weight(d.order[p], d.order[t]))
                else:
                    row.append(0)
            rows.append(tuple(row))
        return SeifertMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _path_edges(vertices) -> list[tuple[tuple[int, int], int]]:
    return [((vertices[k], vertices[k + 1]), 1)
            for k in range(len(vertices) - 1)]


def build(family: str, n: int) -> Diagram:
    """Build a euclidean or affine ADE diagram with unit edge weights.

    Affine families put the affine vertex at index 0.  The affine A_1 cycle
    degenerates to a single edge of weight 2 (its Cartan matrix).
    """
    _check_vertex_count(n)
    if family == "A":
        if n < 0:
            raise BadRank("A_n needs n >= 0")
        return Diagram(n, _path_edges(list(range(n))))
    if family == "D":
        if n < 4:
            raise BadRank("D_n needs n >= 4")
        edges = [((0, 2), 1), ((1, 2), 1)] + _path_edges(list(range(2, n)))
        return Diagram(n, edges)
    if family == "E":
        if n not in (6, 7, 8):
            raise BadRank("E_n needs n in {6, 7, 8}")
        edges = _path_edges(list(range(n - 1))) + [((2, n - 1), 1)]
        return Diagram(n, edges)
    if family == "affA":
        if n < 1:
            raise BadRank("affine A_n needs n >= 1")
        if n == 1:
            return Diagram(2, [((0, 1), 2)])
        edges = _path_edges(list(range(n + 1))) + [((0, n), 1)]
        return Diagram(n + 1, edges)
    if family == "affD":
        if n < 4:
            raise BadRank("affine D_n needs n >= 4")
        # 0 affine leaf, 1 its partner leaf, 2..n-2 the central path,
        # n-1 and n the far fork
        edges = [((0, 2), 1), ((1, 2), 1),
                 ((n - 2, n - 1), 1), ((n - 2, n), 1)]
        edges += _path_edges(list(range(2, n - 1)))
        return Diagram(n + 1, edges)
    if family == "affE":
        if n == 6:
            edges = [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((3, 4), 1),
                     ((2, 5), 1), ((5, 6), 1)]
            return Diagram(7, edges)
        if n == 7:
            edges = _path_edges(list(range(7))) + [((3, 7), 1)]
            return Diagram(8, edges)
        if n == 8:
            edges = _path_edges(list(range(8))) + [((5, 8), 1)]
            return Diagram(9, edges)
        raise BadRank("affine E_n needs n in {6, 7, 8}")
    raise BadRank(f"unknown family {family!r}")


def ade_types(max_rank: int) -> list[tuple[str, int]]:
    """Every (family, rank) that build accepts with 1 <= rank <= max_rank,
    family by family in the order of FAMILIES, ranks ascending."""
    out = []
    for fam in FAMILIES:
        if fam.endswith("E"):
            ranks = (6, 7, 8)
        else:
            ranks = range(4 if fam.endswith("D") else 1, max_rank + 1)
        out += [(fam, n) for n in ranks if n <= max_rank]
    return out


def parse_name(name: str) -> tuple[str, int]:
    """Parse CLI diagram names like A5, D7, E8, ~A4, ~D6, ~E7."""
    s = name.strip()
    aff = s.startswith("~")
    if aff:
        s = s[1:]
    if not s or s[0].upper() not in "ADE":
        raise DomainError(f"cannot parse diagram name {name!r}")
    fam = s[0].upper()
    rank = _int_token(s[1:])
    if rank is None:
        raise DomainError(f"cannot parse rank in {name!r}")
    _check_vertex_count(rank)
    return ("aff" + fam if aff else fam), rank


def from_name(name: str) -> Diagram:
    fam, rank = parse_name(name)
    return build(fam, rank)


def join(parts) -> Diagram:
    """Join: add one new vertex tied by weight-1 edges to each marked vertex.

    Parts are (diagram, marked_vertex) pairs.  The new vertex gets index 0
    and comes first in the order, so it can serve directly as the pivot of
    the one-row Schur step.
    """
    parts = list(parts)
    edges: list[tuple[tuple[int, int], int]] = []
    order: list[int] = [0]
    offset = 1
    for k, (d, v) in enumerate(parts):
        if not (0 <= v < d.n):
            raise UnknownVertex(f"marked vertex {v} outside part {k}")
        for (i, j, w) in d.edges():
            edges.append(((i + offset, j + offset), w))
        order.extend(p + offset for p in d.order)
        edges.append(((0, v + offset), 1))
        offset += d.n
    return Diagram(offset, edges, order=order)


# ---------------------------------------------------------------------------
# bipartite two-block ordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddCycle:
    """Witness returned when a diagram has a cycle of odd length."""

    cycle: tuple[int, ...]


def two_coloring(d: Diagram):
    """The color (0 or 1) of each vertex by parity along d.tours(), 0 at
    each tour's root, and the first edge uv in tour order whose ends share
    a color, as (parent, u, v) with parent that tour's parents, or None
    when there is none; the tours after that edge's keep color 0.  A
    bipartite component has one 2-coloring once its root's color is
    fixed."""
    color = [0] * d.n
    for tour, parent in d.tours():
        for v in tour[1:]:
            color[v] = 1 - color[parent[v]]
        # the first conflict in tour order is the first that a breadth-first
        # coloring meets: it gives every new neighbor the other color
        for v in tour:
            for u in d.neighbors(v):
                if color[u] == color[v]:
                    return color, (parent, u, v)
    return color, None


def bipartite_order(d: Diagram):
    """Two-block vertex order (one part first, then the other) or OddCycle.

    A normal outcome either way: graphs without odd cycles get an order
    under which the characteristic and Coxeter polynomials coincide.
    """
    color, clash = two_coloring(d)
    if clash:
        return OddCycle(_odd_cycle_witness(*clash))
    return ([v for v in range(d.n) if not color[v]]
            + [v for v in range(d.n) if color[v]])


def _odd_cycle_witness(parent, u, v) -> tuple[int, ...]:
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    in_u = {x: k for k, x in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in in_u:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    up = anc_u[: in_u[meet] + 1]
    # meet .. u, then across the offending edge to v and back up to meet
    return tuple(up[::-1] + path_v[:-1])


# ---------------------------------------------------------------------------
# random trees (seeded, for the property suites and the CLI)
# ---------------------------------------------------------------------------

def random_tree(rng: random.Random, n: int, weights=(1,)) -> Diagram:
    """Random recursive tree: vertex k > 0 hangs off a uniform earlier one."""
    _check_vertex_count(n)
    edges = []
    for k in range(1, n):
        edges.append(((rng.randrange(k), k), rng.choice(list(weights))))
    return Diagram(n, edges)


# ---------------------------------------------------------------------------
# text file format
# ---------------------------------------------------------------------------

def from_text(text: str) -> Diagram:
    """Parse the diagram file format.

    Line `n <count>`, then edge lines `i j w` (0-based, integer weight),
    optionally `order i0 i1 ...`.
    """
    n = None
    edges = []
    order = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if {"n": n, "order": order}.get(tok[0]) is not None:
            raise DomainError(f"second {tok[0]!r} line: {raw!r}")
        if tok[0] == "n":
            if len(tok) != 2:
                raise DomainError(f"bad header line: {raw!r}")
            (n,) = _ints(tok[1:], raw)
        elif tok[0] == "order":
            order = _ints(tok[1:], raw)
        else:
            if len(tok) != 3:
                raise DomainError(f"bad edge line: {raw!r}")
            i, j, w = _ints(tok, raw)
            edges.append(((i, j), w))
    if n is None:
        raise DomainError("missing 'n <count>' header")
    return Diagram(n, edges, order=order)


def _ints(tokens, raw: str) -> list[int]:
    out = [_int_token(t) for t in tokens]
    if None in out:
        raise DomainError(f"expected integers in line: {raw!r}")
    return out


def _int_token(token: str) -> int | None:
    """token as an int when it is an optional '-' and ASCII digits, else
    None: int() alone also reads '+5', '1_0', ' 8' and non-ASCII digits."""
    digits = token.removeprefix("-")
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None
