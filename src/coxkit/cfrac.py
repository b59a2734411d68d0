"""Branching continued fractions.

The fraction of a rooted tree mirrors the tree: each vertex contributes one
head z, each edge a squared-weight child fraction.  Evaluating the fraction
of a tree rooted at r gives char(tree minus r) / char(tree).  Unit cycles
get the two-branch expansion that meets itself half way around, closing on
z/2 (odd meeting vertex) or 1 (meeting edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .algebra import Poly, RatFunc
from .coxeter import _rooted_step, char_poly
from .diagram import Diagram
from .errors import BadRank, DomainError, NotATree, UnknownVertex, ZeroDenominator


class _Node:
    """Equality and hashing by explicit stacks, so that a path of any
    length compares and hashes without recursion."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is not type(b):
                return False
            if isinstance(a, Closing):
                if a.value != b.value:
                    return False
            elif len(a.children) != len(b.children):
                return False
            else:
                for (wa, ca), (wb, cb) in zip(a.children, b.children):
                    if wa != wb:
                        return False
                    stack.append((ca, cb))
        return True

    def __hash__(self) -> int:
        tour, stack = [], [self]
        while stack:
            node = stack.pop()
            tour.append(node)
            if isinstance(node, Branch):
                stack.extend(c for _, c in node.children)
        # children come after their parent in the tour, so before it here
        hashes: dict[int, int] = {}
        for node in reversed(tour):
            if isinstance(node, Closing):
                h = hash(("Closing", node.value))
            else:
                h = hash(("Branch", tuple((w, hashes[id(c)])
                                          for w, c in node.children)))
            hashes[id(node)] = h
        return hashes[id(self)]


@dataclass(frozen=True, eq=False)
class Closing(_Node):
    """Terminal node: contributes 1/r to the enclosing denominator."""

    value: RatFunc


@dataclass(frozen=True, eq=False)
class Branch(_Node):
    """Inner node: value 1 / (z - sum of weighted child values)."""

    children: tuple[tuple[int, Union["Branch", Closing]], ...] = ()


CFracNode = Union[Branch, Closing]


def expand_tree(d: Diagram, root: int) -> Branch:
    """Expansion of char(d minus root) / char(d) for a tree.

    The tree is walked from the root and its nodes are built leaves first,
    so a path of any length needs no recursion."""
    if not (0 <= root < d.n):
        raise UnknownVertex(f"no vertex {root}")
    if not d.is_tree():
        raise NotATree("diagram is not a connected tree")
    tour, parent = [root], {root: -1}
    for v in tour:
        for u in d.neighbors(v):
            if u != parent[v]:
                parent[u] = v
                tour.append(u)
    built: dict[int, Branch] = {}
    for v in reversed(tour):
        built[v] = Branch(tuple((d.weight(v, u) ** 2, built.pop(u))
                                for u in d.neighbors(v) if u != parent[v]))
    return built[root]


def expand_cycle(n: int, depth: int | None = None) -> Branch:
    """Two-branch expansion for the unit cycle on n+1 vertices.

    Both branches walk half way around the cycle; at the meeting point the
    closing term is z/2 when n is odd (meeting vertex) and 1 when n is even
    (meeting edge).  Only the canonical floor(n/2)-step truncation exists in
    the z-world, so other depths are rejected.  The degenerate n = 1 case
    (one weight-2 edge) still expands with two unit branches.
    """
    if n < 1:
        raise BadRank("cycle expansion needs n >= 1")
    if depth is not None and depth != n // 2:
        raise DomainError("only the half-way truncation closes over z")
    if n % 2:
        closing = Closing(RatFunc(Poly.x(), Poly.const(2)))
        chain_len = (n - 1) // 2
    else:
        closing = Closing(RatFunc(Poly.one(), Poly.one()))
        chain_len = n // 2
    arm: CFracNode = closing
    for _ in range(chain_len):
        arm = Branch(((1, arm),))
    return Branch(((1, arm), (1, arm)))


def evaluate(node: CFracNode) -> RatFunc:
    """Exact rational value in z.

    The numerator and denominator go up the tree unreduced by the rooted
    recursion of char_poly, and are reduced once, at the root.
    """
    return RatFunc(*_pair(node))


def _pair(node: CFracNode) -> tuple[Poly, Poly]:
    """(numerator, denominator) of the node's value, neither reduced.

    Children are evaluated before their parent, first child first, from an
    explicit stack.  A child's pair is dropped once its parent has used it,
    so only the pairs still waiting for a parent are held; the two arms of
    expand_cycle, one node under one parent, are evaluated once."""
    done: dict[int, tuple[Poly, Poly]] = {}
    stack = [node]
    while stack:
        x = stack[-1]
        if id(x) in done:
            stack.pop()
        elif isinstance(x, Closing):
            if x.value.is_zero:
                raise ZeroDenominator("closing term is zero")
            done[id(x)] = x.value.den, x.value.num
            stack.pop()
        else:
            todo = [c for _, c in reversed(x.children) if id(c) not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            den, num = _rooted_step((wsq, *reversed(done[id(c)]))
                                    for wsq, c in x.children)
            for _, c in x.children:
                done.pop(id(c), None)
            if den.is_zero:
                raise ZeroDenominator("denominator collapsed to zero")
            done[id(x)] = num, den
    return done[id(node)]


def z_count(node: CFracNode) -> int:
    """Number of head z's (one per Branch node)."""
    count, stack = 0, [node]
    while stack:
        x = stack.pop()
        if isinstance(x, Branch):
            count += 1
            stack.extend(child for _, child in x.children)
    return count


def tree_ratio(d: Diagram, root: int) -> RatFunc:
    """char(d minus root) / char(d), the value expand_tree encodes."""
    return RatFunc(char_poly(d.delete([root])), char_poly(d))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(node: CFracNode, fmt: str = "latex") -> str:
    if fmt == "latex":
        return _latex(node)
    if fmt == "ascii":
        return "\n".join(_ascii(node))
    raise DomainError(f"unknown render format {fmt!r}")


def _rat_text(value: RatFunc) -> str:
    num = value.num.render("z")
    den = value.den.render("z")
    if den == "1":
        return num
    if " " not in num and " " not in den:
        return f"{num}/{den}"
    return f"({num})/({den})"


def _latex(node: CFracNode) -> str:
    """Written out front to back from a stack of nodes and the literal text
    between them."""
    parts: list[str] = []
    stack: list = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, Closing):
            parts.append(r"\cfrac{1}{%s}" % _rat_text(x.value))
        else:
            parts.append(r"\cfrac{1}{z")
            stack.append("}")
            for wsq, child in reversed(x.children):
                prefix = "" if wsq == 1 else f"{wsq}\\,"
                stack += [child, " - " + prefix]
    return "".join(parts)


def _ascii(node: CFracNode) -> list[str]:
    """One line per node, parents before children, two spaces of indent a
    level."""
    out: list[str] = []
    stack = [(node, 0)]
    while stack:
        x, indent = stack.pop()
        pad = "  " * indent
        if isinstance(x, Closing):
            out.append(f"{pad}close 1/({_rat_text(x.value)})")
            continue
        heads = " - ".join(
            ("#" if wsq == 1 else f"{wsq}*#") for wsq, _ in x.children)
        out.append(f"{pad}1/(z{' - ' + heads if heads else ''})")
        stack += [(child, indent + 1) for _, child in reversed(x.children)]
    return out
