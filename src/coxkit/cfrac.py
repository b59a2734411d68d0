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
from .errors import BadRank, DomainError, NotATree, ZeroDenominator


class _Node:
    """Equality, hashing and repr from the walk (_walk), so that a path of
    any length compares, hashes and prints without recursion."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The preorder of (weight, kind, value or number of children),
        which determines the tree."""
        return tuple((w, "Closing", x.value) if isinstance(x, Closing)
                     else (w, "Branch", len(x.children))
                     for w, x, _ in _walk(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        """The dataclass text, written front to back."""
        parts: list[str] = []
        closers: list[str] = []  # one per open Branch, the deepest last
        last = -1
        for w, x, depth in _walk(self):
            while len(closers) > depth:
                parts.append(closers.pop())
            if depth:
                # a first child follows its parent in the walk
                parts.append(f"{'' if last < depth else ', '}({w}, ")
            tail = ")" if depth else ""
            if isinstance(x, Closing):
                parts.append(f"Closing(value={x.value!r}){tail}")
            else:
                parts.append("Branch(children=(")
                comma = "," if len(x.children) == 1 else ""
                closers.append(f"{comma})){tail}")
            last = depth
        return "".join(parts + closers[::-1])


@dataclass(frozen=True, eq=False, repr=False)
class Closing(_Node):
    """Terminal node: contributes 1/r to the enclosing denominator."""

    value: RatFunc


@dataclass(frozen=True, eq=False, repr=False)
class Branch(_Node):
    """Inner node: value 1 / (z - sum of weighted child values)."""

    children: tuple[tuple[int, Union["Branch", Closing]], ...] = ()


CFracNode = Union[Branch, Closing]


def _walk(node: CFracNode):
    """(weight, node, depth) for every node under node, parents before
    their children and children in order, from an explicit stack.  The
    weight is the squared edge weight to the parent (None at the root)."""
    stack = [(None, node, 0)]
    while stack:
        item = stack.pop()
        yield item
        _, x, depth = item
        if isinstance(x, Branch):
            stack += [(wsq, c, depth + 1) for wsq, c in reversed(x.children)]


def expand_tree(d: Diagram, root: int) -> Branch:
    """Expansion of char(d minus root) / char(d) for a tree.

    The tree is walked once from the root, which must reach n vertices
    over n - 1 edges, and its nodes are built leaves first, so a path of
    any length needs no recursion."""
    tour, parent = d.tour(root)
    if len(tour) != d.n or len(d.edges()) != d.n - 1:
        raise NotATree("diagram is not a connected tree")
    built: dict[int, Branch] = {}
    for v in reversed(tour):
        built[v] = Branch(tuple((d.weight(v, u) ** 2, built.pop(u))
                                for u in d.neighbors(v) if u != parent[v]))
    return built[root]


def expand_cycle(n: int) -> Branch:
    """Two-branch expansion for the unit cycle on n+1 vertices.

    Both branches walk half way around the cycle; at the meeting point the
    closing term is z/2 when n is odd (meeting vertex) and 1 when n is even
    (meeting edge); this floor(n/2)-step truncation is the only one that
    closes over z.  The degenerate n = 1 case (one weight-2 edge) still
    expands with two unit branches.
    """
    if n < 1:
        raise BadRank("cycle expansion needs n >= 1")
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

    An explicit stack takes each node after its children, last child
    first, and keeps the pair of every node it has evaluated by id.  So a
    node under two parents, like the arm of expand_cycle, is evaluated
    once, and the nodes of a tree are evaluated in reversed walk order."""
    pairs: dict[int, tuple[Poly, Poly]] = {}
    stack = [node]
    while stack:
        x = stack[-1]
        if id(x) in pairs:
            stack.pop()
        elif isinstance(x, Closing):
            if x.value.is_zero:
                raise ZeroDenominator("closing term is zero")
            pairs[id(x)] = (x.value.den, x.value.num)
            stack.pop()
        else:
            todo = [c for _, c in x.children if id(c) not in pairs]
            if todo:
                stack += todo
                continue
            den, num = _rooted_step((wsq, *reversed(pairs[id(c)]))
                                    for wsq, c in x.children)
            if den.is_zero:
                raise ZeroDenominator("denominator collapsed to zero")
            pairs[id(x)] = (num, den)
            stack.pop()
    return pairs[id(node)]


def z_count(node: CFracNode) -> int:
    """Number of head z's (one per Branch node)."""
    return sum(isinstance(x, Branch) for _, x, _ in _walk(node))


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
    """Written out front to back: a Branch opens a brace that closes once
    the walk leaves its subtree."""
    parts: list[str] = []
    opened = 0
    for wsq, x, depth in _walk(node):
        parts.append("}" * (opened - depth))
        opened = depth
        if depth:
            parts.append(" - " if wsq == 1 else f" - {wsq}\\,")
        if isinstance(x, Closing):
            parts.append(r"\cfrac{1}{%s}" % _rat_text(x.value))
        else:
            parts.append(r"\cfrac{1}{z")
            opened += 1
    return "".join(parts) + "}" * opened


def _ascii(node: CFracNode) -> list[str]:
    """One line per node, parents before children, two spaces of indent a
    level."""
    out: list[str] = []
    for _, x, depth in _walk(node):
        pad = "  " * depth
        if isinstance(x, Closing):
            out.append(f"{pad}close 1/({_rat_text(x.value)})")
            continue
        heads = " - ".join(
            ("#" if wsq == 1 else f"{wsq}*#") for wsq, _ in x.children)
        out.append(f"{pad}1/(z{' - ' + heads if heads else ''})")
    return out
