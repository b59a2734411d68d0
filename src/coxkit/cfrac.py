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


@dataclass(frozen=True)
class Closing:
    """Terminal node: contributes 1/r to the enclosing denominator."""

    value: RatFunc


@dataclass(frozen=True)
class Branch:
    """Inner node: value 1 / (z - sum of weighted child values)."""

    children: tuple[tuple[int, Union["Branch", Closing]], ...] = ()


CFracNode = Union[Branch, Closing]


def expand_tree(d: Diagram, root: int) -> Branch:
    """Recursive expansion of char(d minus root) / char(d) for a tree."""
    if not (0 <= root < d.n):
        raise UnknownVertex(f"no vertex {root}")
    if not d.is_tree():
        raise NotATree("diagram is not a connected tree")

    def grow(v: int, parent: int) -> Branch:
        children = []
        for u in sorted(d.neighbors(v)):
            if u != parent:
                w = d.weight(v, u)
                children.append((w * w, grow(u, v)))
        return Branch(tuple(children))

    return grow(root, -1)


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
    """(numerator, denominator) of the node's value, neither reduced."""
    if isinstance(node, Closing):
        if node.value.is_zero:
            raise ZeroDenominator("closing term is zero")
        return node.value.den, node.value.num
    children = []
    for wsq, child in node.children:
        num, den = _pair(child)
        children.append((wsq, den, num))
    den, num = _rooted_step(children)
    if den.is_zero:
        raise ZeroDenominator("denominator collapsed to zero")
    return num, den


def z_count(node: CFracNode) -> int:
    """Number of head z's (one per Branch node)."""
    if isinstance(node, Closing):
        return 0
    return 1 + sum(z_count(child) for _, child in node.children)


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
        return "\n".join(_ascii(node, 0))
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
    if isinstance(node, Closing):
        return r"\cfrac{1}{%s}" % _rat_text(node.value)
    body = "z"
    for wsq, child in node.children:
        prefix = "" if wsq == 1 else f"{wsq}\\,"
        body += " - " + prefix + _latex(child)
    return r"\cfrac{1}{%s}" % body


def _ascii(node: CFracNode, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(node, Closing):
        return [f"{pad}close 1/({_rat_text(node.value)})"]
    heads = " - ".join(
        ("#" if wsq == 1 else f"{wsq}*#") for wsq, _ in node.children)
    line = f"{pad}1/(z{' - ' + heads if heads else ''})"
    out = [line]
    for _, child in node.children:
        out.extend(_ascii(child, indent + 1))
    return out
