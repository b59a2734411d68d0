"""Branching continued fractions: expansion, evaluation, rendering."""

import random

import pytest

from coxkit import cfrac
from coxkit.algebra import Laurent, Poly, RatFunc, z_substitute
from coxkit.cfrac import (Branch, Closing, evaluate, expand_cycle,
                          expand_tree, render, tree_ratio, z_count)
from coxkit.coxeter import _rooted_step, char_poly
from coxkit.diagram import Diagram, build, from_name, random_tree
from coxkit.errors import NotATree, UnknownVertex, ZeroDenominator
from coxkit.kostant import klein_data
from oracles import fl_char


def test_single_vertex_is_one_over_z():
    node = expand_tree(build("A", 1), 0)
    assert node == Branch(())
    assert evaluate(node) == RatFunc(Poly.one(), Poly.x())


def test_affine_d4_shape():
    node = expand_tree(build("affD", 4), 0)
    assert len(node.children) == 1
    inner = node.children[0][1]
    assert len(inner.children) == 3
    assert all(child == Branch(()) and w == 1 for w, child in inner.children)


def test_path_fraction_is_chebyshev_quotient():
    d = build("A", 6)
    node = expand_tree(d, 0)
    cur = node
    seen = 0
    while cur.children:
        assert len(cur.children) == 1
        seen += 1
        cur = cur.children[0][1]
    assert seen + 1 == 6
    assert evaluate(node) == RatFunc(char_poly(build("A", 5)), char_poly(d))


def test_tree_requirement():
    with pytest.raises(NotATree):
        expand_tree(build("affA", 3), 0)


def test_tree_requirement_on_the_tour_from_the_root():
    # a tour that misses a vertex, and one that covers a cycle's n edges
    forest = Diagram(4, [((0, 1), 1), ((2, 3), 2)])
    triangle = Diagram(3, [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)])
    for d in (forest, triangle):
        for root in range(d.n):
            with pytest.raises(NotATree):
                expand_tree(d, root)
    for root in (-1, 4):
        with pytest.raises(UnknownVertex):
            expand_tree(forest, root)
    assert expand_tree(Diagram(1), 0) == Branch(())


def test_round_trip_random_trees_all_roots():
    rng = random.Random(13)
    for _ in range(25):
        d = random_tree(rng, rng.randint(1, 10), (1, 2))
        for root in range(d.n):
            node = expand_tree(d, root)
            assert z_count(node) == d.n
            assert evaluate(node) == tree_ratio(d, root)


def test_branch_shape_mirrors_diagram():
    d = build("affE", 7)
    node = expand_tree(d, 0)

    def walk(nd, vertex, parent):
        kids = [u for u in d.neighbors(vertex) if u != parent]
        assert len(nd.children) == len(kids)
        for (w, child), u in zip(nd.children, sorted(kids)):
            assert w == d.weight(vertex, u) ** 2
            walk(child, u, vertex)

    walk(node, 0, -1)


def test_cycle_counts_and_closings():
    n2 = expand_cycle(2)
    assert z_count(n2) == 3
    closings = _collect_closings(n2)
    assert all(c.value == RatFunc(Poly.one(), Poly.one()) for c in closings)
    n3 = expand_cycle(3)
    assert z_count(n3) == 3
    closings = _collect_closings(n3)
    assert all(c.value == RatFunc(Poly.x(), Poly.const(2)) for c in closings)
    for n in range(1, 11):
        node = expand_cycle(n)
        assert z_count(node) == (n if n % 2 else n + 1)


def _collect_closings(node):
    if isinstance(node, Closing):
        return [node]
    out = []
    for _, child in node.children:
        out.extend(_collect_closings(child))
    return out


def test_cycle_evaluation_matches_char_ratio():
    for n in range(1, 11):
        d = build("affA", n)
        want = RatFunc(char_poly(d.delete([0])), char_poly(d))
        assert evaluate(expand_cycle(n)) == want


def test_evaluate_hand_nested():
    # 1/(z - 1/z) = z / (z^2 - 1)
    node = Branch(((1, Branch(())),))
    assert evaluate(node) == RatFunc(Poly.x(), Poly((-1, 0, 1)))


def test_affine_fraction_values_against_coxeter():
    # for the bipartite affine trees the fraction equals the Coxeter-ratio
    for name in ("~D4", "~E6", "~E7", "~E8"):
        d = from_name(name)
        val = evaluate(expand_tree(d, 0))
        num_q = z_substitute(val.num)
        den_q = z_substitute(val.den)
        from coxkit.coxeter import coxeter_poly
        from coxkit.diagram import bipartite_order
        split = bipartite_order(d)
        full = coxeter_poly(d.with_order(split))
        cut = d.delete([0])
        cut_split = bipartite_order(cut)
        part = coxeter_poly(cut.with_order(cut_split))
        assert num_q * full == den_q * part


def test_fraction_equals_scaled_poincare_series():
    for fam, n in [("affD", 4), ("affE", 6), ("affA", 6), ("affA", 5)]:
        data = klein_data(fam, n)
        node = (expand_cycle(n) if fam == "affA"
                else expand_tree(data.diagram(), 0))
        val = evaluate(node)
        lhs = z_substitute(val.num) * data.denominator()
        rhs = Laurent.q(1) * data.z_table[0] * z_substitute(val.den)
        assert lhs == rhs


# -- the fraction-free evaluation against Faddeev-LeVerrier --------------------
# char_poly and tree_ratio of a tree run the recursion evaluate runs, so the
# oracle here is the Faddeev-LeVerrier pass, which never takes it.

def test_evaluate_matches_faddeev_leverrier_ratio():
    rng = random.Random(31)
    for _ in range(30):
        d = random_tree(rng, rng.randint(1, 16), (1, 2, 3))
        for root in rng.sample(range(d.n), min(3, d.n)):
            want = RatFunc(fl_char(d.delete([root])), fl_char(d))
            assert evaluate(expand_tree(d, root)) == want, (d, root)


def test_cycle_evaluation_matches_faddeev_leverrier_ratio():
    for n in range(1, 10):
        d = build("affA", n)
        want = RatFunc(fl_char(d.delete([0])), fl_char(d))
        assert evaluate(expand_cycle(n)) == want, n


def test_evaluate_still_refuses_zero_denominators():
    with pytest.raises(ZeroDenominator, match="closing term is zero"):
        evaluate(Branch(((1, Closing(RatFunc(Poly.zero(), Poly.one()))),)))
    # 1/(z - 1/(1/z)): the child is worth z, so z - z = 0
    collapse = Branch(((1, Closing(RatFunc(Poly.one(), Poly.x()))),))
    with pytest.raises(ZeroDenominator, match="denominator collapsed"):
        evaluate(collapse)
    deep = Branch(((1, Branch(((1, collapse),))),))
    with pytest.raises(ZeroDenominator, match="denominator collapsed"):
        evaluate(deep)


def _unshared(node):
    """A copy of node in which no node has two parents."""
    if isinstance(node, Closing):
        return Closing(node.value)
    return Branch(tuple((wsq, _unshared(c)) for wsq, c in node.children))


def test_evaluate_takes_a_shared_node_once(monkeypatch):
    steps = []

    def counted(children):
        steps.append(1)
        return _rooted_step(children)

    monkeypatch.setattr(cfrac, "_rooted_step", counted)
    # 201 distinct Branch nodes: the root and the 200 of the arm it holds
    # under both of its children
    evaluate(expand_cycle(400))
    assert len(steps) == 201
    for n in range(1, 41):
        node = expand_cycle(n)
        copy = _unshared(node)
        assert copy == node and evaluate(node) == evaluate(copy), n
    rng = random.Random(5)
    for _ in range(20):
        d = random_tree(rng, rng.randint(1, 9), (1, 2))
        root = rng.randrange(d.n)
        node = expand_tree(d, root)
        assert evaluate(node) == evaluate(_unshared(node)) == \
            tree_ratio(d, root)


def test_latex_render():
    assert render(Branch(()), "latex") == r"\cfrac{1}{z}"
    latex = render(expand_tree(build("affD", 4), 0), "latex")
    assert latex == (r"\cfrac{1}{z - \cfrac{1}{z - \cfrac{1}{z} - "
                     r"\cfrac{1}{z} - \cfrac{1}{z}}}")
    arm = r"\cfrac{1}{z - \cfrac{1}{z/2}}"
    assert render(expand_cycle(3), "latex") == (
        rf"\cfrac{{1}}{{z - {arm} - {arm}}}")


def test_ascii_render_two_levels():
    text = render(expand_tree(build("A", 2), 0), "ascii")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("  ")


def test_weighted_edge_renders_weight():
    node = expand_tree(build("affA", 1), 0)  # weight-2 edge: child weight 4
    latex = render(node, "latex")
    assert "4\\," in latex


def test_a1000_expansions_compare_and_hash_without_recursion():
    a = expand_tree(build("A", 1000), 0)
    b = expand_tree(build("A", 1000), 0)
    assert a is not b and a == b and hash(a) == hash(b)
    edges = [((v, v + 1), 1) for v in range(998)] + [((998, 999), 2)]
    c = expand_tree(Diagram(1000, edges), 0)
    assert a != c and not a == c
    assert expand_cycle(7) == expand_cycle(7) != expand_cycle(8)
    assert hash(expand_cycle(7)) == hash(expand_cycle(7))
    assert len({hash(expand_cycle(k)) for k in range(3, 9)}) == 6
    assert Closing(RatFunc(Poly.one(), Poly.x())) != Branch(())
    # a path and a star with the same weights in the same preorder
    assert expand_tree(build("A", 3), 0) != expand_tree(build("A", 3), 1)
    half = Closing(RatFunc(Poly.x(), Poly.const(2)))
    assert Branch(((1, half),)) != Branch(((4, half),))


def test_repr_is_the_dataclass_text_at_any_depth():
    assert repr(expand_tree(build("A", 2), 0)) == (
        "Branch(children=((1, Branch(children=())),))")
    assert repr(expand_tree(from_name("~D4"), 0)) == (
        "Branch(children=((1, Branch(children=((1, Branch(children=())), "
        "(1, Branch(children=())), (1, Branch(children=()))))),))")
    half = "Closing(value=RatFunc((z) / (2)))"
    assert repr(expand_cycle(3)) == (
        f"Branch(children=((1, Branch(children=((1, {half}),))), "
        f"(1, Branch(children=((1, {half}),)))))")
    assert repr(Branch(((4, Branch()),))) == (
        "Branch(children=((4, Branch(children=())),))")
    text = repr(expand_tree(build("A", 1000), 0))
    assert text == "Branch(children=((1, " * 999 + "Branch(children=())" + (
        "),))" * 999)
