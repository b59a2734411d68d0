"""Coxeter/characteristic polynomials, Schur step, cofactors, walks."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import algebra, coxeter
from coxkit.algebra import (Laurent, Poly, _det_laplace, det_exact, det_poly,
                            q_to_z, z_substitute)
from coxkit.coxeter import (SchurStep, _cyclomatic, _edge_step,
                            _faddeev_leverrier, _rooted_step,
                            char_poly, cofactors, coxeter_matrix, coxeter_poly,
                            divide_identity, identity7_check, join_poly,
                            path_sum_H, pivot_first, schur_step,
                            walk_expansion_residual, walk_gf)
from coxkit.diagram import (MAX_VERTICES, Diagram, OddCycle, bipartite_order,
                            build, join, random_tree, two_coloring)
from coxkit.errors import (DomainError, ExactDivisionError,
                           PreconditionABneq2C, SizeMismatch, UnknownVertex)
from coxkit.report import nonzero_terms
from oracles import (_z_matrix, cofactor_entry, disjoint_union,
                     faddeev_leverrier_full_rows, fl_char,
                     rooted_step_by_products)

Z = Laurent.z()


def chebyshev_path(n: int) -> Poly:
    """Independent oracle: char of the path by the three-term recurrence."""
    prev, cur = Poly.one(), Poly.x()
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, Poly.x() * cur - prev
    return cur


# -- coxeter polynomial -----------------------------------------------------

def test_coxeter_a1():
    assert coxeter_poly(build("A", 1)) == Z


def test_coxeter_a2_oracle():
    # oracle: 2x2 determinant z^2 - 1 expanded over q
    assert coxeter_poly(build("A", 2)) == Laurent({2: 1, 0: 1, -2: 1})


def test_coxeter_empty():
    assert coxeter_poly(build("A", 0)) == Laurent.one()


def test_coxeter_matches_generic_determinant():
    for fam, n in [("A", 4), ("D", 5), ("affA", 3), ("affA", 4), ("affE", 6)]:
        d = build(fam, n)
        assert coxeter_poly(d) == _det_laplace(coxeter_matrix(d))


def test_coxeter_q_symmetry():
    for fam, n in [("A", 5), ("affA", 2), ("affA", 4), ("affD", 4)]:
        p = coxeter_poly(build(fam, n))
        assert p == p.bar()
    cyc = build("affA", 3)  # non two-block order on an even cycle
    p = coxeter_poly(cyc)
    assert p == p.bar()


def test_coxeter_depends_on_order_for_cycles():
    cyc = build("affA", 3)
    natural = coxeter_poly(cyc)
    split = bipartite_order(cyc)
    two_block = coxeter_poly(cyc.with_order(split))
    # hand values: natural cycle walk gives (z^2-1)(z^2-4) under z = q+1/q,
    # the two-block order gives the characteristic polynomial z^4 - 4 z^2
    assert natural == z_substitute(Poly((4, 0, -5, 0, 1)))
    assert two_block == z_substitute(Poly((0, 0, -4, 0, 1)))
    assert natural != two_block


def test_multiplicativity_over_disjoint_union():
    a, b = build("A", 3), build("D", 4)
    u = disjoint_union(a, b)
    assert coxeter_poly(u) == coxeter_poly(a) * coxeter_poly(b)


def test_forest_coxeter_matches_generic_determinant_in_every_order():
    # forests take G(q + 1/q); the oracle expands qS + q^-1 S^t itself
    rng = random.Random(5)
    for _ in range(30):
        d = random_tree(rng, rng.randint(1, 5), (1, 2, 3))
        for _ in range(rng.randint(0, 2)):
            d = disjoint_union(d, random_tree(rng, rng.randint(1, 4),
                                              (1, 2, 3)))
        for _ in range(3):
            order = list(range(d.n))
            rng.shuffle(order)
            shuffled = d.with_order(order)
            want = _det_laplace(coxeter_matrix(shuffled))
            assert coxeter_poly(shuffled) == want


def test_cycle_orders_are_memoized_apart():
    for n in range(3, 7):
        cyc = build("affA", n)
        # swapping the last two vertices changes the cycle's polynomial
        swapped = cyc.with_order(tuple(range(n - 1)) + (n, n - 1))
        want = [_det_laplace(coxeter_matrix(d)) for d in (cyc, swapped)]
        assert want[0] != want[1]
        for _ in range(2):  # the second round is served from the memo
            assert [coxeter_poly(cyc), coxeter_poly(swapped)] == want


def test_order_free_results_are_shared_across_orders():
    d = build("affE", 6)
    flipped = d.with_order(tuple(reversed(d.order)))
    assert char_poly(flipped) is char_poly(d)
    assert cofactors(flipped) is cofactors(d)


# -- characteristic polynomial ----------------------------------------------

def test_char_a1():
    assert char_poly(build("A", 1)) == Poly.x()


def test_char_d4_star():
    # join formula: z^3 (z - 3/z) = z^4 - 3 z^2; adjacency spectrum of K_1,3
    assert char_poly(build("D", 4)) == Poly((0, 0, -3, 0, 1))


def test_char_triangle_oracle():
    # 3x3 determinant by hand: z^3 - 3z - 2
    assert char_poly(build("affA", 2)) == Poly((-2, -3, 0, 1))


def test_char_path_is_chebyshev():
    for n in range(0, 9):
        assert char_poly(build("A", n)) == chebyshev_path(n)


def test_char_order_free():
    d = build("affA", 3)
    assert char_poly(d) == char_poly(d.with_order((2, 0, 3, 1)))


def test_bipartite_coincidence_families():
    for fam, n in [("A", 6), ("D", 7), ("E", 8), ("affA", 5), ("affD", 6),
                   ("affE", 7), ("affA", 1)]:
        d = build(fam, n)
        split = bipartite_order(d)
        assert not isinstance(split, tuple().__class__) or True
        reordered = d.with_order(split)
        assert z_substitute(char_poly(d)) == coxeter_poly(reordered)


# -- Schur step ---------------------------------------------------------------

def test_schur_a2_endpoint():
    st_ = schur_step(build("A", 2), 0)
    assert st_.base == Z
    assert [b[2] for b in st_.branches] == [Laurent.one()]
    assert not st_.crosses
    assert st_.reassemble() == st_.total == Laurent({2: 1, 0: 1, -2: 1})


def test_schur_single_vertex():
    st_ = schur_step(build("A", 1), 0)
    assert st_.base == Laurent.one() and not st_.branches
    assert st_.total == Z


def test_schur_d4_center():
    st_ = schur_step(build("D", 4), 2)
    assert st_.base == Z ** 3
    assert len(st_.branches) == 3 and not st_.crosses
    assert all(w == 1 and g == Z ** 2 for (_, w, g) in st_.branches)
    assert st_.reassemble() == z_substitute(char_poly(build("D", 4)))


def test_schur_triangle_has_cross_terms():
    st_ = schur_step(build("affA", 2), 0)
    assert len(st_.crosses) == 2
    # cofactors of [[z, -q], [-1/q, z]] at the off-diagonal entries
    values = {c[2] for c in st_.crosses}
    assert values == {Laurent.q(1), Laurent.q(-1)}
    assert st_.residual.is_zero


def test_schur_cross_terms_are_bar_pairs():
    st_ = schur_step(build("affA", 5), 2)
    by_pair = {pair: p for pair, _, p in st_.crosses}
    for (i, j), p in by_pair.items():
        assert by_pair[(j, i)] == p.bar()


def test_schur_reassembly_everywhere():
    rng = random.Random(11)
    diagrams = [build(f, n) for f, n in
                [("A", 5), ("D", 6), ("E", 6), ("affA", 4), ("affA", 5),
                 ("affD", 5), ("affE", 6)]]
    diagrams += [random_tree(rng, rng.randint(1, 8), (1, 2))
                 for _ in range(25)]
    for d in diagrams:
        for pivot in range(d.n):
            st_ = schur_step(d, pivot)
            assert st_.residual.is_zero
            assert st_.total == coxeter_poly(pivot_first(d, pivot))


def test_schur_on_cyclic_diagrams_has_zero_residual():
    # two triangles sharing vertex 0: deleting it leaves two components,
    # whose cross minors are skipped as identically zero
    bowtie = Diagram(5, [((0, 1), 1), ((1, 2), 2), ((0, 2), 1),
                         ((0, 3), 3), ((3, 4), 1), ((0, 4), 1)])
    rng = random.Random(17)
    diagrams = [bowtie, bowtie.with_order((4, 2, 0, 3, 1))]
    for _ in range(15):
        tree = random_tree(rng, rng.randint(3, 7), (1, 2, 3))
        edges = {(i, j): w for i, j, w in tree.edges()}
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(tree.n), 2)
            edges.setdefault((min(i, j), max(i, j)), rng.randint(1, 3))
        order = list(range(tree.n))
        rng.shuffle(order)
        diagrams.append(Diagram(tree.n, edges, order=order))
    for d in diagrams:
        for pivot in range(d.n):
            st_ = schur_step(d, pivot)
            assert st_.residual.is_zero
            want = _det_laplace(coxeter_matrix(pivot_first(d, pivot)))
            assert st_.total == want


@st.composite
def ordered_diagrams(draw, max_n: int = 6):
    """A weighted graph, cycles and all, in a shuffled vertex order."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = draw(st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, -1, 3)),
                            min_size=len(pairs), max_size=len(pairs)))
    return Diagram(n, {p: w for p, w in zip(pairs, weights) if w},
                   order=draw(st.permutations(range(n))))


def qs_matrix(d: Diagram) -> list[list[Laurent]]:
    """Independent oracle: qS + q^-1 S^t entry by entry, z on the diagonal
    and -a q^(+-1) off it, the sign from the order of the two positions."""
    o = d.order
    return [[Z if p == t else
             Laurent.term(-d.weight(o[p], o[t]), 1 if p < t else -1)
             for t in range(d.n)] for p in range(d.n)]


@settings(max_examples=60, deadline=None)
@given(ordered_diagrams())
def test_coxeter_matrix_is_qs_plus_inverse_q_st_in_any_order(d):
    assert coxeter_matrix(d) == qs_matrix(d)


@settings(max_examples=40, deadline=None)
@given(ordered_diagrams(), st.data())
def test_schur_terms_are_z_base_minus_total(d, data):
    pivot = data.draw(st.integers(0, d.n - 1))
    st_ = schur_step(d, pivot)
    total = det_exact(qs_matrix(pivot_first(d, pivot)))
    assert st_.total == total
    assert st_.terms == Z * st_.base - total
    # the one map of Laurent.total against a chain of +
    chain = Laurent.zero()
    for _, wsq, g in st_.branches:
        chain = chain + wsq * g
    for _, coeff, p in st_.crosses:
        chain = chain + coeff * p
    assert st_.terms == chain


@settings(max_examples=40, deadline=None)
@given(ordered_diagrams(max_n=7), st.data())
def test_memoized_schur_step_is_the_fresh_one(d, data):
    pivot = data.draw(st.integers(0, d.n - 1))
    memo = schur_step(d, pivot)
    # a rebuilt copy is served the same entry
    assert schur_step(Diagram(d.n, {(i, j): w for i, j, w in d.edges()},
                              order=d.order), pivot) is memo
    for clear in (coxeter._schur_step, coxeter._coxeter_poly,
                  coxeter._char_poly):
        clear.cache_clear()
    fresh = schur_step(d, pivot)
    assert fresh is not memo
    for f in dataclasses.fields(SchurStep):
        assert getattr(memo, f.name) == getattr(fresh, f.name), f.name
    # the cross minors depend on the order, so each order has its own entry
    other = d.with_order(data.draw(st.permutations(range(d.n))))
    coxeter._schur_step.cache_clear()
    schur_step(d, pivot)
    schur_step(other, pivot)
    assert coxeter._schur_step.cache_info().currsize == (
        1 if other.order == d.order else 2)


def test_the_step_key_keeps_the_order_for_cycles_not_forests():
    # on a forest two neighbours of the pivot lie in different components
    # of the rest, so no step has a cross and no order changes a step
    rng = random.Random(28)
    for _ in range(300):
        d = disjoint_union(random_tree(rng, rng.randint(1, 5), (1, 2)),
                           random_tree(rng, rng.randint(1, 4), (1, 2)))
        pivot = rng.randrange(d.n)
        steps = [schur_step(d.with_order(rng.sample(range(d.n), d.n)), pivot)
                 for _ in range(3)]
        assert all(s.crosses == () for s in steps), d
        assert steps[0] == steps[1] == steps[2], d
    # on a cycle the crosses and the total depend on the order
    square = build("affA", 3)
    cycle, two_block = (schur_step(square.with_order(order), 0)
                        for order in [(0, 1, 2, 3), (0, 2, 1, 3)])
    assert cycle.crosses != two_block.crosses
    assert cycle.total != two_block.total


# -- join formula -------------------------------------------------------------

def test_join_three_a1():
    val = join_poly([(build("A", 1), 0)] * 3)
    assert q_to_z(val) == Poly((0, 0, -3, 0, 1))


def test_join_path_matches_chebyshev():
    val = join_poly([(build("A", 2), 1)])
    assert q_to_z(val) == chebyshev_path(3)


def test_join_empty_parts():
    assert join_poly([]) == Z


def test_join_matches_built_join():
    parts = [(build("A", 2), 0), (build("D", 4), 0), (build("A", 1), 0)]
    assert join_poly(parts) == coxeter_poly(join(parts))


def _join_by_products(parts) -> Laurent:
    """The join polynomial z prod T_i - sum_j Tbar_j prod_(i != j) T_i by
    two explicit product loops: an oracle that shares no code with
    _rooted_step."""
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


def test_join_poly_matches_the_product_loops_on_cyclic_parts():
    assert join_poly([]) == _join_by_products([]) == Z
    rng = random.Random(71)
    cyclic = 0
    for _ in range(12):
        parts = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(4, 7)
            d = _with_cycles(rng, n, rng.randint(0, 2), orders=1)[0]
            parts.append((d, rng.randrange(n)))
            cyclic += bool(_cyclomatic(d.n, d.edges()))
        want = _join_by_products(parts)
        assert join_poly(parts) == want, parts
        # the join vertex lies on no cycle, so its step holds in any order
        assert coxeter_poly(join(parts)) == want, parts
    assert cyclic > 10


# -- the rooted forest step ---------------------------------------------------

def _random_pair(rng, ring):
    """An arbitrary (A, B): the step's identity holds for any values."""
    if ring is Poly:
        return tuple(Poly(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
                     for _ in range(2))
    return tuple(Laurent({rng.randint(-3, 3): rng.randint(-3, 3)
                          for _ in range(rng.randint(1, 4))})
                 for _ in range(2))


def test_rooted_step_matches_the_product_loop():
    for z in (None, Z):
        assert _rooted_step((), z) == rooted_step_by_products((), z)
    assert _rooted_step(()) == (Poly.x(), Poly.one())
    assert _rooted_step((), Z) == (Z, Laurent.one())
    rng = random.Random(33)
    for ring, z in ((Poly, None), (Laurent, Z)):
        for wsq in (1, 4):
            for _ in range(20):
                children = [(wsq, *_random_pair(rng, ring))]
                assert (_rooted_step(children, z)
                        == rooted_step_by_products(children, z)), children
        for _ in range(60):
            children = [(rng.choice((1, 4, 9)), *_random_pair(rng, ring))
                        for _ in range(rng.randint(2, 4))]
            assert (_rooted_step(children, z)
                    == rooted_step_by_products(children, z)), children


def _rooted_pair(d: Diagram, x: int, parent, z=None):
    return _rooted_step([(d.weight(x, y) ** 2, *_rooted_pair(d, y, x, z))
                         for y, _ in d.neighbors(x) if y != parent], z)


def test_rooted_step_gives_the_determinants_of_random_forests():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = [((rng.randrange(k), k), rng.choice((1, 2, -1, 3)))
                 for k in range(1, n) if rng.random() < 0.75]
        d = Diagram(n, edges)
        roots = [comp[0] for comp in d.components()]
        pairs = {r: _rooted_pair(d, r, None) for r in roots}
        total = math.prod((a for a, _ in pairs.values()), start=Poly.one())
        assert total == det_poly(_z_matrix(d)), edges
        for r, (a, b) in pairs.items():
            # B of a root is its tree less the root: d less r has B_r in
            # place of A_r
            assert b * total == det_poly(_z_matrix(d.delete([r]))) * a, edges
            assert (_rooted_pair(d, r, None, Z)
                    == (z_substitute(a), z_substitute(b))), edges


def test_rooted_step_does_no_algebra_with_the_unit_or_zero(monkeypatch):
    """No product with one or zero, no scaling by one or zero, and no
    sum or difference with zero.  On a path every vertex has one child, so
    the step makes no product of polynomials: one subtraction per vertex
    above the leaf (z A - a^2 B of the child, z^2 - a^2 above a leaf), one
    scaling a^2 B per edge of weight 2 and, in q, the product with z."""
    ops = []
    for ring in (Poly, Laurent):
        for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
            def counted(self, other, _op=getattr(ring, name), _name=name):
                ops.append((_name, self, other))
                return _op(self, other)
            monkeypatch.setattr(ring, name, counted)
    units = (0, 1, Poly.zero(), Poly.one(), Laurent.zero(), Laurent.one())
    for z in (None, Z):
        for n in (1, 2, 9):
            weights = [1 + k % 2 for k in range(n - 1)]
            d = Diagram(n, [((k, k + 1), w) for k, w in enumerate(weights)])
            del ops[:]
            a, b = _rooted_pair(d, 0, None, z)
            for name, left, right in ops:
                if name == "__mul__":
                    assert left not in units and right not in units, ops
                elif name == "__rmul__":  # a^2 B, where B of a leaf is 1
                    assert left and right not in (0, 1), ops
                else:
                    assert left and right, ops
            names = [name for name, _, _ in ops]
            assert names.count("__sub__") == n - 1
            assert names.count("__rmul__") == weights.count(2)
            assert names.count("__mul__") == (0 if z is None else n - 1)
            assert "__add__" not in names
            if z is None:
                assert a == det_poly(_z_matrix(d))
                assert b == det_poly(_z_matrix(d.delete([0])))


def test_forest_product_starts_at_the_first_tree(monkeypatch):
    """char_poly of a forest multiplies its trees' polynomials together and
    never the unit into them; only the empty diagram gives the unit."""
    products = []
    real = Poly.__mul__

    def counted(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for sizes in ((2, 3), (1, 1, 1), (4, 1, 2, 5), (3,)):
        d = Diagram(0)
        for k in sizes:
            d = disjoint_union(d, build("A", k))
        del products[:]
        got = coxeter._char_poly.__wrapped__(d.n, d.edges())
        assert not any(Poly.one() in pair for pair in products), sizes
        assert len(products) == len(sizes) - 1, sizes
        assert got == det_poly(_z_matrix(d)), sizes
    assert coxeter._char_poly.__wrapped__(0, ()) == Poly.one()


# -- cofactors ----------------------------------------------------------------

def test_cofactor_a1():
    assert cofactors(build("A", 1))[0, 0] == Poly.one()


def test_cofactor_a2_oracle():
    table = cofactors(build("A", 2))
    assert table[0, 0] == Poly.x()
    assert table[0, 1] == Poly.one()
    assert table[1, 0] == Poly.one()


def test_cofactor_affine_column_tree_rule():
    # deleting the path to the affine vertex leaves the named products
    d = build("affE", 6)
    table = cofactors(d)
    assert table[0, 0] == char_poly(build("E", 6))
    assert table[1, 0] == char_poly(build("A", 5))
    a2 = char_poly(build("A", 2))
    assert table[2, 0] == a2 * a2
    assert table[3, 0] == char_poly(build("A", 1)) * a2
    assert table[4, 0] == a2


def test_cofactor_affine_e7_e8_top_entries():
    t7 = cofactors(build("affE", 7))
    assert t7[0, 0] == char_poly(build("E", 7))
    assert t7[1, 0] == char_poly(build("D", 6))
    assert t7[7, 0] == char_poly(build("A", 3))
    t8 = cofactors(build("affE", 8))
    assert t8[0, 0] == char_poly(build("E", 8))
    assert t8[1, 0] == char_poly(build("E", 7))


def test_cofactor_cycle_rule():
    # on the cycle the two routes give H_j0 = A_{j-1} + A_{n-j}
    n = 6
    d = build("affA", n)
    table = cofactors(d)
    for j in range(1, n + 1):
        want = chebyshev_path(j - 1) + chebyshev_path(n - j)
        assert table[j, 0] == want
    assert table[0, 0] == chebyshev_path(n)


def test_cofactors_match_direct_minors():
    for fam, n in [("A", 4), ("affA", 3), ("affD", 4)]:
        d = build(fam, n)
        table = cofactors(d)
        for i in range(d.n):
            for j in range(d.n):
                assert table[i, j] == cofactor_entry(d, i, j)
                assert table[i, j] == table[j, i]


# -- the Faddeev-LeVerrier engine against independent oracles -----------------

def _random_graphs(count: int, seed: int = 3):
    """Seeded graphs with cycles, negative weights and disconnected parts;
    the first ones have 0 and 1 vertices."""
    rng = random.Random(seed)
    out = [Diagram(0), Diagram(1)]
    while len(out) < count:
        n = rng.randint(2, 9)
        density = rng.choice((0.2, 0.4, 0.7))
        edges = {(i, j): rng.choice((-2, -1, 1, 2, 3))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density}
        d = Diagram(n, edges)
        if rng.random() < 0.3:
            d = disjoint_union(d, Diagram(2, {(0, 1): -1}))
        out.append(d)
    return out


def _shaped_graphs() -> list[Diagram]:
    """The two shapes of the engine's layers.  Bipartite graphs with
    cycles: a weighted 6-cycle, ~A_3, ~A_5 and ~A_7, K_3,3 and the 3 x 4
    grid; forests with isolated vertices.  Not bipartite: a square beside
    a triangle.  Several carry negative weights."""
    rng = random.Random(11)
    hexagon = Diagram(6, {(k, (k + 1) % 6): w
                          for k, w in enumerate((2, -1, 3, 1, -2, 1))})
    k33 = Diagram(6, {(i, j): rng.choice((-2, -1, 1, 2))
                      for i in range(3) for j in range(3, 6)})
    grid = Diagram(12, {**{(4 * r + c, 4 * r + c + 1): rng.choice((-1, 1, 2))
                           for r in range(3) for c in range(3)},
                        **{(4 * r + c, 4 * r + c + 4): rng.choice((-1, 1, 2))
                           for r in range(2) for c in range(4)}})
    forests = [Diagram(2 + t.n, {(i, j): w for i, j, w in t.edges()})
               for t in (random_tree(rng, 7, (-1, 2, 3)),
                         random_tree(rng, 10, (1, -3)))]
    square = Diagram(4, {(0, 1): 1, (1, 2): -1, (2, 3): 2, (0, 3): 1})
    triangle = Diagram(3, {(0, 1): 1, (1, 2): 2, (0, 2): -1})
    return [hexagon, *(build("affA", k) for k in (3, 5, 7)), k33, grid,
            *forests, disjoint_union(square, triangle)]


SHAPED = _shaped_graphs()
GRAPHS = _random_graphs(110) + SHAPED


def test_random_graphs_cover_the_cases():
    sizes = [d.n for d in GRAPHS]
    assert 0 in sizes and 1 in sizes
    assert any(len(d.components()) > 1 for d in GRAPHS)
    assert any(len(d.edges()) >= d.n for d in GRAPHS)  # has a cycle
    assert any(w < 0 for d in GRAPHS for _, _, w in d.edges())
    # both shapes of the engine's layers: half width on a bipartite graph
    # with a cycle, full width on a graph with an odd cycle
    assert any(isinstance(bipartite_order(d), list)
               and _cyclomatic(d.n, d.edges()) for d in GRAPHS)
    assert any(not isinstance(bipartite_order(d), list) for d in GRAPHS)
    assert any(isinstance(bipartite_order(d), list)
               and any(not d.neighbors(v) for v in range(d.n))
               and len(d.edges()) for d in GRAPHS)


def test_char_poly_matches_bareiss_on_random_graphs():
    for d in GRAPHS:
        assert char_poly(d) == det_poly(_z_matrix(d)), d


def test_cofactors_match_minors_and_invert_on_random_graphs():
    for d in GRAPHS:
        table, g, m = cofactors(d), char_poly(d), _z_matrix(d)
        assert table.n == d.n
        for i in range(d.n):
            for j in range(d.n):
                assert table[i, j] == table[j, i]
                # one signed minor per unordered pair, on the smaller graphs
                if i <= j and d.n <= 7:
                    assert table[i, j] == cofactor_entry(d, i, j), (d, i, j)
                # (zE - A) adj(zE - A) = G E fixes the table, G being monic
                acc = Poly.zero()
                for k in range(d.n):
                    acc = acc + m[i][k] * table[k, j]
                assert acc == (g if i == j else Poly.zero()), (d, i, j)


def test_engine_matches_the_full_row_oracle_on_random_graphs():
    for d in GRAPHS:
        rows = [d.neighbors(i) for i in range(d.n)]
        for table in (False, True):
            assert (_faddeev_leverrier(d, table)
                    == faddeev_leverrier_full_rows(rows, table)), d


def test_the_table_builds_each_unordered_pair_once(monkeypatch):
    # each entry with j >= i is one Poly, which [j][i] shares
    built = []

    def counted(coeffs):
        built.append(coeffs)
        return Poly(coeffs)

    monkeypatch.setattr(coxeter, "Poly", counted)
    for d in [Diagram(0), *GRAPHS]:
        built.clear()
        _, adj = _faddeev_leverrier(d, True)
        assert len(built) == d.n * (d.n + 1) // 2, d
        assert all(adj[i][j] is adj[j][i]
                   for i in range(d.n) for j in range(i)), d


def test_shaped_graphs_match_every_minor():
    for d in SHAPED:
        table = cofactors(d)
        for i in range(d.n):
            for j in range(i, d.n):
                assert table[i, j] == cofactor_entry(d, i, j), (d, i, j)


def _side_counts(d: Diagram) -> set:
    """The sizes of the two colour classes of a connected bipartite d."""
    tour, parent = d.tour(0)
    colour = {0: 0}
    for v in tour[1:]:
        colour[v] = 1 - colour[parent[v]]
    black = sum(colour.values())
    return {black, d.n - black}


def _layer_widths(monkeypatch, call) -> set:
    """The lengths of the layer rows that the engine sums during call."""
    widths = set()
    real = coxeter._row_times

    def logged(row, m):
        out = real(row, m)
        widths.add(len(out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(coxeter, "_row_times", logged)
        call()
    return widths


def test_layer_rows_are_half_width_exactly_on_bipartite_patterns(
        monkeypatch):
    def table(d):
        return _layer_widths(monkeypatch,
                             lambda: _faddeev_leverrier(d, True))

    tree = random_tree(random.Random(9), 21, (1, -2, 3))
    assert table(tree) == _side_counts(tree) and len(_side_counts(tree)) == 2
    assert table(build("affA", 11)) == {6}  # the 12-cycle
    assert table(build("affA", 10)) == {11}  # the 11-cycle
    # the divide halves, connected and with no zero row or column in A or
    # B: layers of p = 3 or r = 4 entries on the A half, r or s = 2 on the
    # B half, where A A^t and B^t B gave full rows of p and s
    a = [[1, -2, 0, 3], [0, 1, 1, 0], [2, 0, -1, 1]]
    b = [[2, 4], [-2, 2], [2, 0], [0, -6]]
    c = [[x // 2 for x in row] for row in algebra.mat_mul(a, b)]
    assert _layer_widths(monkeypatch,
                         lambda: divide_identity(a, b, c)) == {2, 3, 4}


def _two_parts(d: Diagram, split: list[int]):
    """The two parts of a two-block order of d: every vertex of the second
    part has a neighbour in the first, its parent in the tour, and no
    vertex of the first has one before it."""
    seen: set[int] = set()
    for s, v in enumerate(split):
        if seen.intersection(u for u, _ in d.neighbors(v)):
            return split[:s], split[s:]
        seen.add(v)
    return split, []


def test_engine_classes_are_the_parts_of_bipartite_order(monkeypatch):
    # row i of layer k lies on the class of side(i) + k mod 2: it is as
    # wide as the part of bipartite_order that holds i at even k and as
    # the other part at odd k, and as all n vertices on a diagram with an
    # odd cycle; an empty row sums to no entry at all
    rng = random.Random(83)
    seeded = []
    for _ in range(60):
        d = Diagram(rng.randint(0, 3))  # isolated vertices
        for _ in range(rng.randint(1, 3)):
            d = disjoint_union(d, build("affA", rng.randint(1, 7))
                               if rng.random() < 0.3
                               else random_tree(rng, rng.randint(1, 7),
                                                (1, -2, 3)))
        seeded.append(_relabel(rng, d))
    splits = [bipartite_order(d) for d in seeded]
    assert any(isinstance(s, OddCycle) for s in splits)
    assert any(not isinstance(s, OddCycle) and len(d.components()) > 2
               and any(not d.neighbors(v) for v in range(d.n))
               and _cyclomatic(d.n, d.edges()) for d, s in zip(seeded, splits))
    for d in [Diagram(0), *GRAPHS, *seeded]:
        widths: list[int] = []
        real = coxeter._row_times

        def logged(row, m):
            out = real(row, m)
            widths.append(len(out))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(coxeter, "_row_times", logged)
            _faddeev_leverrier(d, True)
        split = bipartite_order(d)
        if isinstance(split, OddCycle):
            size = {i: (d.n, d.n) for i in range(d.n)}
        else:
            first, second = _two_parts(d, split)
            assert first == sorted(first) and second == sorted(second), d
            size = {**{i: (len(first), len(second)) for i in first},
                    **{i: (len(second), len(first)) for i in second}}
        assert widths == [size[i][k % 2] if d.neighbors(i) else 0
                          for k in range(1, d.n) for i in range(d.n)], d


def test_char_poly_and_cofactors_match_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def coeffs(expr):
        return Poly(reversed(sympy.Poly(expr, z).all_coeffs()))

    for d in GRAPHS:
        a = sympy.Matrix(d.n, d.n, lambda i, j: d.weight(i, j))
        assert char_poly(d) == coeffs(a.charpoly(z).as_expr()), d
        if d.n > 4:
            continue  # sympy's symbolic adjugate is slow beyond this
        adj = (z * sympy.eye(d.n) - a).adjugate(method="berkowitz")
        table = cofactors(d)
        for i in range(d.n):
            for j in range(d.n):
                assert table[i, j] == coeffs(sympy.expand(adj[i, j])), d


def _tree_char_by_leaves(n: int, edges) -> Poly:
    """det(zE - A) of a tree from its edge list: rooted at 0, the subtree
    of v has f_v = z P_v - sum_c w_c^2 P_c prod_(c' != c) f_c', with c the
    children of v and P_v the product of their f_c."""
    nbrs = {v: [] for v in range(n)}
    for i, j, w in edges:
        nbrs[i].append((j, w))
        nbrs[j].append((i, w))
    order, parent = [0], {0: None}
    for v in order:
        for u, _ in nbrs[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    f, prods = {}, {}
    for v in reversed(order):
        prod, rest = Poly.one(), Poly.zero()
        for c, w in nbrs[v]:
            if parent[c] == v:
                rest = rest * f[c] + (w * w) * prods[c] * prod
                prod = prod * f[c]
        f[v], prods[v] = Poly.x() * prod - rest, prod
    return f[0]


def test_char_poly_of_100_vertex_tree_matches_leaf_expansion():
    d = random_tree(random.Random(100), 100, (1, 2, -3))
    assert char_poly(d) == _tree_char_by_leaves(d.n, d.edges())
    # the trace of the cofactor table is G'
    table = cofactors(d)
    trace = Poly.zero()
    for i in range(d.n):
        trace = trace + table[i, i]
    g = char_poly(d).coeffs
    assert trace == Poly(k * c for k, c in enumerate(g) if k)


# -- graph expansion against independent oracles -------------------------------
# The forest recursion, Schwenk's edge step and the fraction-free continued
# fraction share one recursion, so none of these checks uses it: the oracles
# are Faddeev-LeVerrier, sympy, Laplace, Bareiss and the ~A closed form.

def _relabel(rng, d: Diagram) -> Diagram:
    """The same graph under a random renumbering of its vertices."""
    perm = rng.sample(range(d.n), d.n)
    return Diagram(d.n, {(perm[i], perm[j]): w for i, j, w in d.edges()})


def _random_forests(count: int, seed: int) -> list[Diagram]:
    rng = random.Random(seed)
    out = [Diagram(0), Diagram(1), Diagram(3)]
    while len(out) < count:
        d = random_tree(rng, rng.randint(1, 16), (1, 2, 3))
        if rng.random() < 0.5:
            d = disjoint_union(d, random_tree(rng, rng.randint(1, 6),
                                              (1, 2, 3)))
        out.append(_relabel(rng, d))
    return out


FORESTS = _random_forests(60, 17)


def _with_cycles(rng, n: int, c: int, orders: int = 3) -> list[Diagram]:
    """A random tree on n vertices plus c chords (cyclomatic number c),
    with weights -1, 1, 2, 3, in several shuffled vertex orders."""
    t = random_tree(rng, n, (-1, 1, 2, 3))
    edges = {(i, j): w for i, j, w in t.edges()}
    while len(edges) < n - 1 + c:
        i, j = sorted(rng.sample(range(n), 2))
        edges.setdefault((i, j), rng.choice((-1, 1, 2, 3)))
    d = _relabel(rng, Diagram(n, edges))
    return [d.with_order(rng.sample(range(n), n)) for _ in range(orders)]


def test_cyclomatic_counts_independent_cycles():
    for d in GRAPHS + FORESTS:
        closing = _cyclomatic(d.n, d.edges())
        assert len(closing) == len(d.edges()) - d.n + len(d.components())
        for i, j, w in closing:  # each closing edge lies on a cycle
            rest = Diagram(d.n, {(a, b): x for a, b, x in d.edges()
                                 if (a, b) != (i, j)})
            assert any(i in comp and j in comp for comp in rest.components())


def test_forest_char_poly_matches_faddeev_leverrier():
    assert any(len(d.components()) > 1 for d in FORESTS)
    for d in FORESTS:
        assert not _cyclomatic(d.n, d.edges())
        assert char_poly(d) == fl_char(d), d


def test_char_poly_edge_step_matches_two_oracles_on_trees_plus_chords():
    # the z reading of Schwenk's step against Faddeev-LeVerrier and Bareiss
    # on zE - A, on fresh memos so the step itself runs
    coxeter._char_poly.cache_clear()
    rng = random.Random(61)
    for c in range(1, 5):
        for n in (5, 9, 12, 24, 48):
            d = _with_cycles(rng, n, c, orders=1)[0]
            assert len(_cyclomatic(d.n, d.edges())) == c
            got = char_poly(d)
            assert got == fl_char(d), d
            assert got == det_poly(_z_matrix(d)), d


def _char_poly_engines(monkeypatch, graphs) -> list:
    """The row counts of each Faddeev-LeVerrier call that char_poly makes
    on these graphs, on an empty memo."""
    calls = []

    def logged(d, table=False):
        calls.append(d.n)
        return _faddeev_leverrier(d, table)

    monkeypatch.setattr(coxeter, "_faddeev_leverrier", logged)
    coxeter._char_poly.cache_clear()
    for d in graphs:
        assert char_poly(d) == det_poly(_z_matrix(d)), d
    return calls


def test_char_poly_runs_faddeev_leverrier_only_above_the_gate(monkeypatch):
    rng = random.Random(67)
    below = [_with_cycles(rng, n, c, orders=1)[0]
             for c in range(1, coxeter._EXPAND_MAX + 1) for n in (8, 16)]
    assert _char_poly_engines(monkeypatch, FORESTS[:10] + below) == []
    above = _with_cycles(rng, 12, coxeter._EXPAND_MAX + 1, orders=1)[0]
    assert _char_poly_engines(monkeypatch, [above]) == [12]


@pytest.mark.parametrize("n", [1, 2, 3, 47, 192, 1000])
def test_char_poly_of_affine_a_is_the_chebyshev_closed_form(n):
    # char(~A_n), the cycle on n + 1 vertices (two joined by weight 2 at
    # n = 1), is 2 T_(n+1)(z/2) - 2, and 2 T_k(z/2) = C_k obeys
    # C_0 = 2, C_1 = z, C_(k+1) = z C_k - C_(k-1)
    prev, cur = Poly.const(2), Poly.x()
    for _ in range(n):
        prev, cur = cur, Poly.x() * cur - prev
    assert char_poly(build("affA", n)) == cur - Poly.const(2)


# -- the Faddeev-LeVerrier sweep on large graphs --------------------------------

_SWEEP_WEIGHTS = (-2, -1, 1, 2, 3)


def _sweep_graphs(count: int = 6, seed: int = 13) -> list[Diagram]:
    """Seeded graphs of 20-49 vertices: a random tree with weights -2, -1,
    1, 2, 3, plus 0-3 chords and 0-2 isolated vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, loose = rng.randint(20, 49), rng.randint(0, 2)
        t = random_tree(rng, n - loose, _SWEEP_WEIGHTS)
        edges = {(i, j): w for i, j, w in t.edges()}
        chords = rng.randint(0, 3)
        while len(edges) < n - loose - 1 + chords:
            i, j = sorted(rng.sample(range(n - loose), 2))
            edges.setdefault((i, j), rng.choice(_SWEEP_WEIGHTS))
        out.append(_relabel(rng, Diagram(n, edges)))
    return out


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss over the integers (test oracle)."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def test_sweep_tables_are_symmetric_inverses_on_large_graphs():
    graphs = _sweep_graphs()
    rows = [[d.neighbors(i) for i in range(d.n)] for d in graphs]
    # every branch of the row sum runs: an empty row, a row that is one
    # entry of weight 1 (a copy), and later entries of weight 1, -1 and
    # others (map by add, by sub and over w.__mul__)
    flat = [row for rs in rows for row in rs]
    assert any(not row for row in flat)
    assert any(len(row) == 1 and row[0][1] == 1 for row in flat)
    later = {w for row in flat for _, w in row[1:]}
    assert {1, -1} <= later and later - {1, -1}
    assert any(_cyclomatic(d.n, d.edges()) for d in graphs)
    for d, rs in zip(graphs, rows):
        table, g = cofactors(d), char_poly(d)
        for z0 in (3, -2):  # G against Bareiss at two integer points
            assert sum(c * z0 ** k for k, c in enumerate(g.coeffs)) == \
                _int_det([[(z0 if i == j else 0) - d.weight(i, j)
                           for j in range(d.n)] for i in range(d.n)])
        for i in range(d.n):
            for j in range(d.n):
                assert table[i, j] == table[j, i]
                # row i of (zE - A) adj(zE - A) = G E, A sparse
                acc = table[i, j].shift(1)
                for k, w in rs[i]:
                    acc = acc - w * table[k, j]
                assert acc == (g if i == j else Poly.zero()), (d, i, j)


def test_gram_det_and_adj_of_a_half_match_bareiss():
    # z^(p-r) det(zE - B) and z^(p-r-1) times the rows block of adj(zE - B)
    # against det_poly of z^2 E - m m^t and its signed minors: both shifts
    # divide at p < r, the adjugate's at p = r, neither at p >= r + 1; the
    # half puts the rows of m first (the A half) or last (the B half)
    rng = random.Random(31)
    for p, r in ((0, 3), (3, 0), (0, 0), (1, 4), (2, 4), (3, 3), (4, 3),
                 (5, 3), (6, 1)):
        m = [[rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(r)]
             for _ in range(p)]
        gram = [[sum(x * y for x, y in zip(u, v)) for v in m] for u in m]
        zm = [[Poly((-gram[i][j], 0, 1)) if i == j else Poly((-gram[i][j],))
               for j in range(p)] for i in range(p)]
        first = Diagram(p + r, [((i, p + j), x) for i, row in enumerate(m)
                                for j, x in enumerate(row)])
        last = Diagram(p + r, [((r + i, j), x) for i, row in enumerate(m)
                               for j, x in enumerate(row)])
        for half, rows in ((first, range(p)), (last, range(r, r + p))):
            det, adj = coxeter._gram_det_adj(half, rows)
            assert det == det_poly(zm), (p, r)
            assert len(adj) == p and all(len(row) == p for row in adj)
            for i in range(p):
                for j in range(p):
                    minor = [[x for c, x in enumerate(row) if c != i]
                             for k, row in enumerate(zm) if k != j]
                    want = det_poly(minor)
                    assert adj[i][j] == (-want if (i + j) % 2 else want), (
                        p, r, i, j)


def test_a_gram_shift_that_leaves_a_remainder_raises():
    # det(zE - B) of the edge with weight 3 is z^2 - 9: read with p = 0
    # rows (a wrong half), its z^(p-r) = z^-2 shift is no exact division
    with pytest.raises(ExactDivisionError):
        coxeter._gram_det_adj(Diagram(2, [((0, 1), 3)]), range(0))


def test_faddeev_leverrier_on_zero_and_one_rows():
    empty, point, edge = Diagram(0), Diagram(1), Diagram(2, [((0, 1), 5)])
    assert _faddeev_leverrier(empty) == ([1], None)
    assert _faddeev_leverrier(empty, True) == ([1], [])
    assert _faddeev_leverrier(point) == ([0, 1], None)
    assert _faddeev_leverrier(point, True) == ([0, 1], [[Poly.one()]])
    # one edge of weight 5: x^2 - 25, adj = [[x, 5], [5, x]]
    x, five = Poly.x(), Poly.const(5)
    assert _faddeev_leverrier(edge) == ([-25, 0, 1], None)
    assert _faddeev_leverrier(edge, True) == (
        [-25, 0, 1], [[x, five], [five, x]])
    assert cofactors(Diagram(0)).n == 0
    assert cofactors(Diagram(1))[0, 0] == Poly.one()
    # the halves of no vertex, of one vertex with no column and of one edge
    assert coxeter._gram_det_adj(Diagram(0), range(0)) == (Poly.one(), [])
    assert coxeter._gram_det_adj(Diagram(1), range(1)) == (
        Poly((0, 0, 1)), [[Poly.one()]])
    assert coxeter._gram_det_adj(Diagram(2, [((0, 1), 3)]), range(1)) == (
        Poly((-9, 0, 1)), [[Poly.one()]])


def _rendered(table) -> str:
    return "\n".join(table[i, j].render("z")
                     for i in range(table.n) for j in range(table.n))


# sha256 of _rendered(cofactors(d)), computed before the sweep summed rows
# with map and built only the upper half of the table
COFACTOR_SHA256 = {
    "~A48": "64076cdaa3fbe180e9340d941ac81295adc5740780ed91b0a58adf61a325d220",
    "tree48": "435304804686d64022ad8244d6f5ab785b0278c1cf4e80ffb45bc28f0cc1619e",
}


def test_large_cofactor_tables_are_pinned():
    tree = random_tree(random.Random(48), 48, _SWEEP_WEIGHTS)
    for name, d in (("~A48", build("affA", 48)), ("tree48", tree)):
        digest = hashlib.sha256(_rendered(cofactors(d)).encode())
        assert digest.hexdigest() == COFACTOR_SHA256[name], name


def test_forest_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for d in FORESTS[:30]:
        a = sympy.Matrix(d.n, d.n, lambda i, j: d.weight(i, j))
        want = sympy.Poly(a.charpoly(z).as_expr(), z).all_coeffs()
        assert char_poly(d) == Poly(reversed(want)), d


def test_edge_step_matches_laplace_up_to_7_vertices():
    rng = random.Random(41)
    for c in range(1, 6):
        for _ in range(3):
            n = rng.randint(4 if c <= 3 else 5, 7)
            for d in _with_cycles(rng, n, c):
                want = _det_laplace(coxeter_matrix(d))
                assert coxeter_poly(d) == want, d
                # the step holds at every edge on a cycle, not only the
                # one coxeter_poly picks
                for e in _cyclomatic(d.n, d.edges()):
                    assert _edge_step(d, e) == want, d


def test_edge_step_matches_bareiss_on_8_to_16_vertices():
    rng = random.Random(43)
    for c in range(1, 6):
        for n in (8, 12, 16):
            for d in _with_cycles(rng, n, c, orders=2):
                want = det_exact(coxeter_matrix(d))
                assert coxeter_poly(d) == want, d
                e = _cyclomatic(d.n, d.edges())[0]
                assert _edge_step(d, e) == want, d


def _counting_bareiss(monkeypatch) -> list:
    """Route coxeter's det_exact, its one Bareiss route, through a call
    log, on an empty memo."""
    calls = []

    def logged(mat):
        calls.append(len(mat))
        return det_exact(mat)

    monkeypatch.setattr(coxeter, "det_exact", logged)
    coxeter._coxeter_poly.cache_clear()
    coxeter._char_poly.cache_clear()
    coxeter._schur_step.cache_clear()
    return calls


def test_expansion_takes_affine_a_and_unicyclic_graphs(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    for n in range(2, 49):
        # closed form: P_(n+1) - P_(n-1) - (q^s + q^-s), P_k the path
        # polynomial; the cycle 0 -> 1 -> ... -> n -> 0 has s = n - 1
        want = (z_substitute(chebyshev_path(n + 1) - chebyshev_path(n - 1))
                - Laurent(((n - 1, 1), (1 - n, 1))))
        assert coxeter_poly(build("affA", n)) == want, n
    rng = random.Random(47)
    for n in range(3, 21):
        for d in _with_cycles(rng, n, 1, orders=2):
            assert coxeter_poly(d) == det_exact(coxeter_matrix(d)), d
    assert calls == []


def test_gate_sends_dense_cycle_spaces_to_bareiss(monkeypatch):
    rng = random.Random(53)
    at_gate = _with_cycles(rng, 10, coxeter._EXPAND_MAX, orders=1)[0]
    above = _with_cycles(rng, 10, coxeter._EXPAND_MAX + 1, orders=1)[0]
    calls = _counting_bareiss(monkeypatch)
    assert coxeter_poly(at_gate) == det_exact(coxeter_matrix(at_gate))
    assert calls == []
    assert coxeter_poly(above) == det_exact(coxeter_matrix(above))
    assert calls == [10]


def test_det_exact_takes_the_coxeter_matrix_in_w_equals_q_squared(
        monkeypatch):
    # the stride packing of det_exact is the w = q^2 lift: every entry of
    # the Coxeter matrix, or of a minor, reaches Bareiss with degree <= 1
    k6 = Diagram(6, {(i, j): 1 + (i * j) % 3
                     for i in range(6) for j in range(i + 1, 6)})
    d = k6.with_order((3, 0, 5, 1, 4, 2))
    degrees = []
    real = algebra._det_packed

    def logged(rows):
        degrees.extend(k for row in rows for terms in row for k, _ in terms)
        return real(rows)

    monkeypatch.setattr(algebra, "_det_packed", logged)
    m = coxeter_matrix(d)
    want = _det_laplace(m)
    assert det_exact(m) == want
    # row 0 of the (3, 0) minor has only q^+1 entries
    for r, c in ((3, 0), (1, 4), (5, 2)):
        minor = [[x for t, x in enumerate(row) if t != c]
                 for p, row in enumerate(m) if p != r]
        assert det_exact(minor) == _det_laplace(minor)
    assert degrees and max(degrees) == 1


def _oracle_crosses(d: Diagram, pivot: int, det) -> list:
    """The crosses of schur_step(d, pivot) from signed minors of the
    Coxeter matrix of d minus the pivot, each by det."""
    rest = d.delete([pivot])
    m = coxeter_matrix(rest)
    keep = [v for v in range(d.n) if v != pivot]
    pos = {v: rest.order.index(k) for k, v in enumerate(keep)}
    nbrs = [v for v in range(d.n) if d.weight(pivot, v)]
    out = []
    for i in nbrs:
        for j in nbrs:
            if i == j:
                continue
            pi, pj = pos[i], pos[j]
            minor = [[m[r][c] for c in range(rest.n) if c != pj]
                     for r in range(rest.n) if r != pi]
            p = det(minor)
            if (pi + pj) % 2:
                p = -p
            if not p.is_zero:
                out.append(((i, j), d.weight(pivot, i) * d.weight(pivot, j),
                            p))
    return out


def _graphs_by_cyclomatic(rng, sizes, orders: int) -> list[Diagram]:
    """Random graphs of cyclomatic number 0-6, weights 1-3, each in
    several shuffled vertex orders."""
    out = []
    for c in range(7):
        for n in sizes:
            if (n - 1) * n // 2 >= n - 1 + c:
                t = random_tree(rng, n, (1, 2, 3))
                edges = {(i, j): w for i, j, w in t.edges()}
                while len(edges) < n - 1 + c:
                    i, j = sorted(rng.sample(range(n), 2))
                    edges.setdefault((i, j), rng.randint(1, 3))
                d = _relabel(rng, Diagram(n, edges))
                out += [d.with_order(rng.sample(range(n), n))
                        for _ in range(orders)]
    return out


def _gate_sides(graphs) -> set:
    """Which sides of the gate the crosses of these graphs take."""
    sides = set()
    for d in graphs:
        for pivot in range(d.n):
            rest = d.delete([pivot])
            c = len(_cyclomatic(rest.n, rest.edges()))
            sides.add(c > coxeter._EXPAND_MAX)
    return sides


def test_cross_minors_match_laplace_up_to_7_vertices():
    graphs = _graphs_by_cyclomatic(random.Random(59), (4, 5, 6, 7), 2)
    assert _gate_sides(graphs) == {False, True}
    for d in graphs:
        for pivot in range(d.n):
            st_ = schur_step(d, pivot)
            assert list(st_.crosses) == _oracle_crosses(d, pivot,
                                                        _det_laplace), d
            assert st_.residual.is_zero


def test_cross_minors_match_bareiss_on_8_to_10_vertices():
    graphs = _graphs_by_cyclomatic(random.Random(61), (8, 10), 1)
    assert _gate_sides(graphs) == {False, True}
    for d in graphs:
        for pivot in range(d.n):
            st_ = schur_step(d, pivot)
            assert list(st_.crosses) == _oracle_crosses(d, pivot,
                                                        det_exact), d


def test_cross_minors_of_two_components_are_skipped():
    # deleting the pivot of a bowtie leaves two triangles' edges apart
    bowtie = Diagram(5, [((0, 1), 1), ((1, 2), 2), ((0, 2), 1),
                         ((0, 3), 3), ((3, 4), 1), ((0, 4), 1)])
    pairs = {pair for pair, _, _ in schur_step(bowtie, 0).crosses}
    assert pairs == {(1, 2), (2, 1), (3, 4), (4, 3)}


def test_schur_step_takes_paths_below_the_gate(monkeypatch):
    rng = random.Random(67)
    graphs = _graphs_by_cyclomatic(rng, (6, 9), 1)
    calls = _counting_bareiss(monkeypatch)
    totals_above = 0
    for d in graphs:
        for pivot in range(d.n):
            rest = d.delete([pivot])
            if len(_cyclomatic(rest.n, rest.edges())) > coxeter._EXPAND_MAX:
                continue
            coxeter._coxeter_poly.cache_clear()
            coxeter._schur_step.cache_clear()
            calls.clear()
            assert schur_step(d, pivot).residual.is_zero
            # only the total, of d itself, may go above the gate
            above = len(_cyclomatic(d.n, d.edges())) > coxeter._EXPAND_MAX
            assert calls == ([d.n] if above else []), d
            totals_above += above
    assert totals_above


def test_schur_step_returns_on_k10(monkeypatch):
    k10 = Diagram(10, {(i, j): 1 for i in range(10) for j in range(i + 1, 10)})
    calls = _counting_bareiss(monkeypatch)
    st_ = schur_step(k10, 0)
    assert st_.residual.is_zero
    assert st_.total == det_exact(coxeter_matrix(k10))
    assert len(st_.crosses) == 72
    # above the gate: the total, the base, one 8 x 8 det_exact for the 9
    # branches (one K8 in one order, which the memo serves after the first)
    # and one for each of the 36 unordered pairs of neighbors
    assert sorted(calls) == [8] * (1 + 36) + [9, 10]


# -- path sums and walks ------------------------------------------------------

def test_path_sum_diagonal():
    d = build("D", 5)
    for i in range(d.n):
        assert path_sum_H(d, i, i) == char_poly(d.delete([i]))


def test_path_sum_a2_endpoints():
    assert path_sum_H(build("A", 2), 0, 1) == Poly.one()


def test_path_sum_triangle_two_routes():
    assert path_sum_H(build("affA", 2), 0, 1) == Poly.x() + Poly.one()


def test_path_sum_matches_cofactors():
    rng = random.Random(3)
    diagrams = [build("affE", 6), build("affA", 4)]
    diagrams += [random_tree(rng, rng.randint(1, 7), (1, 2))
                 for _ in range(10)]
    for d in diagrams:
        table = cofactors(d)
        for i in range(d.n):
            for j in range(d.n):
                assert path_sum_H(d, i, j) == table[i, j]


def test_walk_counts():
    d = build("A", 2)
    assert walk_gf(d, 0, 0, 0) == [1]
    assert walk_gf(d, 0, 1, 1) == [0, 1]
    tri = build("affA", 2)
    assert walk_gf(tri, 0, 0, 2)[2] == 2


def test_walk_counts_match_dense_matrix_powers():
    """walk_gf against the powers of the dense weighted adjacency, built
    from d.weight, on seeded weighted trees with 0-3 chords (as many
    independent cycles)."""
    rng = random.Random(23)
    cycles = set()
    for _ in range(40):
        n = rng.randint(1, 12)
        tree = random_tree(rng, n, (-2, -1, 1, 2, 3))
        edges = {(i, j): w for i, j, w in tree.edges()}
        chords = min(rng.randint(0, 3), (n - 1) * (n - 2) // 2)
        while len(edges) < n - 1 + chords:
            edges.setdefault(tuple(sorted(rng.sample(range(n), 2))),
                             rng.choice((-1, 1, 2)))
        d = Diagram(n, edges)
        cycles.add(chords)
        a = [[d.weight(i, j) for j in range(n)] for i in range(n)]
        k_max = rng.randint(0, 20)
        powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
        for _ in range(k_max):
            powers.append([[sum(x * a[t][j] for t, x in enumerate(row))
                            for j in range(n)] for row in powers[-1]])
        for i in range(n):
            for j in range(n):
                assert walk_gf(d, i, j, k_max) == [m[i][j] for m in powers]
    assert cycles == {0, 1, 2, 3}


def test_walk_expansion_order_20():
    for fam, n in [("affE", 6), ("affA", 2)]:
        d = build(fam, n)
        g = char_poly(d)
        table = cofactors(d)
        for i in range(d.n):
            for j in range(d.n):
                res = walk_expansion_residual(g, table[i, j],
                                              walk_gf(d, i, j, 20))
                assert res.is_zero or res.degree < g.degree


def test_walk_expansion_catches_wrong_counts():
    d = build("A", 2)
    g = char_poly(d)
    h = cofactors(d)[0, 0]
    walks = walk_gf(d, 0, 0, 6)
    walks[4] += 1
    res = walk_expansion_residual(g, h, walks)
    assert not (res.is_zero or res.degree < g.degree)


# -- two-by-two minor identity -------------------------------------------------

def test_identity7_a2():
    assert identity7_check(build("A", 2), 0, 1).is_zero


def test_identity7_trees_and_disconnected():
    rng = random.Random(9)
    for _ in range(15):
        d = random_tree(rng, rng.randint(2, 8), (1, 2))
        i = rng.randrange(d.n)
        j = (i + 1 + rng.randrange(d.n - 1)) % d.n
        assert identity7_check(d, i, j).is_zero
    pair = disjoint_union(build("A", 1), build("A", 1))
    assert identity7_check(pair, 0, 1).is_zero


def test_vertex_arguments_outside_the_diagram_raise_unknown_vertex():
    a4 = build("A", 4)
    for i, j in [(0, 9), (4, 0), (-1, 2), (2, -1)]:
        with pytest.raises(UnknownVertex):
            cofactor_entry(a4, i, j)
        with pytest.raises(UnknownVertex):
            identity7_check(a4, i, j)
        with pytest.raises(UnknownVertex):
            path_sum_H(a4, i, j)
        with pytest.raises(UnknownVertex):
            walk_gf(a4, i, j, 3)
    for pivot in (4, -1):
        with pytest.raises(UnknownVertex):
            schur_step(a4, pivot)
    with pytest.raises(UnknownVertex):
        identity7_check(a4, 2, 2)


def test_cofactor_table_rejects_indices_outside_the_diagram():
    a4 = build("A", 4)
    table = cofactors(a4)
    # a negative index must not wrap around to another entry
    for i, j in [(-1, 0), (0, -1), (4, 0), (0, 4), (-5, 2), (9, 9)]:
        with pytest.raises(UnknownVertex):
            table[i, j]
    assert [table[i, 0] for i in range(4)] == [
        cofactor_entry(a4, i, 0) for i in range(4)]


# -- divide block matrix --------------------------------------------------------

def _divide_holds(rep) -> bool:
    # residual[0] is the closed form, residual[1] the Schur factorization
    closed, schur = rep.residual
    return rep.holds and closed.is_zero and schur.is_zero


def test_divide_smallest_instance():
    rep = divide_identity([[2]], [[1]], [[1]])
    assert _divide_holds(rep) and rep.name == "divide-p1-r1-s1"


def test_divide_empty_blocks():
    rep = divide_identity([], [], [])
    assert _divide_holds(rep)


def test_divide_empty_middle_block():
    rep = divide_identity([[]], [], [[0]])
    assert _divide_holds(rep) and rep.name == "divide-p1-r0-s1"
    rep = divide_identity([[], []], [], [[0, 0, 0], [0, 0, 0]])
    assert _divide_holds(rep) and rep.name == "divide-p2-r0-s3"


def test_divide_empty_c_is_the_zero_block():
    # an empty C stands for the p x s zero block, as an empty AB does
    for a, b in (([[0]], [[0]]), ([[1]], [[0]])):
        rep = divide_identity(a, b, [])
        assert rep == divide_identity(a, b, [[0]])
        assert _divide_holds(rep)


def test_divide_randomized_including_rectangular():
    rng = random.Random(20)
    for _ in range(10):
        p, r, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(0, 2) for _ in range(r)] for _ in range(p)]
        bp = [[rng.randint(0, 2) for _ in range(s)] for _ in range(r)]
        b = [[2 * x for x in row] for row in bp]
        c = [[sum(a[i][t] * bp[t][j] for t in range(r)) for j in range(s)]
             for i in range(p)]
        rep = divide_identity(a, b, c)
        assert _divide_holds(rep)


def test_divide_counts_the_residual_of_a_wrong_input(monkeypatch):
    # det(big) off by one: the closed form is off by z dd(q + 1/q), with
    # dd = (z^2 - 4)(z^2 - 1), and the Schur factorization never reads it
    real = coxeter.det_poly
    monkeypatch.setattr(coxeter, "det_poly",
                        lambda mat: real(mat) + Poly.one())
    rep = divide_identity([[2]], [[1]], [[1]])
    closed, schur = rep.residual
    assert closed == -Laurent({5: 1, 1: -1, -1: -1, -5: 1}) and schur.is_zero
    assert not rep.holds and rep.residual_terms == 4 == sum(
        map(nonzero_terms, rep.residual))


def test_divide_sees_a_closed_form_residual_that_vanishes_at_2_to_the_64(
        monkeypatch):
    # det(big) off by P(z) = Y z - (Y^2 + 1), Y = 2^64: the closed form is
    # off by -z P(q + 1/q) dd(q + 1/q), where P(q + 1/q) = (q - Y)(Y q - 1)/q
    # vanishes at q = Y, the packing of a 64-bit frame; the l1 bound of the
    # side that reads det(big) is above Y^2, so the verdict's frame is wider
    y = 1 << 64
    fault = Poly((-(y * y + 1), y))
    real = coxeter.det_poly
    monkeypatch.setattr(coxeter, "det_poly", lambda mat: real(mat) + fault)
    rep = divide_identity([[2]], [[1]], [[1]])
    closed, schur = rep.residual
    assert sum(c * Fraction(y) ** k for k, c in closed.items()) == 0
    assert closed == -Laurent({5: 1, 1: -1, -1: -1, -5: 1}) * z_substitute(
        fault)
    assert schur.is_zero and not rep.holds


def test_divide_sees_a_schur_residual_that_vanishes_at_2_to_the_64(
        monkeypatch):
    # det(inner), the determinant of the 2 x 2 Schur complement, off by
    # q - Y, Y = 2^64: the factorization is off by -z (q - Y), which
    # vanishes at q = Y; the l1 bound of the side that reads det(inner) is
    # above Y, so the verdict's frame is wider
    y = 1 << 64
    fault = Laurent({1: 1, 0: -y})
    real = coxeter.det_exact
    monkeypatch.setattr(coxeter, "det_exact", lambda mat: (
        real(mat) + fault if len(mat) == 2 else real(mat)))
    rep = divide_identity([[2]], [[1]], [[1]])
    closed, schur = rep.residual
    assert schur == -Laurent.z() * fault
    assert closed.is_zero and not rep.holds


def test_divide_refuses_more_than_max_vertices_before_any_matrix(
        monkeypatch):
    # an input past the Diagram cap has a half past the cofactor cap,
    # which refuses it first, before any matrix is built
    def never(*args):
        raise AssertionError("a matrix was built")

    for name in ("mat_mul", "coxeter_matrix", "det_exact", "det_poly",
                 "_faddeev_leverrier"):
        monkeypatch.setattr(coxeter, name, never)
    cap = MAX_VERTICES
    for a, b, c in (([[]] * (cap + 1), [], []),
                    ([[0]], [[0] * cap], [[0] * cap])):
        with pytest.raises(DomainError) as err:
            divide_identity(a, b, c)
        assert f"limit {coxeter.MAX_COFACTOR_VERTICES}" in str(err.value)


def test_divide_refuses_a_half_above_the_cofactor_cap_before_any_matrix(
        monkeypatch):
    # a half of p + r or r + s vertices takes one cofactor table of its
    # own; with r = 1, a half one past the cap is refused before any call,
    # and a half at the cap reaches the first product, A B
    calls = []

    def logged(name):
        def never(*args):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return never

    for name in ("mat_mul", "coxeter_matrix", "det_exact", "det_poly",
                 "_faddeev_leverrier"):
        monkeypatch.setattr(coxeter, name, logged(name))
    cap = coxeter.MAX_COFACTOR_VERTICES

    def blocks(p, s):
        return [[0]] * p, [[0] * s], [[0] * s] * p

    for p, s in ((cap, 1), (1, cap), (cap, cap)):
        with pytest.raises(DomainError) as err:
            divide_identity(*blocks(p, s))
        assert f"limit {cap}" in str(err.value)
    assert calls == []
    for p, s in ((cap - 1, 1), (1, cap - 1)):
        with pytest.raises(AssertionError):
            divide_identity(*blocks(p, s))
    assert calls == ["mat_mul", "mat_mul"]


@pytest.mark.parametrize("blocks", [
    ([[2.5]], [[1]], [[1]]),
    ([[Fraction(5, 2)]], [[1]], [[1]]),
    ([[2]], [["3"]], [[3]]),
])
def test_divide_refuses_an_entry_that_is_not_an_int(monkeypatch, blocks):
    # int() would read each as a block that holds (2, 2 and 3)
    def never(*args):
        raise AssertionError("a matrix was built")

    for name in ("mat_mul", "coxeter_matrix", "det_exact", "det_poly"):
        monkeypatch.setattr(coxeter, name, never)
    with pytest.raises(DomainError) as err:
        divide_identity(*blocks)
    assert err.type is DomainError


def test_divide_preconditions():
    with pytest.raises(PreconditionABneq2C):
        divide_identity([[1]], [[1]], [[1]])
    with pytest.raises(SizeMismatch):
        divide_identity([[1, 0]], [[2]], [[1]])


def test_schur_step_computes_each_cross_pair_once(monkeypatch):
    # below the gate (a wheel pivoted on its hub leaves a 6-cycle) and above
    # it (K7 leaves K6): one cross minor per unordered pair of neighbors,
    # the other order taken as its bar
    wheel = Diagram(7, [((0, v), 1 + v % 2) for v in range(1, 7)]
                    + [((v, v % 6 + 1), 1) for v in range(1, 7)])
    k7 = Diagram(7, [((i, j), 1 + (i + j) % 3)
                     for i in range(7) for j in range(i + 1, 7)])
    for d, dense in ((wheel, False), (k7, True)):
        rest = d.delete([0])
        assert (len(_cyclomatic(rest.n, rest.edges()))
                > coxeter._EXPAND_MAX) == dense
        # a warm memo keeps out the cross minors of the edge step that
        # coxeter_poly takes on the 6-cycle
        schur_step(d, 0)
        real, calls = coxeter._cross_minor, []

        def logged(*args, real=real, calls=calls):
            calls.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(coxeter, "_cross_minor", logged)
        coxeter._schur_step.cache_clear()
        st_ = schur_step(d, 0)
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == 6 * 5 // 2
        assert list(st_.crosses) == _oracle_crosses(d, 0, det_exact)
        by_pair = {pair: p for pair, _, p in st_.crosses}
        assert all(by_pair[j, i] == p.bar() for (i, j), p in by_pair.items())


def test_divide_blocks_equal_the_full_tables_block(monkeypatch):
    # `verify divide` at seeds 42 and 7 makes one full-table pass per
    # half, two per case, and no other pass; every half is bipartite
    import contextlib
    import io

    from coxkit import cli

    real = coxeter._faddeev_leverrier
    passes = []  # the table flag of each pass

    def logged(d, table=False):
        assert two_coloring(d)[1] is None
        passes.append(table)
        return real(d, table)

    monkeypatch.setattr(coxeter, "_faddeev_leverrier", logged)
    for seed in ("42", "7"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "divide", "--seed", seed]) == 0
    assert passes == [True] * 88
