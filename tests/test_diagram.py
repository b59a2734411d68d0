"""Diagram builders, deletion, joins and the two-block order."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import coxeter
from coxkit.cfrac import expand_tree
from coxkit.diagram import (MAX_VERTICES, Diagram, OddCycle, SeifertMatrix,
                            bipartite_order, build, from_name, from_text, join,
                            parse_name, random_tree)
from coxkit.errors import BadRank, DomainError, UnknownVertex
from oracles import disjoint_union, to_text


def test_build_a1_single_vertex():
    d = build("A", 1)
    assert d.n == 1 and d.edges() == ()


def test_build_affine_a2_is_triangle():
    d = build("affA", 2)
    assert d.n == 3
    assert d.edges() == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_build_bad_rank():
    with pytest.raises(BadRank):
        build("E", 9)
    with pytest.raises(BadRank):
        build("D", 3)
    with pytest.raises(BadRank):
        build("affA", 0)


def test_affine_a1_weight_two_edge():
    d = build("affA", 1)
    assert d.n == 2 and d.weight(0, 1) == 2


def test_families_have_unit_weights_and_right_sizes():
    for fam, n, size in [("A", 5, 5), ("D", 6, 6), ("E", 7, 7),
                         ("affA", 4, 5), ("affD", 5, 6), ("affE", 8, 9)]:
        d = build(fam, n)
        assert d.n == size
        if (fam, n) != ("affA", 1):
            assert all(w == 1 for (_, _, w) in d.edges())


def _scan_neighbors(d: Diagram, i: int) -> tuple[int, ...]:
    """Brute force: every edge scanned for an end at i."""
    return tuple(sorted([b for a, b, _ in d.edges() if a == i]
                        + [a for a, b, _ in d.edges() if b == i]))


def _scan_components(d: Diagram) -> list[tuple[int, ...]]:
    """Brute force: merge edge ends until nothing changes."""
    comp = list(range(d.n))
    changed = True
    while changed:
        changed = False
        for a, b, _ in d.edges():
            lo = min(comp[a], comp[b])
            if comp[a] != lo or comp[b] != lo:
                comp[a] = comp[b] = lo
                changed = True
    return sorted(tuple(v for v in range(d.n) if comp[v] == c)
                  for c in set(comp))


def test_neighbors_match_an_edge_scan_on_random_graphs():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(0, 14)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        d = Diagram(n, {p: rng.choice((-2, 1, 3)) for p in chosen},
                    order=rng.sample(range(n), n))
        for i in range(-1, n + 1):
            assert d.neighbors(i) == _scan_neighbors(d, i), (d, i)
            assert len(d.neighbors(i)) == len(_scan_neighbors(d, i))
        assert d.components() == _scan_components(d)
        assert d.is_tree() == (n == 0 or (len(d.edges()) == n - 1
                                          and len(_scan_components(d)) == 1))
        # the lists are built on demand and change neither equality nor hash
        fresh = Diagram(n, {(i, j): w for i, j, w in d.edges()}, order=d.order)
        assert fresh == d and hash(fresh) == hash(d)


def test_tour_is_breadth_first_with_neighbors_ascending():
    # a tree on 0..4, the isolated vertex 5 and a triangle on 6..8
    d = Diagram(9, {(0, 3): 1, (0, 1): 2, (1, 4): -1, (2, 3): 1,
                    (6, 7): 1, (7, 8): 1, (6, 8): 1})
    assert d.tour(0) == ([0, 1, 3, 4, 2], {0: -1, 1: 0, 3: 0, 4: 1, 2: 3})
    assert d.tour(2) == ([2, 3, 0, 1, 4], {2: -1, 3: 2, 0: 3, 1: 0, 4: 1})
    assert d.tour(5) == ([5], {5: -1})
    assert d.tour(7) == ([7, 6, 8], {7: -1, 6: 7, 8: 7})
    for bad in (-1, 9):
        with pytest.raises(UnknownVertex):
            d.tour(bad)


def test_each_component_is_toured_once(monkeypatch):
    calls = []
    real = Diagram.tour

    def counted(self, root):
        calls.append(root)
        return real(self, root)

    monkeypatch.setattr(Diagram, "tour", counted)
    rng = random.Random(17)
    forest = Diagram(0)
    for n in (1, 5, 8):
        forest = disjoint_union(forest, random_tree(rng, n, (1, 2)))
    coxeter._char_poly.cache_clear()
    coxeter._cofactors.cache_clear()
    for run in (lambda: coxeter.char_poly(forest),
                lambda: coxeter.cofactors(forest),
                lambda: bipartite_order(forest), forest.components):
        calls.clear()
        run()
        assert calls == [0, 1, 6], run
    tree = random_tree(rng, 9, (1, 2))
    calls.clear()
    expand_tree(tree, 4)
    assert calls == [4]


def test_bipartite_order_and_components_are_pinned():
    # one digest over seeded random graphs of the two-block order or the
    # OddCycle witness, and of the components
    rng = random.Random(1011)
    digest = hashlib.sha256()
    for _ in range(1000):
        n = rng.randint(0, 12)
        p = rng.random() * 0.4
        d = Diagram(n, {(i, j): rng.choice((-1, 1, 2))
                        for i in range(n) for j in range(i + 1, n)
                        if rng.random() < p})
        digest.update(repr((bipartite_order(d), d.components())).encode())
    assert digest.hexdigest() == (
        "dddc858c117cd116487524536b0a4789584315384791100bffd97289239aca55")


def test_is_tree_and_neighbors_of_a_1000_vertex_path():
    d = build("A", 1000)
    assert d.is_tree() and len(d.components()) == 1
    assert d.neighbors(0) == (1,) and d.neighbors(500) == (499, 501)


def test_delete_middle_of_path():
    d = build("A", 3).delete([1])
    assert d.n == 2 and d.edges() == ()


def test_delete_affine_vertex_gives_euclidean():
    for fam, n in [("affE", 6), ("affE", 7), ("affE", 8), ("affD", 5)]:
        d = build(fam, n).delete([0])
        e = build(fam.replace("aff", ""), n)
        assert sorted(len(d.neighbors(v)) for v in range(d.n)) == \
            sorted(len(e.neighbors(v)) for v in range(e.n))


def test_delete_everything():
    d = build("A", 4).delete([0, 1, 2, 3])
    assert d.n == 0


def test_delete_unknown_vertex():
    with pytest.raises(UnknownVertex):
        build("A", 2).delete([5])


def test_join_of_three_a1_is_star():
    d = join([(build("A", 1), 0)] * 3)
    assert d.n == 4
    degs = sorted(len(d.neighbors(v)) for v in range(4))
    assert degs == [1, 1, 1, 3]
    e = build("D", 4)
    assert sorted(len(e.neighbors(v)) for v in range(4)) == degs


def test_join_path_extension():
    d = join([(build("A", 3), 2)])
    degs = sorted(len(d.neighbors(v)) for v in range(4))
    e = build("A", 4)
    assert degs == sorted(len(e.neighbors(v)) for v in range(4))


def test_join_then_delete_center_restores_parts():
    parts = [(build("A", 2), 0), (build("A", 3), 1)]
    d = join(parts)
    back = d.delete([0])
    want = disjoint_union(parts[0][0], parts[1][0])
    assert back.edges() == want.edges() and back.n == want.n


def test_join_marked_vertex_range():
    with pytest.raises(UnknownVertex):
        join([(build("A", 2), 7)])


def _has_two_block_cut(d, split) -> bool:
    for cut in range(d.n + 1):
        left = set(split[:cut])
        if all((i in left) != (j in left) for (i, j, _) in d.edges()):
            return True
    return not d.edges()


def test_bipartite_trees_always_succeed():
    rng = random.Random(5)
    for _ in range(60):
        d = random_tree(rng, rng.randint(1, 10), (1, 2))
        split = bipartite_order(d)
        assert not isinstance(split, OddCycle)
        assert sorted(split) == list(range(d.n))
        assert _has_two_block_cut(d, split)


def test_bipartite_blocks_have_no_internal_edges():
    for fam, n in [("A", 6), ("D", 7), ("affE", 6), ("affA", 3), ("affA", 5)]:
        d = build(fam, n)
        split = bipartite_order(d)
        assert not isinstance(split, OddCycle)
        assert _has_two_block_cut(d, split)


def test_bipartite_odd_cycle_witness():
    out = bipartite_order(build("affA", 4))
    assert isinstance(out, OddCycle)
    cyc = out.cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3
    d = build("affA", 4)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert d.weight(a, b) != 0


def test_bipartite_even_cycle_ok():
    assert not isinstance(bipartite_order(build("affA", 3)), OddCycle)


def test_weight_symmetry_and_no_loops():
    d = build("affD", 6)
    for i in range(d.n):
        assert d.weight(i, i) == 0
        for j in range(d.n):
            assert d.weight(i, j) == d.weight(j, i)
    with pytest.raises(DomainError):
        Diagram(2, [((0, 0), 1)])


def test_seifert_matrix_shape():
    d = build("A", 3)
    s = SeifertMatrix.from_diagram(d)
    assert s.entries == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
    c = [[x + y for x, y in zip(row, col)]
         for row, col in zip(s.entries, zip(*s.entries))]
    assert c == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_seifert_respects_order():
    d = build("A", 3).with_order((2, 0, 1))
    s = SeifertMatrix.from_diagram(d)
    assert s.entries == ((1, 0, -1), (0, 1, -1), (0, 0, 1))


def test_parse_and_file_roundtrip():
    assert parse_name("~E7") == ("affE", 7)
    assert parse_name("A5") == ("A", 5)
    d = build("affD", 5).with_order((5, 4, 3, 2, 1, 0))
    again = from_text(to_text(d))
    assert again == d
    assert from_name("D4").edges() == build("D", 4).edges()


def test_from_text_errors():
    for text in ["1 2 1\n",  # missing header
                 "n x\n", "n\n", "n 3\n0 1 a\n",
                 "n 3\n0 1 1\norder 0 x 2\n"]:
        with pytest.raises(DomainError):
            from_text(text)


@pytest.mark.parametrize("text", [
    "n 1_0\n", "n +3\n", "n \uff13\n", "n 3\n0 1 1_0\n", "n 3\n0 1 +1\n",
    "n 3\n0 1 --1\n", "n 3\n0 1 -\n", "n 3\norder 0 1 \u0662\n",
    "n 3\n0 1 " + "9" * 5000 + "\n",  # past int()'s digit limit
])
def test_from_text_reads_only_a_sign_and_ascii_digits(text):
    # int() reads each of these: 10 vertices, a weight of 10, a fullwidth
    # or Arabic-Indic digit
    with pytest.raises(DomainError, match="expected integers in line"):
        from_text(text)


def test_from_text_keeps_signs_and_leading_zeros():
    d = from_text("n 03\n0 1 -2\n1 2 007\norder 2 01 0\n")
    assert d.edges() == ((0, 1, -2), (1, 2, 7)) and d.order == (2, 1, 0)


@pytest.mark.parametrize("name", ["A1_0", "E 8", "~D\uff15", "A+5", "A",
                                  "D4.0", "A--1", "E\u0668", "A" + "9" * 5000])
def test_parse_name_reads_only_a_sign_and_ascii_digits(name):
    with pytest.raises(DomainError, match="cannot parse rank"):
        parse_name(name)


def test_parse_name_keeps_outer_spaces_leading_zeros_and_bad_ranks():
    assert parse_name("  ~d05 ") == ("affD", 5)
    assert parse_name("A00") == ("A", 0)
    with pytest.raises(BadRank):
        from_name("A-1")


def test_from_text_refuses_a_second_header_or_order_line():
    # the last of two such lines was once kept: `n 2` then `n 3` gave A3
    with pytest.raises(DomainError, match="second 'n' line: 'n 3'"):
        from_text("n 2\n0 1 1\nn 3\n1 2 1\n")
    with pytest.raises(DomainError, match="second 'n' line: ' n 2 # again'"):
        from_text("n 2\n n 2 # again\n")
    with pytest.raises(DomainError, match="second 'order' line: 'order 1 0'"):
        from_text("n 2\n0 1 1\norder 0 1\norder 1 0\n")
    with pytest.raises(DomainError, match="second 'order' line: 'order'"):
        from_text("n 2\norder\norder\n")
    d = from_text("# n 5\nn 2\n0 1 1 # order 0 1\norder 1 0\n")
    assert d.n == 2 and d.order == (1, 0)


def test_vertex_count_is_capped():
    assert Diagram(MAX_VERTICES).n == MAX_VERTICES
    assert build("A", MAX_VERTICES).n == MAX_VERTICES
    for make in (lambda: Diagram(MAX_VERTICES + 1),
                 lambda: from_text("n 1000000000000\n"),
                 lambda: build("A", 10 ** 12),
                 lambda: build("affD", MAX_VERTICES),
                 lambda: from_name("~A1000000000"),
                 lambda: random_tree(random.Random(0), 10 ** 12)):
        with pytest.raises(DomainError, match="vertex limit"):
            make()


def test_negative_vertex_count_is_named():
    for make in (lambda: Diagram(-1), lambda: from_text("n -1\n"),
                 lambda: random_tree(random.Random(0), -1)):
        with pytest.raises(DomainError, match="vertex count -1 is negative"):
            make()
    with pytest.raises(DomainError, match="A_n needs n >= 0"):
        build("A", -1)
    with pytest.raises(DomainError, match="affine A_n needs n >= 1"):
        from_name("~A-3")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6))
def test_random_tree_is_tree(n, seed):
    d = random_tree(random.Random(seed), n, (1, 2))
    assert d.is_tree()
    assert len(d.edges()) == n - 1
