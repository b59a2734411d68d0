"""Christoffel-Darboux suite."""

import random

import pytest

from coxkit.algebra import BiLaurent, Laurent, bezoutian
from coxkit.diagram import build, random_tree
from coxkit.errors import BadType, ShapeViolation, SizeMismatch
from coxkit.identities import (binet_cauchy, cd_char, cd_coxeter,
                               cd_wronskian, chain_identities, poincare_cd,
                               poincare_cd_antipodal_choices)
from coxkit.kostant import klein_data


# -- Coxeter-polynomial forms -------------------------------------------------

def test_cd_coxeter_a2_end():
    assert cd_coxeter(build("A", 2), 0).holds


def test_cd_coxeter_single_vertex():
    rep = cd_coxeter(build("A", 1), 0)
    assert rep.holds
    assert rep.lhs == BiLaurent({(0, 0): 1, (-1, -1): -1})


def test_cd_coxeter_random_trees():
    rng = random.Random(29)
    for _ in range(40):
        d = random_tree(rng, rng.randint(1, 8), (1, 2))
        pivot = rng.randrange(d.n)
        assert cd_coxeter(d, pivot).holds


def test_cd_coxeter_on_cycles_with_cross_terms():
    for n in (2, 3, 4, 5):
        d = build("affA", n)
        for pivot in range(d.n):
            assert cd_coxeter(d, pivot).holds


def test_cd_wronskian_single_vertex():
    rep = cd_wronskian(build("A", 1), 0)
    assert rep.holds
    assert rep.lhs == Laurent({0: 1, -2: -1})


def test_cd_wronskian_a3_middle():
    assert cd_wronskian(build("A", 3), 1).holds


def test_cd_wronskian_is_diagonal_limit():
    rng = random.Random(31)
    for _ in range(20):
        d = random_tree(rng, rng.randint(1, 7), (1, 2))
        pivot = rng.randrange(d.n)
        bez = cd_coxeter(d, pivot)
        wr = cd_wronskian(d, pivot)
        assert bez.residual.subs_y_eq_x() == wr.residual
        assert wr.holds


# -- chain bundle --------------------------------------------------------------

def test_chain_full_path():
    reps = chain_identities(build("A", 7), list(range(7)))
    assert reps and all(r.holds for r in reps)


def test_chain_single_vertex_tail_is_vacuous():
    reps = chain_identities(build("A", 4), [0])
    assert all(r.holds for r in reps)


def test_chain_affine_e8_arm():
    reps = chain_identities(build("affE", 8), [0, 1, 2, 3, 4, 5])
    assert all(r.holds for r in reps)


def test_chain_shape_violation():
    with pytest.raises(ShapeViolation):
        chain_identities(build("D", 5), [0, 2, 3])  # fork mid-tail
    with pytest.raises(ShapeViolation):
        chain_identities(build("affA", 1), [0, 1])  # weight-2 edge


def test_chain_transfer_matrix_and_ratio_content():
    reps = chain_identities(build("A", 5), [0, 1, 2, 3, 4])
    names = {r.name for r in reps}
    assert "chain-recurrence-1" in names
    assert "chain-transfer-3" in names
    assert "chain-ratio-2" in names
    assert "chain-bez-4" in names and "chain-wr-4" in names


# -- characteristic-polynomial forms --------------------------------------------

def test_cd_char_a1():
    r8, r9 = cd_char(build("A", 1), 0, 0)
    assert r8.holds and r9.holds


def test_cd_char_a2_all_pairs():
    d = build("A", 2)
    for i in range(2):
        for j in range(2):
            r8, r9 = cd_char(d, i, j)
            assert r8.holds and r9.holds


def test_cd_char_affine_e6():
    d = build("affE", 6)
    rng = random.Random(2)
    for _ in range(6):
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = cd_char(d, i, j)
        assert r8.holds and r9.holds


def test_cd_char_frozen_a2_bezoutian():
    # Bez(z^2-1, z) = xy + 1 by direct expansion
    d = build("A", 2)
    r8, _ = cd_char(d, 0, 0)
    assert r8.lhs == BiLaurent({(1, 1): 1, (0, 0): 1})


# -- Binet-Cauchy ----------------------------------------------------------------

def test_binet_cauchy_m1_reduces_to_cofactor_form():
    assert binet_cauchy(build("A", 5), 0, 1, [2], [3]).holds


def test_binet_cauchy_m2_a3():
    assert binet_cauchy(build("A", 3), 0, 2, [2, 5], [3, 7]).holds


def test_binet_cauchy_full_size_a2():
    assert binet_cauchy(build("A", 2), 0, 1, [2, 3], [5, 7]).holds


def test_binet_cauchy_m3_a5():
    assert binet_cauchy(build("A", 5), 1, 3, [1, 2, 3], [4, 5, 6]).holds


def test_binet_cauchy_size_checks():
    with pytest.raises(SizeMismatch):
        binet_cauchy(build("A", 3), 0, 1, [1, 2], [3])
    with pytest.raises(SizeMismatch):
        binet_cauchy(build("A", 2), 0, 1, [1, 2, 3], [4, 5, 6])


# -- Poincare-series forms ---------------------------------------------------------

def test_poincare_cd_leaf_of_d4():
    data = klein_data("affD", 4)
    for leaf in (3, 4):
        rb, rw = poincare_cd(data, leaf)
        assert rb.holds and rw.holds


def test_poincare_cd_full_diagram_e6():
    data = klein_data("affE", 6)
    rb, rw = poincare_cd(data, 0)
    assert rb.holds and rw.holds


def test_poincare_cd_every_vertex_tree_families():
    for fam, n in [("affD", 4), ("affD", 6), ("affE", 6), ("affE", 7)]:
        data = klein_data(fam, n)
        for i in range(data.vertex_count):
            rb, rw = poincare_cd(data, i)
            assert rb.holds and rw.holds, (fam, n, i)


def test_poincare_cd_cycle_pairs():
    data = klein_data("affA", 3)
    rb, rw = poincare_cd(data, 1, 2)
    assert rb.holds and rw.holds
    for n in range(1, 7):
        data = klein_data("affA", n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                rb, rw = poincare_cd(data, i, j)
                assert rb.holds and rw.holds, (n, i, j)


def test_poincare_cd_cycle_full_diagram():
    for n in range(1, 7):
        rb, rw = poincare_cd(klein_data("affA", n), 0)
        assert rb.holds and rw.holds


def test_poincare_cd_antipodal_both_choices():
    for n in (3, 5, 7):
        reps = poincare_cd_antipodal_choices(klein_data("affA", n))
        mid = (n + 1) // 2
        assert [r.name for r in reps] == [
            "antipodal-parents-agree",
            f"poincare-cd-antipodal-parent{mid - 1}",
            f"poincare-cd-antipodal-parent{mid + 1}",
            f"poincare-cd-affA{n}-{mid}-{mid}-bez",
            f"poincare-cd-affA{n}-{mid}-{mid}-wr"]
        assert all(r.holds for r in reps)
    with pytest.raises(BadType):
        poincare_cd_antipodal_choices(klein_data("affA", 4))


def test_poincare_cd_rejects_bad_usage():
    with pytest.raises(BadType):
        poincare_cd(klein_data("affD", 4), 1, 2)
    with pytest.raises(BadType):
        poincare_cd(klein_data("affA", 4), 2)


def test_structural_term_comes_from_algebra_module():
    # the (1 - 1/(xy)) factor is exactly Bez(z, 1)
    assert bezoutian(Laurent.z(), Laurent.one()) == \
        BiLaurent({(0, 0): 1, (-1, -1): -1})


def test_reports_on_small_diagrams_have_zero_residual():
    rng = random.Random(41)
    for _ in range(10):
        d = random_tree(rng, rng.randint(1, 8), (1, 2))
        pivot = rng.randrange(d.n)
        for rep in (cd_coxeter(d, pivot), cd_wronskian(d, pivot)):
            assert rep.holds and rep.residual_terms == 0


def _random_cyclic_graph(rng, n, extra_edges):
    from coxkit.diagram import Diagram

    d = random_tree(rng, n, (1, 2))
    edges = {(i, j): w for (i, j, w) in d.edges()}
    for _ in range(extra_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        key = (min(i, j), max(i, j))
        if i != j and key not in edges:
            edges[key] = rng.choice((1, 2))
    return Diagram(n, edges)


def test_identities_on_random_cyclic_graphs():
    # cycles force nonzero cross cofactors, exercising the sign conventions
    from coxkit.coxeter import (cofactors, identity7_check, path_sum_H,
                                schur_step)

    rng = random.Random(77)
    for _ in range(40):
        d = _random_cyclic_graph(rng, rng.randint(2, 7), rng.randint(1, 3))
        pivot = rng.randrange(d.n)
        assert schur_step(d, pivot).residual.is_zero
        assert cd_coxeter(d, pivot).holds
        assert cd_wronskian(d, pivot).holds
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = cd_char(d, i, j)
        assert r8.holds and r9.holds
        assert path_sum_H(d, i, j) == cofactors(d)[i, j]
        if i != j:
            assert identity7_check(d, i, j).is_zero
