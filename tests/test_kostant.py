"""Klein-group Poincare series: tables, systems, ratios, closed forms."""

import dataclasses
import random
import re

import pytest

from coxkit import kostant
from coxkit.algebra import Laurent, Poly, RatFunc, z_substitute
from coxkit.cfrac import evaluate, expand_cycle, expand_tree
from coxkit.coxeter import CofactorTable, char_poly, coxeter_poly
from coxkit.diagram import build
from coxkit.errors import BadRank, BadType, UnknownVertex
from coxkit.kostant import (a2m_closed_form, a2m_recurrence, cramer_z_table,
                            ebeling_ratios, klein_data, klein_types,
                            perfect_square_check, poincare_series,
                            prop2_squares, verify_system, walk_series_check)
from coxkit.report import nonzero_terms


def test_e6_data():
    data = klein_data("affE", 6)
    assert (data.a, data.b) == (6, 8)
    assert data.z_table[0] == Laurent({0: 1, 12: 1})
    assert data.h == 12 and data.order_b == 24


def test_e8_data():
    data = klein_data("affE", 8)
    assert data.z_table[0] == Laurent({0: 1, 30: 1})
    assert data.order_b == 120
    assert (data.a, data.b) == (12, 20)


def test_e7_data():
    data = klein_data("affE", 7)
    assert (data.a, data.b) == (8, 12) and data.order_b == 48


def test_cycle_numerators():
    data = klein_data("affA", 3)
    assert data.z_table[1] == Laurent({1: 1, 3: 1})
    assert data.z_table[0] == Laurent({0: 1, 4: 1})


def test_d_family_exponents():
    for n in (4, 7, 12):
        data = klein_data("affD", n)
        assert (data.a, data.b) == (4, 2 * n - 4)
        assert data.order_b == 4 * (n - 2)


def test_bad_type():
    # a rank outside its family is a rank fault, with build's message
    for n in (5, 9):
        with pytest.raises(BadRank) as built:
            build("affE", n)
        with pytest.raises(BadRank, match=re.escape(str(built.value))):
            klein_data("affE", n)
    with pytest.raises(BadRank):
        klein_data("affA", 0)
    # an unknown family, or one with no Klein group, is a type fault
    for family in ("affB", "E"):
        with pytest.raises(BadType):
            klein_data(family, 6)


def test_arithmetic_invariants_all_types():
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        assert data.a + data.b == data.h + 2
        assert data.a * data.b == 2 * data.order_b
        for z in data.z_table:
            assert z.min_exp >= 0 and z.max_exp <= data.h
            assert all(c > 0 for _, c in z.items())
        assert data.z_table[0] == Laurent({0: 1, data.h: 1})
        one = Laurent.one()
        assert data.z_minus1 == Laurent.q(-1) * (one - Laurent.q(data.a)) \
            * (one - Laurent.q(data.b))


# -- series expansion -----------------------------------------------------------

def test_series_e8_invariants():
    data = klein_data("affE", 8)
    # series-division oracle: (1+q^30)/((1-q^12)(1-q^20)) through q^30
    assert poincare_series(data, 0, 30) == \
        Laurent({0: 1, 12: 1, 20: 1, 24: 1, 30: 1})


def test_series_virtual_vertex_is_inverse_q():
    for fam, n in [("affA", 5), ("affD", 6), ("affE", 7)]:
        data = klein_data(fam, n)
        assert poincare_series(data, -1, 40) == Laurent.q(-1)


def test_series_constant_term():
    for fam, n in [("affA", 2), ("affD", 4), ("affE", 6)]:
        data = klein_data(fam, n)
        assert poincare_series(data, 0, 0) == Laurent.one()
        assert 0 not in poincare_series(data, 1, 0).support


def test_series_positivity_to_200():
    data = klein_data("affE", 8)
    for i in range(data.vertex_count):
        series = poincare_series(data, i, 200)
        assert all(c >= 0 for _, c in series.items())


def test_series_matches_rational_function():
    data = klein_data("affD", 5)
    for i in range(data.vertex_count):
        series = poincare_series(data, i, 60)
        # multiply back and compare through the truncation order
        prod = series * data.denominator()
        diff = prod - data.z_table[i]
        assert diff.is_zero or diff.min_exp > 60 - data.h


def _long_division(num, a, b, terms):
    """Coefficients of num / ((1 - q^a)(1 - q^b)) through q^terms, by
    integer long division against the expanded denominator."""
    den = {}
    for k, v in ((0, 1), (a, -1), (b, -1), (a + b, 1)):
        den[k] = den.get(k, 0) + v
    lo = min(0, num.min_exp)
    coeffs = dict(num.items())
    out = {}
    for m in range(lo, terms + 1):
        c = coeffs.get(m, 0) - sum(v * out.get(m - k, 0)
                               for k, v in den.items() if k)
        if c:
            out[m] = c
    return Laurent(out)


def test_series_matches_long_division():
    for fam, n in klein_types(16):
        data = klein_data(fam, n)
        for i in range(-1, data.vertex_count):
            num = data.z_minus1 if i == -1 else data.z_table[i]
            for terms in sorted({0, 1, data.a - 1, data.a, data.h, 400}):
                assert poincare_series(data, i, terms) == \
                    _long_division(num, data.a, data.b, terms)


def test_series_index_range():
    data = klein_data("affA", 2)
    with pytest.raises(UnknownVertex):
        poincare_series(data, 5, 10)


# -- linear systems ---------------------------------------------------------------

def test_system_15_triangle():
    assert verify_system(klein_data("affA", 2), 15).holds


def test_system_14_e6():
    assert verify_system(klein_data("affE", 6), 14).holds


def test_system_16_any_tree():
    assert verify_system(klein_data("affD", 7), 16).holds


def test_all_systems_all_types():
    for fam, n in klein_types(8):
        data = klein_data(fam, n)
        for which in (14, 15, 16):
            assert verify_system(data, which).holds, (fam, n, which)


def test_every_system_counts_the_residual_of_a_wrong_input(monkeypatch):
    # each residual is the tuple of its rows: a wrong entry at vertex 1
    # shows in row 1 and in the rows of its neighbors 0 and 2, three terms
    # each, except row 1 of system 15, where z = q + 1/q doubles them
    # (system 14 reduces that row's numerator against 1 - q^8, and system
    # 16 is a polynomial in z)
    data = klein_data("affE", 6)
    wrong = dataclasses.replace(
        data, z_table=(data.z_table[0],
                       data.z_table[1] + Laurent({3: 1, 7: -2, 13: 5}))
        + data.z_table[2:])
    for which, rows in ((14, [3, 3, 3, 0, 0, 0, 0]),
                        (15, [3, 6, 3, 0, 0, 0, 0])):
        rep = verify_system(wrong, which)
        assert [nonzero_terms(row) for row in rep.residual] == rows, which
        assert not rep.holds and rep.residual_terms == sum(rows), which
    table = kostant.cofactors(data.diagram())
    rows = [list(row) for row in table.entries]
    rows[1][0] = rows[1][0] + Poly((0, 1, 0, -2, 0, 0, 5))
    monkeypatch.setattr(kostant, "cofactors",
                        lambda d: CofactorTable(tuple(map(tuple, rows))))
    rep = verify_system(data, 16)
    assert [nonzero_terms(row) for row in rep.residual] == [3, 3, 3, 0, 0, 0, 0]
    assert not rep.holds and rep.residual_terms == 9


def _system_14_stepwise(data):
    """Oracle: system 14 summed term by term over the reduced series
    P_i = Z_i / D, each + and - reducing by a GCD, as it was first written.
    Returns the numerator of each row."""
    d = data.diagram()
    den = data.denominator()
    p = [RatFunc(z, den) for z in data.z_table]
    head = RatFunc(Laurent.z(), Laurent.one())
    rows = []
    for j in range(d.n):
        acc = head * p[j]
        for i in d.neighbors(j):
            acc = acc - d.weight(i, j) * p[i]
        if j == 0:
            acc = acc - RatFunc(data.z_minus1, den)
        rows.append(acc.num)
    return rows


def _perturbed(rng, data, vertices):
    """The data with a few seeded terms added to Z_v for each v listed,
    v = -1 standing for the virtual numerator."""
    def bump(z):
        return z + Laurent({rng.randint(-2, data.h + 2):
                            rng.choice((-2, -1, 1, 3))
                            for _ in range(rng.randint(1, 3))})

    zt = list(data.z_table)
    zm1 = data.z_minus1
    for v in vertices:
        if v == -1:
            zm1 = bump(zm1)
        else:
            zt[v] = bump(zt[v])
    return dataclasses.replace(data, z_table=tuple(zt), z_minus1=zm1)


def test_system_14_matches_the_stepwise_sum_on_perturbed_tables():
    # every row is the row of system 15 over the shared denominator,
    # reduced once; the term-by-term sum of reduced series must agree on
    # every row, failing ones included
    rng = random.Random(14)
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        picks = [[], [0], [-1], [0, rng.randrange(data.vertex_count)],
                 rng.sample(range(data.vertex_count), 2)]
        for vertices in picks:
            case = _perturbed(rng, data, vertices)
            rep = verify_system(case, 14)
            assert list(rep.residual) == _system_14_stepwise(case), (
                fam, n, vertices)
            assert rep.holds == (not vertices), (fam, n, vertices)


def test_cramer_recompute_matches_tables():
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        rec = cramer_z_table(data)
        assert list(data.z_table) == rec, (fam, n)


# -- ratio formulas ----------------------------------------------------------------

def test_ebeling_e8_all_vertices():
    assert all(r.holds for r in ebeling_ratios(klein_data("affE", 8)))


def test_ebeling_odd_cycle_uses_char_poly():
    data = klein_data("affA", 4)
    assert all(r.holds for r in ebeling_ratios(data))
    # the anchor genuinely differs from the Coxeter polynomial here
    d = data.diagram()
    assert z_substitute(char_poly(d)) != coxeter_poly(d)


def test_ebeling_all_types():
    for fam, n in klein_types(12):
        assert all(r.holds for r in ebeling_ratios(klein_data(fam, n))), \
            (fam, n)


# -- odd-cycle closed form ------------------------------------------------------------

def test_a2m_m0():
    rep = a2m_closed_form(0)
    assert rep.holds
    # q (z - 2) at z = q + 1/q is (q-1)^2
    assert Laurent.q(1) * z_substitute(a2m_recurrence(0)) == \
        (Laurent.q(1) - Laurent.one()) ** 2


def test_a2m_m1_triangle():
    rep = a2m_closed_form(1)
    assert rep.holds
    assert a2m_recurrence(1) == char_poly(build("affA", 2))
    want = (Laurent.q(3) - Laurent.one()) ** 2
    assert Laurent.q(1) * z_substitute(char_poly(build("affA", 2))) == \
        want.shifted(-2)


def test_a2m_sweep():
    for m in range(9):
        assert a2m_closed_form(m).holds


def test_a2m_counts_the_residual_of_a_wrong_input(monkeypatch):
    # a wrong direct polynomial for m = 2 (3z^2 too much) shows once in
    # the recurrence's residual and as q * 3(q^2 + 2 + q^-2) in the
    # substituted one; the recurrence itself reads m = 0 and 1 only
    real = kostant._odd_cycle_char
    monkeypatch.setattr(kostant, "_odd_cycle_char", lambda m: real(m) + (
        Poly((0, 0, 3)) if m == 2 else Poly.zero()))
    rep = a2m_closed_form(2)
    assert rep.residual == (Poly((0, 0, -3)), Laurent({3: 3, 1: 6, -1: 3}))
    assert not rep.holds and rep.residual_terms == 1 + 3 == sum(
        map(nonzero_terms, rep.residual))


# -- squares and walks ----------------------------------------------------------------

def test_prop2_squares_examples():
    assert prop2_squares(klein_data("affE", 6), 2).holds  # branch vertex
    data = klein_data("affD", 4)
    for leaf in (1, 3, 4):
        assert prop2_squares(data, leaf).holds
    data = klein_data("affA", 3)
    for i in (1, 2, 3):
        assert prop2_squares(data, i).holds


def test_prop2_squares_all_small_types():
    for fam, n in [("affA", 1), ("affA", 2), ("affA", 5), ("affD", 5),
                   ("affE", 7), ("affE", 8)]:
        data = klein_data(fam, n)
        for i in range(1, data.vertex_count):
            assert prop2_squares(data, i).holds, (fam, n, i)


def test_walk_series_trivial_start():
    data = klein_data("affE", 6)
    from coxkit.coxeter import walk_gf
    assert walk_gf(data.diagram(), 0, 0, 0) == [1]


def test_walk_series_examples():
    data = klein_data("affE", 6)
    for i in range(data.vertex_count):
        assert walk_series_check(data, i, 20).holds
    data = klein_data("affA", 2)
    assert walk_series_check(data, 1, 10).holds


def test_perfect_squares():
    assert perfect_square_check(klein_data("affE", 6)).lhs == 2
    assert perfect_square_check(klein_data("affE", 8)).lhs == 8
    assert perfect_square_check(klein_data("affA", 1)).lhs == 0
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        assert perfect_square_check(data).lhs == abs(data.a - data.b)


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_group_order_fails_the_square_check(shift):
    # on ~A3, (h+2)^2 - 8|B| is 36 - 32 = 4; |B| - 1 makes it 12 and
    # |B| + 1 makes it -4, neither a square
    data = klein_data("affA", 3)
    wrong = dataclasses.replace(data, order_b=data.order_b + shift)
    report = perfect_square_check(wrong)
    assert not report.holds and report.residual_terms == 1
    assert (report.lhs, report.rhs) == (None, 2)


def test_a_bad_vertex_is_an_unknown_vertex():
    data = klein_data("affD", 4)
    for bad in (-1, data.vertex_count):
        with pytest.raises(UnknownVertex, match=f"no vertex {bad}"):
            walk_series_check(data, bad, 5)
    for bad in (0, data.vertex_count):
        with pytest.raises(UnknownVertex, match="vertex must be 1..n"):
            prop2_squares(data, bad)


def test_numerator_reads_the_virtual_vertex_too():
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        assert data.numerator(-1) == data.z_minus1
        assert tuple(map(data.numerator, range(data.vertex_count))) == (
            data.z_table)
        # Z_{-1} over the denominator reduces to P_{-1} = 1/q
        virtual = RatFunc(data.numerator(-1), data.denominator())
        assert virtual == RatFunc(Laurent.q(-1), Laurent.one())
        assert (virtual.num, virtual.den) == (Laurent.q(-1), Laurent.one())
        for bad in (-2, data.vertex_count):
            with pytest.raises(UnknownVertex):
                data.numerator(bad)


# -- cross-module: fractions equal scaled series -----------------------------------------

def test_fraction_equals_q_times_p0():
    for fam, n in [("affD", 4), ("affD", 6), ("affE", 6), ("affE", 8)]:
        data = klein_data(fam, n)
        val = evaluate(expand_tree(data.diagram(), 0))
        lhs = z_substitute(val.num) * data.denominator()
        rhs = Laurent.q(1) * data.z_table[0] * z_substitute(val.den)
        assert lhs == rhs
    for n in (2, 3, 7, 8):
        data = klein_data("affA", n)
        val = evaluate(expand_cycle(n))
        lhs = z_substitute(val.num) * data.denominator()
        rhs = Laurent.q(1) * data.z_table[0] * z_substitute(val.den)
        assert lhs == rhs


def test_subfractions_are_series_ratios():
    # the fraction hanging below vertex i inside the full expansion equals
    # P_i / P_parent(i): rebuild it as the expansion of i's branch
    for fam, n in [("affD", 5), ("affE", 6), ("affE", 7)]:
        data = klein_data(fam, n)
        d = data.diagram()
        parent = {0: None}
        queue = [0]
        while queue:
            v = queue.pop(0)
            for u in d.neighbors(v):
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        for i in range(1, d.n):
            cut = d.delete([parent[i]])
            # delete keeps the order of the vertices that remain
            at = i - (i > parent[i])
            comp = next(c for c in cut.components() if at in c)
            keep = set(comp)
            sub = cut.delete([v for v in range(cut.n) if v not in keep])
            root = comp.index(at)
            val = evaluate(expand_tree(sub, root))
            # value = P_i / P_parent = Z_i / Z_parent
            lhs = z_substitute(val.den) * data.z_table[i]
            rhs = z_substitute(val.num) * data.z_table[parent[i]]
            assert lhs == rhs, (fam, n, i)


def test_vertex_count_is_the_diagram_size():
    types = klein_types(24)
    assert len(types) == 48
    for fam, n in types:
        data = klein_data(fam, n)
        assert data.vertex_count == data.diagram().n, (fam, n)
