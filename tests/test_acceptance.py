"""Acceptance suite: one test per criterion, exact identities at desk scale.

Every check is an exact polynomial identity (zero residual); each test
prints a single pass line and asserts the stated runtime budget.
"""

import random
import time
from itertools import product

from coxkit.algebra import Laurent, RatFunc, mat_eq, mat_mul, z_substitute
from coxkit.braid import (BraidWord, burau, conway_torus2, det_ratio,
                          levin_check, milnor, t_poly_to_laurent, unit_match)
from coxkit.cfrac import evaluate, expand_cycle, expand_tree, z_count
from coxkit.cfrac import Closing
from coxkit.coxeter import (char_poly, cofactors, coxeter_poly,
                            divide_identity, walk_expansion_residual, walk_gf)
from coxkit.diagram import (OddCycle, ade_types, bipartite_order, build,
                            random_tree)
from coxkit.identities import binet_cauchy, cd_char, cd_coxeter, cd_wronskian
from coxkit.identities import poincare_cd
from coxkit.kostant import (a2m_closed_form, cramer_z_table, ebeling_ratios,
                            klein_data, klein_types, perfect_square_check,
                            verify_system, walk_series_check)

SEED = 20240817


def _finish(num: int, label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] {label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_kostant_tables_and_ratios():
    start = time.perf_counter()
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        recomputed = cramer_z_table(data)
        for stored, again in zip(data.z_table, recomputed):
            assert (stored - again).is_zero, (fam, n)
        for rep in ebeling_ratios(data):
            assert rep.holds, (fam, n, rep.name)
        assert verify_system(data, 15).holds, (fam, n)
    _finish(1, "Z tables via Cramer + ratio formula, ranks <= 12",
            start, 30.0)


def test_criterion_2_exponent_arithmetic():
    start = time.perf_counter()
    for n in range(1, 13):
        data = klein_data("affA", n)
        assert (data.a, data.b) == (2, n + 1)
    for n in range(4, 13):
        data = klein_data("affD", n)
        assert (data.a, data.b) == (4, 2 * n - 4)
    assert (klein_data("affE", 6).a, klein_data("affE", 6).b) == (6, 8)
    assert (klein_data("affE", 7).a, klein_data("affE", 7).b) == (8, 12)
    assert (klein_data("affE", 8).a, klein_data("affE", 8).b) == (12, 20)
    assert klein_data("affE", 7).order_b == 48
    assert klein_data("affE", 8).order_b == 120
    e6 = klein_data("affE", 6)
    assert (e6.h + 2) ** 2 - 8 * e6.order_b == 4
    e8 = klein_data("affE", 8)
    assert (e8.h + 2) ** 2 - 8 * e8.order_b == 64
    for fam, n in klein_types(12):
        data = klein_data(fam, n)
        s = perfect_square_check(data).lhs
        assert s * s == (data.h + 2) ** 2 - 8 * data.order_b
    _finish(2, "exponents, group orders, perfect squares", start, 1.0)


def test_criterion_3_odd_cycle_closed_form():
    start = time.perf_counter()
    for m in range(0, 9):
        rep = a2m_closed_form(m)
        assert rep.holds, m
    _finish(3, "odd-cycle closed form, m <= 8", start, 5.0)


def test_criterion_4_continued_fractions():
    start = time.perf_counter()
    for fam, n in [("affD", 4), ("affD", 5), ("affD", 6), ("affD", 7),
                   ("affE", 6), ("affE", 7), ("affE", 8)]:
        d = build(fam, n)
        node = expand_tree(d, 0)
        assert z_count(node) == d.n
        val = evaluate(node)
        want = RatFunc(char_poly(d.delete([0])), char_poly(d))
        assert val == want, (fam, n)
    for n in range(1, 11):
        node = expand_cycle(n)
        assert z_count(node) == (n if n % 2 else n + 1)
        closings = _closings(node)
        if n % 2:
            assert all(c.value.num.coeffs == (0, 1) and
                       c.value.den.coeffs == (2,) for c in closings)
        else:
            assert all(c.value.num.coeffs == (1,) and
                       c.value.den.coeffs == (1,) for c in closings)
        d = build("affA", n)
        assert evaluate(node) == RatFunc(char_poly(d.delete([0])),
                                         char_poly(d))
    _finish(4, "tree and cycle fractions with closings and z-counts",
            start, 5.0)


def _closings(node):
    if isinstance(node, Closing):
        return [node]
    out = []
    for _, child in node.children:
        out.extend(_closings(child))
    return out


def test_criterion_5_christoffel_darboux_suite():
    start = time.perf_counter()
    for fam, n in ade_types(10):
        d = build(fam, n)
        for pivot in range(d.n):
            assert cd_coxeter(d, pivot).holds, (fam, n, pivot, 4)
            assert cd_wronskian(d, pivot).holds, (fam, n, pivot, 5)
        for i in range(d.n):
            for j in range(i, d.n):
                r8, r9 = cd_char(d, i, j)
                assert r8.holds and r9.holds, (fam, n, i, j)
    rng = random.Random(SEED)
    for k in range(200):
        d = random_tree(rng, rng.randint(1, 8), (1, 2))
        pivot = rng.randrange(d.n)
        assert cd_coxeter(d, pivot).holds, ("tree", k, 4)
        assert cd_wronskian(d, pivot).holds, ("tree", k, 5)
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = cd_char(d, i, j)
        assert r8.holds and r9.holds, ("tree", k, i, j)
    d5 = build("A", 5)
    samples = {1: ([2], [3]), 2: ([2, 3], [5, 7]), 3: ([1, 2, 3], [4, 5, 6])}
    for m, (xs, ys) in samples.items():
        assert binet_cauchy(d5, 0, 1, xs, ys).holds, ("binet", m)
        assert binet_cauchy(d5, 1, 3, xs, ys).holds, ("binet", m)
    _finish(5, "CD identities rank <= 10 + 200 seeded trees + Binet-Cauchy",
            start, 60.0)


def test_criterion_6_poincare_cd():
    start = time.perf_counter()
    for n in range(1, 9):
        data = klein_data("affA", n)
        rb, rw = poincare_cd(data, 0)
        assert rb.holds and rw.holds, ("affA", n, 0)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                rb, rw = poincare_cd(data, i, j)
                assert rb.holds and rw.holds, ("affA", n, i, j)
    for fam, n in [("affD", 4), ("affE", 6)]:
        data = klein_data(fam, n)
        for i in range(data.vertex_count):
            rb, rw = poincare_cd(data, i)
            assert rb.holds and rw.holds, (fam, n, i)
    _finish(6, "Poincare-series CD forms, cycles and trees", start, 10.0)


def test_criterion_7_bipartite_coincidence():
    start = time.perf_counter()
    diagrams = [build(fam, n) for fam, n in
                [("A", n) for n in range(1, 13)]
                + [("D", n) for n in range(4, 13)]
                + [("E", n) for n in (6, 7, 8)]
                + [("affA", n) for n in range(1, 13)]
                + [("affD", n) for n in range(4, 13)]
                + [("affE", n) for n in (6, 7, 8)]]
    rng = random.Random(SEED + 7)
    diagrams += [random_tree(rng, rng.randint(1, 8), (1, 2))
                 for _ in range(200)]
    odd_seen = 0
    for d in diagrams:
        split = bipartite_order(d)
        if isinstance(split, OddCycle):
            assert len(split.cycle) % 2 == 1
            odd_seen += 1
            continue
        assert z_substitute(char_poly(d)) == \
            coxeter_poly(d.with_order(split))
    assert odd_seen == 6  # the odd cycles affA2, affA4, ..., affA12
    _finish(7, "bipartite coincidence + odd-cycle rejection", start, 5.0)


def test_criterion_8_walk_expansion():
    start = time.perf_counter()
    for fam, n in [("affE", 6), ("affA", 2)]:
        d = build(fam, n)
        g = char_poly(d)
        table = cofactors(d)
        for i in range(d.n):
            for j in range(d.n):
                res = walk_expansion_residual(g, table[i, j],
                                              walk_gf(d, i, j, 20))
                assert res.is_zero or res.degree < g.degree, (fam, n, i, j)
        data = klein_data(fam, n)
        for i in range(data.vertex_count):
            assert walk_series_check(data, i, 20).holds, (fam, n, i)
    _finish(8, "walk expansions through k = 20", start, 5.0)


def test_criterion_9_braid_suite():
    start = time.perf_counter()
    rng = random.Random(SEED + 9)
    for _ in range(200):
        n = rng.randint(2, 4)
        w1 = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                for _ in range(rng.randint(0, 6))))
        w2 = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                for _ in range(rng.randint(0, 6))))
        lhs = burau(w1 * w2, True).entries
        rhs = mat_mul(burau(w1, True).entries, burau(w2, True).entries)
        assert mat_eq(lhs, rhs)
        if n >= 3:
            i = rng.randint(1, n - 2)
            a, b = BraidWord(n, (i,)), BraidWord(n, (i + 1,))
            assert mat_eq(burau(a * b * a, True).entries,
                          burau(b * a * b, True).entries)
    table = milnor(BraidWord(2, (1, 1)), 6)
    for r in range(1, 6):
        for seq in product((1, 2), repeat=r):
            if seq[-1] != 1:
                continue
            want = (-1) ** r if all(i == 1 for i in seq) else 0
            assert table.mu(*seq, 1) == want, seq
    assert levin_check(BraidWord(2, (1, 1)), 16).holds
    _finish(9, "Burau relations, Hopf Milnor pattern, series order 16",
            start, 10.0)


def test_criterion_10_formula_one_spot_checks():
    start = time.perf_counter()
    ratio = det_ratio(BraidWord(2, (1,)), BraidWord(2, (1, 1)))
    sub = RatFunc(Laurent({2 * k: v for k, v in ratio.num.items()}),
                  Laurent({2 * k: v for k, v in ratio.den.items()}))
    catalog = RatFunc(t_poly_to_laurent(conway_torus2(1)),
                      t_poly_to_laurent(conway_torus2(3)))
    match = unit_match(sub, catalog)
    assert match is not None
    sign, power = match
    assert sign in (1, -1)
    print(f"    recorded unit: {'-' if sign < 0 else ''}t^{power // 2}")
    _finish(10, "determinant ratio vs catalogued Alexander ratio", start, 1.0)


def test_criterion_11_divide_factorization():
    start = time.perf_counter()
    rng = random.Random(SEED + 11)
    recorded = []
    for k in range(20):
        p, r, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(0, 2) for _ in range(r)] for _ in range(p)]
        bprime = [[rng.randint(0, 2) for _ in range(s)] for _ in range(r)]
        b = [[2 * x for x in row] for row in bprime]
        c = [[sum(a[i][t] * bprime[t][j] for t in range(r))
              for j in range(s)] for i in range(p)]
        closed, schur = divide_identity(a, b, c).residual
        assert schur.is_zero, ("schur factorization", k)
        recorded.append(closed.is_zero)
    print(f"    display identity held on {sum(recorded)}/20 instances")
    assert all(recorded)
    _finish(11, "block Schur factorization on 20 seeded triples", start, 30.0)
