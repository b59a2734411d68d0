"""Command-line front end.

One executable with five subcommands: coxeter (polynomials), cfrac
(branching continued fractions), kostant (Poincare series data and its
checks), braid (Burau, Milnor, series identities) and verify (the exact
identity suites).  All randomized suites are fully determined by --seed;
JSON output is byte-stable for a fixed config and seed (timings only
appear under --timings).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys
import time
from dataclasses import dataclass, field

from . import algebra, braid, cfrac, coxeter, diagram, identities, kostant
from .algebra import Laurent, Poly, RatFunc
from .errors import DomainError, UnknownVertex, UsageError


@dataclass
class RunConfig:
    """Validated run parameters; the seed fully determines the suites."""

    command: str
    verifier: str = "all"
    diagram_spec: str | None = None
    type_spec: str | None = None
    series_index: int | None = None
    # terms and reduced are None when the option is not given, so that an
    # option the chosen mode does not read can be rejected
    terms: int | None = None
    order: int = 16
    order_override: str | None = None
    root: int = 0
    fmt: str = "text"
    json_out: bool = False
    timings: bool = False
    seed: int = 0
    random_trees: int = 50
    max_vertices: int = 8
    word: str = ""
    strands: int | None = None
    against: str | None = None
    reduced: bool | None = None
    mode: str = ""
    verify_which: str | None = None


@dataclass
class CaseResult:
    suite: str
    case: str
    holds: bool
    residual_terms: int = 0
    elapsed_ms: float = 0.0
    # when the case was decided; _time_cases turns the gaps into elapsed_ms
    done_at: float = field(default_factory=time.perf_counter)


def _load_diagram(source: str, order_override: str | None = None) -> diagram.Diagram:
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            d = diagram.from_text(fh.read())
    else:
        d = diagram.from_name(source)
    if order_override:
        try:
            order = [int(t) for t in order_override.split()]
        except ValueError:
            raise DomainError(f"order must list vertex indices, "
                              f"got {order_override!r}") from None
        d = d.with_order(order)
    return d


# ---------------------------------------------------------------------------
# verifier suites
# ---------------------------------------------------------------------------

def _suite_diagrams(cfg: RunConfig, max_rank: int):
    """Named diagram only when --diagram was given, else the ADE sweep."""
    if cfg.diagram_spec:
        yield cfg.diagram_spec, _load_diagram(cfg.diagram_spec)
        return
    for fam, n in diagram.ade_types(max_rank):
        yield f"{fam}{n}", diagram.build(fam, n)


def _seeded_trees(cfg: RunConfig, weights=(1, 2)):
    if cfg.diagram_spec:
        return
    rng = random.Random(cfg.seed)
    for k in range(cfg.random_trees):
        n = rng.randint(1, cfg.max_vertices)
        yield k, diagram.random_tree(rng, n, weights), rng


def _report_case(suite: str, name: str, holds: bool, terms: int = 0):
    return CaseResult(suite, name, holds, terms)


def verify_algebra(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    out = []

    def rand_laurent():
        return Laurent({rng.randint(-4, 4): rng.randint(-6, 6)
                        for _ in range(rng.randint(0, 4))})

    ok_ring = True
    for _ in range(60):
        a, b, c = rand_laurent(), rand_laurent(), rand_laurent()
        ok_ring &= (a * b) * c == a * (b * c)
        ok_ring &= a * (b + c) == a * b + a * c
    out.append(_report_case("algebra", "ring-axioms", ok_ring))
    ok_rt = True
    for _ in range(40):
        p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        ok_rt &= algebra.q_to_z(algebra.z_substitute(p)) == p
    out.append(_report_case("algebra", "roundtrip-z", ok_rt))
    ok_anti = True
    for _ in range(60):
        f, g = rand_laurent(), rand_laurent()
        ok_anti &= algebra.bezoutian(f, g) == -algebra.bezoutian(g, f)
        ok_anti &= algebra.wronskian(f, g) == -algebra.wronskian(g, f)
        ok_anti &= algebra.bezoutian(f, g).subs_y_eq_x() == algebra.wronskian(f, g)
    out.append(_report_case("algebra", "bez-wr-antisymmetry", ok_anti))
    ok_det = True
    for _ in range(15):
        mat = [[rand_laurent() for _ in range(4)] for _ in range(4)]
        ok_det &= algebra.det_exact(mat) == algebra._det_laplace(mat)
    out.append(_report_case("algebra", "det-vs-laplace", ok_det))
    sq = algebra.series_sqrt1p(8)
    want = algebra.TruncSeries(8, (1, 1))
    out.append(_report_case("algebra", "sqrt-square", sq * sq == want))
    return out


def verify_schur(cfg: RunConfig):
    out = []
    for name, d in _suite_diagrams(cfg, 8):
        for pivot in range(d.n):
            st = coxeter.schur_step(d, pivot)
            out.append(_report_case(
                "schur", f"{name}-pivot{pivot}", st.residual.is_zero))
    for k, d, rng in _seeded_trees(cfg):
        pivot = rng.randrange(d.n)
        st = coxeter.schur_step(d, pivot)
        out.append(_report_case("schur", f"tree{k:03d}", st.residual.is_zero))
    return out


def verify_join(cfg: RunConfig):
    out = []
    cases = [
        ("three-A1", [(diagram.build("A", 1), 0)] * 3),
        ("A4-end", [(diagram.build("A", 4), 3)]),
        ("mixed", [(diagram.build("A", 2), 0), (diagram.build("A", 2), 1),
                   (diagram.build("A", 1), 0)]),
        ("empty", []),
    ]
    for name, parts in cases:
        val = coxeter.join_poly(parts)
        want = coxeter.coxeter_poly(diagram.join(parts))
        out.append(_report_case("join", name, val == want))
    return out


def verify_bipartite(cfg: RunConfig):
    out = []
    diagrams = list(_suite_diagrams(cfg, 12))
    diagrams += [(f"tree{k:03d}", d) for k, d, _ in _seeded_trees(cfg)]
    for name, d in diagrams:
        split = diagram.bipartite_order(d)
        if isinstance(split, diagram.OddCycle):
            ok = len(split.cycle) % 2 == 1
            out.append(_report_case("bipartite", f"{name}-odd-cycle", ok))
            continue
        reordered = d.with_order(split)
        ok = (algebra.z_substitute(coxeter.char_poly(d))
              == coxeter.coxeter_poly(reordered))
        out.append(_report_case("bipartite", name, ok))
    return out


def _verify_pivot(cfg: RunConfig, suite: str, identity):
    """One case per pivot of each named diagram and one per seeded tree."""
    out = []
    for name, d in _suite_diagrams(cfg, 10):
        for pivot in range(d.n):
            rep = identity(d, pivot)
            out.append(_report_case(suite, f"{name}-p{pivot}", rep.holds,
                                    rep.residual_terms))
    for k, d, rng in _seeded_trees(cfg):
        rep = identity(d, rng.randrange(d.n))
        out.append(_report_case(suite, f"tree{k:03d}", rep.holds,
                                rep.residual_terms))
    return out


def verify_cd_coxeter(cfg: RunConfig):
    return _verify_pivot(cfg, "cd-coxeter", identities.cd_coxeter)


def verify_cd_wronskian(cfg: RunConfig):
    return _verify_pivot(cfg, "cd-wronskian", identities.cd_wronskian)


def verify_cd_char(cfg: RunConfig):
    out = []
    for name, d in _suite_diagrams(cfg, 10):
        ok8 = ok9 = True
        terms8 = terms9 = 0
        for i in range(d.n):
            for j in range(i, d.n):
                r8, r9 = identities.cd_char(d, i, j)
                ok8 &= r8.holds
                ok9 &= r9.holds
                terms8 += r8.residual_terms
                terms9 += r9.residual_terms
        out.append(_report_case("cd-char", f"{name}-bez", ok8, terms8))
        out.append(_report_case("cd-char", f"{name}-wr", ok9, terms9))
    for k, d, rng in _seeded_trees(cfg):
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = identities.cd_char(d, i, j)
        out.append(_report_case("cd-char", f"tree{k:03d}",
                                r8.holds and r9.holds,
                                r8.residual_terms + r9.residual_terms))
    return out


def verify_chain(cfg: RunConfig):
    out = []
    d = diagram.build("A", 6)
    reps = identities.chain_identities(d, list(range(6)))
    out.append(_report_case("chain", "A6-full", all(r.holds for r in reps)))
    for fam, n, tail in [("affE", 8, [0, 1, 2, 3, 4, 5]),
                         ("affE", 7, [0, 1, 2, 3]),
                         ("affD", 6, [0, 2])]:
        d = diagram.build(fam, n)
        reps = identities.chain_identities(d, tail)
        out.append(_report_case("chain", f"{fam}{n}-arm",
                                all(r.holds for r in reps)))
    # the long arm of affine E8 extended through the virtual vertex: a
    # 7-vertex tail ending at the branch point
    reps = identities.chain_identities(
        _augmented_affine("affE", 8), [9, 0, 1, 2, 3, 4, 5])
    out.append(_report_case("chain", "affE8-long-arm-k7",
                            all(r.holds for r in reps)))
    return out


def _augmented_affine(fam: str, n: int) -> diagram.Diagram:
    """Affine diagram with one extra leaf on the affine vertex (the graph
    carrying the virtual vertex's bookkeeping)."""
    base = diagram.build(fam, n)
    edges = [((i, j), w) for (i, j, w) in base.edges()]
    edges.append(((0, base.n), 1))
    return diagram.Diagram(base.n + 1, edges)


def verify_path_sum(cfg: RunConfig):
    out = []
    for fam, n in [("A", 5), ("D", 5), ("affA", 4), ("affE", 6)]:
        d = diagram.build(fam, n)
        table = coxeter.cofactors(d)
        ok = all(coxeter.path_sum_H(d, i, j) == table[i, j]
                 for i in range(d.n) for j in range(d.n))
        out.append(_report_case("path-sum", f"{fam}{n}", ok))
    return out


def verify_identity7(cfg: RunConfig):
    out = []
    named = ([(cfg.diagram_spec, _load_diagram(cfg.diagram_spec))]
             if cfg.diagram_spec else
             [(f"{f}{n}", diagram.build(f, n))
              for f, n in [("A", 4), ("D", 5), ("affA", 5), ("affE", 6)]])
    for name, d in named:
        ok = all(coxeter.identity7_check(d, i, j).is_zero
                 for i in range(d.n) for j in range(d.n) if i != j)
        out.append(_report_case("identity7", f"{name}", ok))
    for k, d, rng in _seeded_trees(cfg):
        if d.n < 2:
            continue
        i = rng.randrange(d.n)
        j = (i + 1 + rng.randrange(d.n - 1)) % d.n
        out.append(_report_case("identity7", f"tree{k:03d}",
                                coxeter.identity7_check(d, i, j).is_zero))
    return out


def verify_walks(cfg: RunConfig):
    out = []
    for fam, n in [("affE", 6), ("affA", 2)]:
        d = diagram.build(fam, n)
        g = coxeter.char_poly(d)
        table = coxeter.cofactors(d)
        ok = True
        for i in range(d.n):
            for j in range(d.n):
                res = coxeter.walk_expansion_residual(
                    g, table[i, j], coxeter.walk_gf(d, i, j, 20))
                ok &= res.is_zero or res.degree < g.degree
        out.append(_report_case("walks", f"{fam}{n}-eq10", ok))
        data = kostant.klein_data(fam, n)
        ok = all(kostant.walk_series_check(data, i, 20).holds
                 for i in range(data.vertex_count))
        out.append(_report_case("walks", f"{fam}{n}-series", ok))
    return out


def verify_binet_cauchy(cfg: RunConfig):
    out = []
    d = diagram.build("A", 5)
    samples = {1: ([2], [3]), 2: ([2, 3], [5, 7]), 3: ([1, 2, 3], [4, 5, 6])}
    for m, (xs, ys) in samples.items():
        rep = identities.binet_cauchy(d, 0, 1, xs, ys)
        out.append(_report_case("binet-cauchy", f"A5-m{m}", rep.holds))
    d2 = diagram.build("A", 2)
    rep = identities.binet_cauchy(d2, 0, 1, [2, 3], [5, 7])
    out.append(_report_case("binet-cauchy", "A2-full", rep.holds))
    return out


def verify_poincare_cd(cfg: RunConfig):
    out = []
    for fam, n in [("affD", 4), ("affE", 6)]:
        data = kostant.klein_data(fam, n)
        ok = True
        for i in range(data.vertex_count):
            rb, rw = identities.poincare_cd(data, i)
            ok &= rb.holds and rw.holds
        out.append(_report_case("poincare-cd", f"{fam}{n}", ok))
    for n in range(1, 9):
        data = kostant.klein_data("affA", n)
        rb, rw = identities.poincare_cd(data, 0)
        ok = rb.holds and rw.holds
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                rb, rw = identities.poincare_cd(data, i, j)
                ok &= rb.holds and rw.holds
        if n % 2 and n >= 3:
            ok &= all(r.holds for r in
                      identities.poincare_cd_antipodal_choices(data))
        out.append(_report_case("poincare-cd", f"affA{n}", ok))
    return out


def verify_cfrac_tree(cfg: RunConfig):
    out = []
    for name in ("~D4", "~D5", "~D6", "~E6", "~E7", "~E8"):
        d = diagram.from_name(name)
        node = cfrac.expand_tree(d, 0)
        ok = cfrac.z_count(node) == d.n
        ok &= cfrac.evaluate(node) == cfrac.tree_ratio(d, 0)
        data = kostant.klein_data(*diagram.parse_name(name))
        val = cfrac.evaluate(node)
        lhs = algebra.z_substitute(val.num) * data.denominator()
        rhs = Laurent.q(1) * data.z_table[0] * algebra.z_substitute(val.den)
        ok &= lhs == rhs
        out.append(_report_case("cfrac-tree", name, ok))
    return out


def verify_cfrac_cycle(cfg: RunConfig):
    out = []
    for n in range(1, 11):
        node = cfrac.expand_cycle(n)
        ok = cfrac.z_count(node) == (n if n % 2 else n + 1)
        d = diagram.build("affA", n)
        want = RatFunc(coxeter.char_poly(d.delete([0])), coxeter.char_poly(d))
        ok &= cfrac.evaluate(node) == want
        out.append(_report_case("cfrac-cycle", f"affA{n}", ok))
    return out


def verify_kostant_tables(cfg: RunConfig):
    out = []
    for fam, n in kostant.klein_types(12):
        data = kostant.klein_data(fam, n)
        rec = kostant.cramer_z_table(data)
        ok = all(a == b for a, b in zip(rec, data.z_table))
        ok &= data.a + data.b == data.h + 2
        ok &= data.a * data.b == 2 * data.order_b
        ok &= all((z.max_exp <= data.h and z.min_exp >= 0
                   and all(v >= 0 for _, v in z.items()))
                  for z in data.z_table)
        out.append(_report_case("kostant-tables", f"{fam}{n}", ok))
        for which in (14, 15, 16):
            rep = kostant.verify_system(data, which)
            out.append(_report_case("kostant-tables",
                                    f"{fam}{n}-system{which}", rep.holds))
    return out


def verify_ebeling(cfg: RunConfig):
    out = []
    for fam, n in kostant.klein_types(12):
        data = kostant.klein_data(fam, n)
        reps = kostant.ebeling_ratios(data)
        out.append(_report_case("ebeling", f"{fam}{n}",
                                all(r.holds for r in reps)))
    return out


def verify_a2m(cfg: RunConfig):
    return [_report_case("a2m", f"m{m}", kostant.a2m_closed_form(m).holds)
            for m in range(9)]


def verify_squares(cfg: RunConfig):
    out = []
    for fam, n in kostant.klein_types(12):
        data = kostant.klein_data(fam, n)
        s = kostant.perfect_square_check(data)
        out.append(_report_case("squares", f"{fam}{n}",
                                s * s == (data.h + 2) ** 2 - 8 * data.order_b
                                and s == abs(data.a - data.b)))
    return out


def verify_prop2_squares(cfg: RunConfig):
    out = []
    for fam, n in [("affA", 3), ("affA", 4), ("affD", 4), ("affD", 6),
                   ("affE", 6), ("affE", 7), ("affE", 8)]:
        data = kostant.klein_data(fam, n)
        ok = all(kostant.prop2_squares(data, i).holds
                 for i in range(1, data.vertex_count))
        out.append(_report_case("prop2-squares", f"{fam}{n}", ok))
    return out


def verify_burau(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    out = []
    ok_mult = ok_rel = True
    for _ in range(200):
        n = rng.randint(2, 4)
        w1 = braid.BraidWord(n, tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 6))))
        w2 = braid.BraidWord(n, tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 6))))
        for red in (False, True):
            lhs = braid.burau(w1 * w2, red).entries
            rhs = algebra.mat_mul(braid.burau(w1, red).entries,
                                  braid.burau(w2, red).entries)
            ok_mult &= algebra.mat_eq(lhs, rhs)
    out.append(_report_case("burau", "multiplicativity-200", ok_mult))
    for n in (3, 4):
        for i in range(1, n - 1):
            a = braid.BraidWord(n, (i,))
            b = braid.BraidWord(n, (i + 1,))
            for red in (False, True):
                lhs = braid.burau(a * b * a, red).entries
                rhs = braid.burau(b * a * b, red).entries
                ok_rel &= algebra.mat_eq(lhs, rhs)
    out.append(_report_case("burau", "braid-relations", ok_rel))
    return out


def verify_milnor(cfg: RunConfig):
    out = []
    hopf = braid.BraidWord(2, (1, 1))
    table = braid.milnor(hopf, 6)
    ok = table.mu(2, 1) == 1
    for idx, val in table.entries.items():
        if len(idx) >= 2 and idx[-1] == 1 and idx[-2] == 1:
            want = (-1) ** (len(idx) - 1) if all(i == 1 for i in idx[:-1]) else 0
            ok &= val == want
    out.append(_report_case("milnor", "hopf-order6", ok))
    borr = braid.BraidWord(3, (1, -2, 1, -2, 1, -2))
    t = braid.milnor(borr, 3)
    lk = braid.linking_matrix(borr)
    ok = all(v == 0 for v in lk.values())
    ok &= abs(t.mu(2, 3, 1)) == 1
    ok &= t.mu(2, 3, 1) == t.mu(3, 1, 2) == t.mu(1, 2, 3)
    ok &= t.mu(2, 3, 1) == -t.mu(3, 2, 1)
    out.append(_report_case("milnor", "borromean", ok))
    return out


def verify_levin(cfg: RunConfig):
    out = []
    for name, word, order in [("hopf-16", (1, 1), 16),
                              ("t24-12", (1, 1, 1, 1), 12),
                              ("t26-10", (1,) * 6, 10),
                              ("neg-hopf-12", (-1, -1), 12),
                              ("identity-8", (), 8)]:
        rep = braid.levin_check(braid.BraidWord(2, word), order)
        terms = sum(1 for c in (rep.lhs - rep.rhs).coeffs if c)
        out.append(_report_case("levin", name, rep.holds, terms))
    return out


def verify_burau_ratio(cfg: RunConfig):
    out = []
    unknot = braid.BraidWord(2, (1,))
    trefoil_mul = braid.BraidWord(2, (1, 1))
    ratio = braid.det_ratio(unknot, trefoil_mul)
    cat = RatFunc(braid.t_poly_to_laurent(braid.conway_torus2(1)),
                  braid.t_poly_to_laurent(braid.conway_torus2(3)))
    sub = RatFunc(_q_square(ratio.num), _q_square(ratio.den))
    out.append(_report_case("burau-ratio", "unknot-vs-trefoil",
                            braid.unit_match(sub, cat) is not None))
    hopf = braid.BraidWord(2, (1, 1))
    ratio2 = braid.det_ratio(hopf, braid.BraidWord(2, (1,)))
    cat2 = RatFunc(braid.t_poly_to_laurent(braid.conway_torus2(2)),
                   braid.t_poly_to_laurent(braid.conway_torus2(3)))
    sub2 = RatFunc(_q_square(ratio2.num), _q_square(ratio2.den))
    out.append(_report_case("burau-ratio", "hopf-vs-trefoil",
                            braid.unit_match(sub2, cat2) is not None))
    return out


def _q_square(p: Laurent) -> Laurent:
    """Substitute the Burau variable t = q^2."""
    return Laurent({2 * k: v for k, v in p.items()})


def verify_divide(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    out = []
    rep = coxeter.divide_identity([[2]], [[1]], [[1]])
    out.append(_report_case("divide", "smallest",
                            rep.equal and rep.schur_exact))
    rep = coxeter.divide_identity([], [], [])
    out.append(_report_case("divide", "empty", rep.equal and rep.schur_exact))
    for k in range(20):
        p, r, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(0, 2) for _ in range(r)] for _ in range(p)]
        bp = [[rng.randint(0, 2) for _ in range(s)] for _ in range(r)]
        b = [[2 * x for x in row] for row in bp]
        c = [[sum(a[i][t] * bp[t][j] for t in range(r)) for j in range(s)]
             for i in range(p)]
        rep = coxeter.divide_identity(a, b, c)
        out.append(_report_case("divide", f"random{k:02d}",
                                rep.schur_exact and rep.equal))
    return out


VERIFIERS = {
    "algebra": verify_algebra,
    "schur": verify_schur,
    "join": verify_join,
    "bipartite": verify_bipartite,
    "cd-coxeter": verify_cd_coxeter,
    "cd-wronskian": verify_cd_wronskian,
    "cd-char": verify_cd_char,
    "chain": verify_chain,
    "path-sum": verify_path_sum,
    "identity7": verify_identity7,
    "walks": verify_walks,
    "binet-cauchy": verify_binet_cauchy,
    "poincare-cd": verify_poincare_cd,
    "cfrac-tree": verify_cfrac_tree,
    "cfrac-cycle": verify_cfrac_cycle,
    "kostant-tables": verify_kostant_tables,
    "ebeling": verify_ebeling,
    "a2m": verify_a2m,
    "squares": verify_squares,
    "prop2-squares": verify_prop2_squares,
    "burau": verify_burau,
    "milnor": verify_milnor,
    "levin": verify_levin,
    "burau-ratio": verify_burau_ratio,
    "divide": verify_divide,
}

# the suites that run on --diagram; every other suite has fixed inputs
DIAGRAM_SUITES = ("schur", "bipartite", "cd-coxeter", "cd-wronskian",
                  "cd-char", "identity7")

# every public module operation is reachable through at least one CLI route
OPERATION_ROUTES = {
    "algebra.z_substitute": ("verify", "algebra"),
    "algebra.q_to_z": ("verify", "algebra"),
    "algebra.det_exact": ("verify", "algebra"),
    "algebra.bezoutian": ("verify", "algebra"),
    "algebra.wronskian": ("verify", "algebra"),
    "algebra.series_sqrt1p": ("braid", "levin"),
    "diagram.build": ("coxeter", "--diagram"),
    "diagram.delete": ("cfrac", "--diagram"),
    "diagram.join": ("verify", "join"),
    "diagram.bipartite_order": ("verify", "bipartite"),
    "coxeter.coxeter_poly": ("coxeter", ""),
    "coxeter.char_poly": ("coxeter", "--char"),
    "coxeter.schur_step": ("verify", "schur"),
    "coxeter.join_poly": ("verify", "join"),
    "coxeter.cofactors": ("verify", "cd-char"),
    "coxeter.path_sum_H": ("verify", "path-sum"),
    "coxeter.walk_gf": ("verify", "walks"),
    "coxeter.identity7_check": ("verify", "identity7"),
    "coxeter.divide_identity": ("verify", "divide"),
    "cfrac.expand_tree": ("cfrac", "--format latex"),
    "cfrac.expand_cycle": ("cfrac", "--diagram ~A4"),
    "cfrac.evaluate": ("cfrac", "--format eval"),
    "cfrac.render": ("cfrac", "--format ascii"),
    "identities.cd_coxeter": ("verify", "cd-coxeter"),
    "identities.cd_wronskian": ("verify", "cd-wronskian"),
    "identities.chain_identities": ("verify", "chain"),
    "identities.cd_char": ("verify", "cd-char"),
    "identities.binet_cauchy": ("verify", "binet-cauchy"),
    "identities.poincare_cd": ("verify", "poincare-cd"),
    "kostant.klein_data": ("kostant", "--type"),
    "kostant.poincare_series": ("kostant", "--series"),
    "kostant.verify_system": ("kostant", "--verify 15"),
    "kostant.ebeling_ratios": ("kostant", "--verify 17"),
    "kostant.a2m_closed_form": ("verify", "a2m"),
    "kostant.prop2_squares": ("verify", "prop2-squares"),
    "kostant.walk_series_check": ("kostant", "--verify walks"),
    "kostant.perfect_square_check": ("kostant", "--verify squares"),
    "braid.burau": ("braid", "burau"),
    "braid.det_ratio": ("braid", "ratio"),
    "braid.artin_action": ("braid", "artin"),
    "braid.longitudes": ("braid", "longitudes"),
    "braid.magnus": ("braid", "magnus"),
    "braid.milnor": ("braid", "milnor"),
    "braid.levin_check": ("braid", "levin"),
    "cli.run": ("verify", "all"),
}


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def run_coxeter(cfg: RunConfig) -> int:
    d = _load_diagram(cfg.diagram_spec, cfg.order_override)
    if cfg.verify_which == "char":
        poly = coxeter.char_poly(d).render("z")
    else:
        poly = coxeter.coxeter_poly(d).render("q")
    if cfg.json_out:
        _emit({"diagram": cfg.diagram_spec, "order": list(d.order),
               "poly": poly})
    else:
        print(poly)
    return 0


def run_cfrac(cfg: RunConfig) -> int:
    if os.path.exists(cfg.diagram_spec):
        # a diagram file must be a tree; expand_tree raises NotATree
        node = cfrac.expand_tree(_load_diagram(cfg.diagram_spec), cfg.root)
    else:
        fam, rank = diagram.parse_name(cfg.diagram_spec)
        if fam == "affA":
            # every vertex of the cycle gives the same expansion, but the
            # root must still be one of them
            if not 0 <= cfg.root <= rank:
                raise UnknownVertex(f"no vertex {cfg.root}")
            node = cfrac.expand_cycle(rank)
        else:
            node = cfrac.expand_tree(diagram.build(fam, rank), cfg.root)
    if cfg.fmt == "eval":
        print(cfrac.evaluate(node).render("z"))
    else:
        print(cfrac.render(node, cfg.fmt))
    return 0


def run_kostant(cfg: RunConfig) -> int:
    if cfg.series_index is not None and cfg.verify_which is not None:
        raise UsageError("--series and --verify cannot be combined")
    if cfg.terms is not None and cfg.series_index is None:
        raise UsageError("--terms applies only with --series")
    if cfg.timings and cfg.verify_which is None:
        raise UsageError("--timings applies only with --verify")
    fam, rank = diagram.parse_name(cfg.type_spec)
    data = kostant.klein_data(fam, rank)
    if cfg.series_index is not None:
        terms = 40 if cfg.terms is None else cfg.terms
        series = kostant.poincare_series(data, cfg.series_index, terms)
        if cfg.json_out:
            _emit({"type": cfg.type_spec, "vertex": cfg.series_index,
                   "terms": terms, "series": series.render()})
        else:
            print(series.render())
        return 0
    if cfg.verify_which is None:
        payload = {"type": cfg.type_spec, "a": data.a, "b": data.b,
                   "h": data.h, "group_order": data.order_b,
                   "Z": [z.render() for z in data.z_table],
                   "Z_minus1": data.z_minus1.render()}
        if cfg.json_out:
            _emit(payload)
        else:
            for key, val in payload.items():
                print(f"{key}: {val}")
        return 0
    which = cfg.verify_which
    cases: list[CaseResult] = []
    start = time.perf_counter()
    if which in ("17", "all"):
        reps = kostant.ebeling_ratios(data)
        cases.append(CaseResult("kostant", "ratios-17",
                                all(r.holds for r in reps)))
    if which in ("14", "15", "16", "all"):
        nums = [int(which)] if which != "all" else [14, 15, 16]
        for w in nums:
            rep = kostant.verify_system(data, w)
            cases.append(CaseResult("kostant", f"system-{w}", rep.holds,
                                    rep.residual_terms))
    if which in ("squares", "all"):
        s = kostant.perfect_square_check(data)
        cases.append(CaseResult("kostant", "perfect-square",
                                s == abs(data.a - data.b)))
    if which in ("walks", "all"):
        ok = all(kostant.walk_series_check(data, i, 20).holds
                 for i in range(data.vertex_count))
        cases.append(CaseResult("kostant", "walks", ok))
    if which == "all":
        ok = all(kostant.prop2_squares(data, i).holds
                 for i in range(1, data.vertex_count))
        cases.append(CaseResult("kostant", "prop2-squares", ok))
    _time_cases(cases, start)
    return _print_cases(cfg, cases)


def run_braid(cfg: RunConfig) -> int:
    if not 0 <= cfg.order <= braid.MAX_ORDER:
        raise UsageError(f"--order must be in 0..{braid.MAX_ORDER}")
    mode = cfg.mode
    if cfg.json_out and mode != "burau":
        raise UsageError(f"--json applies only to burau, not to {mode}")
    if cfg.against is not None and mode != "ratio":
        raise UsageError(f"--against applies only to ratio, not to {mode}")
    if cfg.reduced is not None and mode not in ("burau", "ratio"):
        raise UsageError(f"--reduced and --unreduced apply only to burau "
                         f"and ratio, not to {mode}")
    reduced = True if cfg.reduced is None else cfg.reduced
    word = braid.BraidWord.parse(cfg.word, cfg.strands)
    if mode == "burau":
        img = braid.burau(word, reduced)
        rows = [[e.render("t") for e in row] for row in img.entries]
        if cfg.json_out:
            _emit({"kind": img.kind, "entries": rows})
        else:
            for row in rows:
                print("[" + ", ".join(row) + "]")
        return 0
    if mode == "artin":
        for k, img in enumerate(braid.artin_action(word), start=1):
            print(f"x{k} -> {_word_text(img)}")
        return 0
    if mode == "longitudes":
        for k, lon in enumerate(braid.longitudes(word), start=1):
            print(f"l{k} = {_word_text(lon)}")
        return 0
    if mode == "magnus":
        lon = braid.longitudes(word)
        series = braid.magnus(lon[0], word.strands, cfg.order)
        for mono, coeff in series.items():
            name = "1" if not mono else "*".join(f"u{i}" for i in mono)
            print(f"{coeff} {name}")
        return 0
    if mode == "milnor":
        table = braid.milnor(word, cfg.order)
        for idx in sorted(table.entries, key=lambda w: (len(w), w)):
            print(f"mu{list(idx)} = {table.entries[idx]}")
        return 0
    if mode == "levin":
        rep = braid.levin_check(word, cfg.order)
        print(f"lhs: {rep.lhs.render()}")
        print(f"rhs: {rep.rhs.render()}")
        print(f"holds: {rep.holds}" + (" (degenerate)" if rep.degenerate else ""))
        return 0 if rep.holds else 1
    if mode == "ratio":
        other = braid.BraidWord.parse(cfg.against or "", word.strands)
        ratio = braid.det_ratio(word, other, reduced)
        print(ratio.render("t"))
        return 0
    raise UsageError(f"unknown braid mode {mode!r}")


def _word_text(word) -> str:
    if not word:
        return "1"
    return " ".join((f"x{g}" if g > 0 else f"x{-g}^-1") for g in word)


def _time_cases(cases: list[CaseResult], start: float) -> None:
    """Charge each case the time since the case before it, the first one
    the time since start."""
    prev = start
    for c in cases:
        c.elapsed_ms = (c.done_at - prev) * 1000
        prev = c.done_at


def _rerun_command(cfg: RunConfig, suite: str) -> str:
    """The command line that runs a failing case's suite again."""
    if cfg.command == "kostant":
        return (f"coxkit kostant --type {shlex.quote(cfg.type_spec)} "
                f"--verify {cfg.verify_which}")
    words = ["coxkit", "verify", suite, "--seed", str(cfg.seed)]
    if cfg.diagram_spec:
        words += ["--diagram", shlex.quote(cfg.diagram_spec)]
    if cfg.random_trees != RunConfig.random_trees:
        words += ["--random-trees", str(cfg.random_trees)]
    if cfg.max_vertices != RunConfig.max_vertices:
        words += ["--max-vertices", str(cfg.max_vertices)]
    return " ".join(words)


def _print_cases(cfg: RunConfig, cases: list[CaseResult]) -> int:
    cases.sort(key=lambda c: (c.suite, c.case))
    for c in cases:
        if cfg.json_out:
            record = {"suite": c.suite, "case": c.case, "holds": c.holds,
                      "residual_terms": c.residual_terms}
            if cfg.timings:
                record["elapsed_ms"] = round(c.elapsed_ms, 3)
            _emit(record)
            continue
        took = f" ({c.elapsed_ms:.3f} ms)" if cfg.timings else ""
        if c.holds:
            print(f"[ok ] {c.suite}: {c.case}{took}")
        else:
            print(f"[FAIL] {c.suite}: {c.case}{took}")
            print(f"       rerun: {_rerun_command(cfg, c.suite)}")
    bad = sum(1 for c in cases if not c.holds)
    if not cfg.json_out:
        print(f"{len(cases) - bad}/{len(cases)} checks hold")
    return 0 if bad == 0 else 1


def run_verify(cfg: RunConfig) -> int:
    names = list(VERIFIERS) if cfg.verifier == "all" else [cfg.verifier]
    for name in names:
        if name not in VERIFIERS:
            raise UsageError(f"unknown verifier {name!r}; "
                             f"choose from {', '.join(sorted(VERIFIERS))}")
    if cfg.diagram_spec and any(n not in DIAGRAM_SUITES for n in names):
        raise UsageError(f"--diagram applies only to the suites "
                         f"{', '.join(DIAGRAM_SUITES)}, not to {cfg.verifier}")
    if cfg.random_trees < 0:
        raise UsageError("--random-trees must be at least 0")
    if not 1 <= cfg.max_vertices <= diagram.MAX_VERTICES:
        raise UsageError(f"--max-vertices must be in 1..{diagram.MAX_VERTICES}")
    cases: list[CaseResult] = []
    for name in names:
        start = time.perf_counter()
        got = VERIFIERS[name](cfg)
        _time_cases(got, start)
        cases.extend(got)
    return _print_cases(cfg, cases)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the RunConfig field it sets; metavar keeps the
    help text in the option's own name."""
    top = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact identities for Coxeter polynomials, Klein-group "
                    "Poincare series, continued fractions and braid invariants.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coxeter", help="Coxeter/characteristic polynomial")
    p.add_argument("--diagram", dest="diagram_spec", metavar="DIAGRAM",
                   required=True,
                   help="name (A5, ~E7, ...) or diagram file path")
    p.add_argument("--char", dest="verify_which", action="store_const",
                   const="char",
                   help="characteristic polynomial in z instead")
    p.add_argument("--order", dest="order_override", metavar="ORDER",
                   help="space-separated vertex order override")
    p.add_argument("--json", dest="json_out", action="store_true")

    p = sub.add_parser("cfrac", help="branching continued fraction")
    p.add_argument("--diagram", dest="diagram_spec", metavar="DIAGRAM",
                   required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--format", dest="fmt", default="latex",
                   choices=("latex", "ascii", "eval"))

    p = sub.add_parser("kostant", help="Poincare series data and checks")
    p.add_argument("--type", dest="type_spec", metavar="TYPE", required=True,
                   help="affine name, e.g. ~E8")
    p.add_argument("--series", dest="series_index", metavar="SERIES",
                   type=int, default=None,
                   help="vertex index (-1 for the virtual vertex)")
    p.add_argument("--terms", type=int, default=None,
                   help="number of series terms (default 40)")
    p.add_argument("--verify", dest="verify_which", default=None,
                   choices=("all", "17", "14", "15", "16", "squares", "walks"))
    p.add_argument("--json", dest="json_out", action="store_true")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("braid", help="Burau, Milnor, Levin tools")
    p.add_argument("mode", choices=("burau", "milnor", "levin", "artin",
                                    "longitudes", "magnus", "ratio"))
    p.add_argument("--word", required=True, help='tokens like "s1 s1 -s2"')
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--against", default=None,
                   help="second braid word for ratio mode")
    p.add_argument("--reduced", dest="reduced", action="store_true",
                   default=None,
                   help="reduced Burau image (the default of burau, ratio)")
    p.add_argument("--unreduced", dest="reduced", action="store_false")
    p.add_argument("--json", dest="json_out", action="store_true")

    p = sub.add_parser("verify", help="run exact identity suites")
    p.add_argument("verifier", metavar="name", nargs="?", default="all",
                   help="suite name or 'all'")
    p.add_argument("--diagram", dest="diagram_spec", metavar="DIAGRAM",
                   default=None)
    p.add_argument("--random-trees", type=int, default=50)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_out", action="store_true")
    p.add_argument("--timings", action="store_true")
    return top


def run(cfg: RunConfig) -> int:
    if cfg.command == "coxeter":
        return run_coxeter(cfg)
    if cfg.command == "cfrac":
        return run_cfrac(cfg)
    if cfg.command == "kostant":
        return run_kostant(cfg)
    if cfg.command == "braid":
        return run_braid(cfg)
    if cfg.command == "verify":
        return run_verify(cfg)
    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        code = run(cfg)
        # a reader that left early (`| head`) shows up here, not in the
        # interpreter's own flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python docs (signal, "Note on SIGPIPE"): send
        # what is still buffered to devnull and exit 1 without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
