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
import functools
import itertools
import json
import os
import random
import shlex
import sys
import time
from argparse import Namespace
from dataclasses import dataclass

from . import algebra, braid, cfrac, coxeter, diagram, identities, kostant
from .algebra import Laurent, Poly, RatFunc
from .errors import DomainError, ExactDivisionError, UnknownVertex, UsageError
from .report import nonzero_terms


# verify's sweep defaults: seeded trees per suite and their most vertices
RANDOM_TREES = 50
MAX_TREE_VERTICES = 8

# verify's sweep bounds: seeded trees per suite (`verify all --random-trees
# 10000` took 9.5 s at 8 vertices, Python 3.11, 2 cores, and 1000 took
# 8.3 s at --max-vertices 32), and the vertices (of a tree too), independent
# cycles and |edge weight| of a --diagram.  cd-char and identity7 take every
# vertex pair, so a sweep grows like n^4 to n^6, and faster with cycles and
# weights: cd-char took 0.95 s on A32, 9.5 s on A48 and 64 s on A32 with
# weights 10^6, identity7 on 32 vertices 0.7 s with one cycle and 2.9 s
# with two.  At the bounds a suite took at most 1.8 s.
MAX_RANDOM_TREES = 10_000
MAX_SWEEP_VERTICES, MAX_SWEEP_CYCLES, MAX_SWEEP_WEIGHT = 32, 1, 2


@dataclass
class CaseResult:
    """A verify case; it holds exactly when residual_terms is 0."""

    suite: str
    case: str
    residual_terms: int
    elapsed_ms: float

    @property
    def holds(self) -> bool:
        return self.residual_terms == 0


def _load_diagram(source: str, order_override: str | None = None) -> diagram.Diagram:
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # a directory or an unreadable file
            raise DomainError(f"cannot read diagram file {source!r}: "
                              f"{exc.strerror}") from None
        except UnicodeDecodeError:
            raise DomainError(f"diagram file {source!r} is not UTF-8 "
                              f"text") from None
        d = diagram.from_text(text)
    else:
        d = diagram.from_name(source)
    if order_override:
        order = [diagram._int_token(t) for t in order_override.split()]
        if None in order:
            raise DomainError(f"order must list vertex indices, "
                              f"got {order_override!r}")
        d = d.with_order(order)
    return d


# ---------------------------------------------------------------------------
# verifier suites
# ---------------------------------------------------------------------------

def _suite_diagrams(args: Namespace, types):
    """Named diagram only when --diagram was given, else the given types;
    a --diagram beyond the sweep bounds is refused before any work."""
    if args.diagram is not None:
        d = _load_diagram(args.diagram)
        cycles = len(coxeter._cyclomatic(d.n, d.edges()))
        weight = max((abs(w) for *_, w in d.edges()), default=0)
        if (d.n > MAX_SWEEP_VERTICES or cycles > MAX_SWEEP_CYCLES
                or weight > MAX_SWEEP_WEIGHT):
            raise DomainError(
                f"{args.diagram} has {d.n} vertices, {cycles} independent "
                f"cycles and weights up to {weight}; a sweep takes at most "
                f"{MAX_SWEEP_VERTICES} vertices, {MAX_SWEEP_CYCLES} cycle "
                f"and weights up to {MAX_SWEEP_WEIGHT}")
        yield args.diagram, d
        return
    for fam, n in types:
        yield f"{fam}{n}", diagram.build(fam, n)


def _seeded_trees(args: Namespace):
    if args.diagram is not None:
        return
    rng = random.Random(args.seed)
    count = RANDOM_TREES if args.random_trees is None else args.random_trees
    most = (MAX_TREE_VERTICES if args.max_vertices is None
            else args.max_vertices)
    for k in range(count):
        n = rng.randint(1, most)
        yield k, diagram.random_tree(rng, n, (1, 2)), rng


def _suite(suite: str, cases, sweeps: bool = False):
    """The verifier of a suite whose cases(args) yields its (case name,
    residuals) pairs; every verifier and every case is made here.  A
    case's residual_terms is the sum of its residuals' nonzero terms (an
    int residual counts as a constant), and its elapsed_ms the time since
    the case before it, the first one the time since the verifier
    started.  The verifier returns the list of its cases, so a span
    around it times the suite's work; sweeps marks the suites that read
    --diagram, --random-trees and --max-vertices."""
    def verify(args: Namespace) -> list[CaseResult]:
        out = []
        prev = time.perf_counter()
        for name, residuals in cases(args):
            terms = sum(map(nonzero_terms, residuals))
            now = time.perf_counter()
            out.append(CaseResult(suite, name, terms, (now - prev) * 1000))
            prev = now
        return out
    # the mark survives functools.wraps, which copies __dict__
    verify.sweeps = sweeps
    return verify


def _sweep(suite: str, types, named, tree):
    """The verifier of a suite that sweeps diagrams.  named(d) gives the
    cases of each diagram of _suite_diagrams and tree(d, rng) those of each
    seeded tree, as (label, residuals) pairs; a case is named
    <diagram>-<label> or tree<k>-<label>, or just <diagram> or tree<k>
    when label is "".  tree draws from rng before the next tree is drawn."""
    def cases(args: Namespace):
        for base, pairs in itertools.chain(
                ((name, named(d)) for name, d in _suite_diagrams(args, types)),
                ((f"tree{k:03d}", tree(d, rng))
                 for k, d, rng in _seeded_trees(args))):
            for label, residuals in pairs:
                yield f"{base}-{label}" if label else base, residuals
    return _suite(suite, cases, sweeps=True)


def _sweeps(suite: str) -> bool:
    return VERIFIERS[suite].sweeps


def _pivot_sweep(suite: str, types, label: str, residual):
    """One case per pivot of each named diagram, <diagram>-<label><pivot>,
    and one per seeded tree at a random pivot; residual(d, pivot) is what
    must vanish."""
    return _sweep(suite, types,
                  lambda d: [(f"{label}{p}", [residual(d, p)])
                             for p in range(d.n)],
                  lambda d, rng: [("", [residual(d, rng.randrange(d.n))])])


def _algebra(args: Namespace):
    rng = random.Random(args.seed)

    def rand_laurent():
        return Laurent({rng.randint(-4, 4): rng.randint(-6, 6)
                        for _ in range(rng.randint(0, 4))})

    ring = []
    for _ in range(60):
        a, b, c = rand_laurent(), rand_laurent(), rand_laurent()
        ring += [(a * b) * c - a * (b * c), a * (b + c) - (a * b + a * c)]
    yield "ring-axioms", ring
    roundtrip = []
    for _ in range(40):
        p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        roundtrip.append(algebra.q_to_z(algebra.z_substitute(p)) - p)
    yield "roundtrip-z", roundtrip
    anti = []
    for _ in range(60):
        f, g = rand_laurent(), rand_laurent()
        bez, wr = algebra.bezoutian(f, g), algebra.wronskian(f, g)
        anti += [bez + algebra.bezoutian(g, f), wr + algebra.wronskian(g, f),
                 bez.subs_y_eq_x() - wr]
    yield "bez-wr-antisymmetry", anti
    det = []
    for _ in range(15):
        mat = [[rand_laurent() for _ in range(4)] for _ in range(4)]
        det.append(algebra.det_exact(mat) - algebra._det_laplace(mat))
    yield "det-vs-laplace", det
    sq = algebra.series_sqrt1p(8)
    yield "sqrt-square", [sq * sq - algebra.TruncSeries(8, (1, 1))]


def _join(args: Namespace):
    cases = [
        ("three-A1", [(diagram.build("A", 1), 0)] * 3),
        ("A4-end", [(diagram.build("A", 4), 3)]),
        ("mixed", [(diagram.build("A", 2), 0), (diagram.build("A", 2), 1),
                   (diagram.build("A", 1), 0)]),
        ("empty", []),
    ]
    for name, parts in cases:
        yield name, [coxeter.join_poly(parts)
                     - coxeter.coxeter_poly(diagram.join(parts))]


def _bipartite(d) -> list:
    split = diagram.bipartite_order(d)
    if isinstance(split, diagram.OddCycle):
        # the witness is a cycle of odd length
        return [("odd-cycle", [1 - len(split.cycle) % 2])]
    return [("", [algebra.z_substitute(coxeter.char_poly(d))
                  - coxeter.coxeter_poly(d.with_order(split))])]


def _cd_char_pairs(d) -> list:
    # one residual per pair, so that no report outlives its pair: on ~A48
    # the reports of all pairs would hold hundreds of MB
    bez, wr = [], []
    for i in range(d.n):
        for j in range(i, d.n):
            r8, r9 = identities.cd_char(d, i, j)
            bez.append(r8.residual)
            wr.append(r9.residual)
    return [("bez", bez), ("wr", wr)]


def _chain(args: Namespace):
    cases = [("A6-full", diagram.build("A", 6), range(6)),
             ("affE8-arm", diagram.build("affE", 8), range(6)),
             ("affE7-arm", diagram.build("affE", 7), range(4)),
             ("affD6-arm", diagram.build("affD", 6), [0, 2]),
             # the long arm of affine E8 extended through the virtual
             # vertex, the new vertex 0 of the join: a 7-vertex tail
             # ending at the branch point
             ("affE8-long-arm-k7",
              diagram.join([(diagram.build("affE", 8), 0)]), range(7))]
    for name, d, tail in cases:
        yield name, [r.residual for r in identities.chain_identities(d, tail)]


def _path_sum(args: Namespace):
    for fam, n in [("A", 5), ("D", 5), ("affA", 4), ("affE", 6)]:
        d = diagram.build(fam, n)
        table = coxeter.cofactors(d)
        yield f"{fam}{n}", (coxeter.path_sum_H(d, i, j) - table[i, j]
                            for i in range(d.n) for j in range(d.n))


def _identity7_tree(d, rng) -> list:
    if d.n < 2:
        return []
    i = rng.randrange(d.n)
    j = (i + 1 + rng.randrange(d.n - 1)) % d.n
    return [("", [coxeter.identity7_check(d, i, j)])]


def _walks(args: Namespace):
    for fam, n in [("affE", 6), ("affA", 2)]:
        d = diagram.build(fam, n)
        g = coxeter.char_poly(d)
        table = coxeter.cofactors(d)
        yield f"{fam}{n}-eq10", (
            coxeter.walk_expansion_residual(g, table[i, j],
                                            coxeter.walk_gf(d, i, j, 20))
            for i in range(d.n) for j in range(d.n))
        yield f"{fam}{n}-series", _klein_residuals(
            "walks", kostant.klein_data(fam, n))


def _binet_cauchy(args: Namespace):
    a5, a2 = diagram.build("A", 5), diagram.build("A", 2)
    for name, d, xs, ys in [("A5-m1", a5, [2], [3]),
                            ("A5-m2", a5, [2, 3], [5, 7]),
                            ("A5-m3", a5, [1, 2, 3], [4, 5, 6]),
                            ("A2-full", a2, [2, 3], [5, 7])]:
        yield name, [identities.binet_cauchy(d, 0, 1, xs, ys).residual]


def _poincare_cd(args: Namespace):
    for fam, n in [("affD", 4), ("affE", 6)]:
        data = kostant.klein_data(fam, n)
        yield f"{fam}{n}", [r.residual for i in range(data.vertex_count)
                            for r in identities.poincare_cd(data, i)]
    for n in range(1, 9):
        data = kostant.klein_data("affA", n)
        reps = list(identities.poincare_cd(data, 0))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                reps += identities.poincare_cd(data, i, j)
        if n % 2 and n >= 3:
            reps += identities.poincare_cd_antipodal_choices(data)
        yield f"affA{n}", [r.residual for r in reps]


def _cfrac_tree(args: Namespace):
    for name in ("~D4", "~D5", "~D6", "~E6", "~E7", "~E8"):
        d = diagram.from_name(name)
        node = cfrac.expand_tree(d, 0)
        val = cfrac.evaluate(node)
        data = kostant.klein_data(*diagram.parse_name(name))
        lhs = algebra.z_substitute(val.num) * data.denominator()
        rhs = Laurent.q(1) * data.z_table[0] * algebra.z_substitute(val.den)
        yield name, [cfrac.z_count(node) - d.n,
                     (val - cfrac.tree_ratio(d, 0)).num, lhs - rhs]


def _cfrac_cycle(args: Namespace):
    for n in range(1, 11):
        node = cfrac.expand_cycle(n)
        d = diagram.build("affA", n)
        yield f"affA{n}", [cfrac.z_count(node) - (n if n % 2 else n + 1),
                           (cfrac.evaluate(node) - cfrac.tree_ratio(d, 0)).num]


# ---------------------------------------------------------------------------
# Klein-group checks
# ---------------------------------------------------------------------------

# The checks on one Klein group, keyed by their kostant --verify mode
# ("prop2" runs only under "all"): the case name kostant --verify gives a
# check, and the function from the group data to its reports.  The suites
# kostant-tables, ebeling, squares, prop2-squares and walks bundle the same
# reports under case names of their own.  Each function looks its kostant
# routine up when it runs, so a wrapped or patched routine is the one called.
KLEIN_CHECKS = {
    "17": ("ratios-17", lambda data: kostant.ebeling_ratios(data)),
    **{str(w): (f"system-{w}",
                lambda data, w=w: [kostant.verify_system(data, w)])
       for w in (14, 15, 16)},
    "squares": ("perfect-square",
                lambda data: [kostant.perfect_square_check(data)]),
    "walks": ("walks", lambda data: [kostant.walk_series_check(data, i, 20)
                                     for i in range(data.vertex_count)]),
    "prop2": ("prop2-squares", lambda data: [
        kostant.prop2_squares(data, i) for i in range(1, data.vertex_count)]),
}


def _klein_residuals(mode: str, data) -> list:
    return [r.residual for r in KLEIN_CHECKS[mode][1](data)]


def _klein_suite(suite: str, mode: str, types):
    """The verifier with one case per Klein type of types: the reports of
    its KLEIN_CHECKS mode."""
    return _suite(suite, lambda args: (
        (f"{fam}{n}", _klein_residuals(mode, kostant.klein_data(fam, n)))
        for fam, n in types))


def _kostant_tables(args: Namespace):
    for fam, n in kostant.klein_types(12):
        data = kostant.klein_data(fam, n)
        zt = data.z_table
        # Z_i(1) is twice the dimension of irrep i (McKay), and the squared
        # dimensions sum to |B|
        dims = [sum(v for _, v in z.items()) for z in zt]
        try:
            cramer = [a - b for a, b in zip(kostant.cramer_z_table(data), zt)]
        except ExactDivisionError:  # a wrong Z_-1: one failing term
            cramer = [1]
        yield f"{fam}{n}", [
            *cramer,
            zt[0] - Laurent.one() - Laurent.q(data.h),
            4 * data.order_b - sum(x * x for x in dims),
            # a count: the numerators outside degrees 0..h or with a term < 0
            sum(not (0 <= z.min_exp and z.max_exp <= data.h
                     and all(v >= 0 for _, v in z.items())) for z in zt)]
        for w in (14, 15, 16):
            yield f"{fam}{n}-system{w}", _klein_residuals(str(w), data)


def _a2m(args: Namespace):
    for m in range(9):
        yield f"m{m}", [kostant.a2m_closed_form(m).residual]


def _burau(args: Namespace):
    rng = random.Random(args.seed)
    mult, rel = [], []
    for _ in range(200):
        n = rng.randint(2, 4)
        # the first word takes all its draws before the second
        w1, w2 = (braid.BraidWord(n, tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 6)))) for _ in range(2))
        for red in (False, True):
            lhs = braid.burau(w1 * w2, red).entries
            rhs = algebra.mat_mul(braid.burau(w1, red).entries,
                                  braid.burau(w2, red).entries)
            mult += _entry_differences(lhs, rhs)
    yield "multiplicativity-200", mult
    for n in (3, 4):
        for i in range(1, n - 1):
            a = braid.BraidWord(n, (i,))
            b = braid.BraidWord(n, (i + 1,))
            for red in (False, True):
                lhs = braid.burau(a * b * a, red).entries
                rhs = braid.burau(b * a * b, red).entries
                rel += _entry_differences(lhs, rhs)
    yield "braid-relations", rel


def _entry_differences(a, b) -> list:
    """The nonzero entrywise differences of two matrices of one shape: the
    ~6400 zeros of multiplicativity-200, kept, took the suite's traced peak
    memory from 0.3 to 0.9 MB."""
    return [r for ra, rb in zip(a, b) for x, y in zip(ra, rb) if (r := x - y)]


def _milnor(args: Namespace):
    """Each residual is a table entry or relation minus its value, so a
    case's residual_terms count the ones that disagree."""
    table = braid.milnor(braid.BraidWord(2, (1, 1)), 6)
    # the Hopf link: mu(2, 1) = 1, and an entry ending in (1, 1) is
    # (-1)^(length - 1) on 1...1 and 0 on any other index
    yield "hopf-order6", [table.mu(2, 1) - 1] + [
        val - ((-1) ** (len(idx) - 1) if set(idx) == {1} else 0)
        for idx, val in table.entries.items()
        if len(idx) >= 2 and idx[-2:] == (1, 1)]
    borr = braid.BraidWord(3, (1, -2, 1, -2, 1, -2))
    t = braid.milnor(borr, 3)
    mu = t.mu(2, 3, 1)
    # the Borromean rings: unlinked in pairs, |mu(2, 3, 1)| = 1, invariant
    # under cyclic shifts and odd under reversal
    yield "borromean", [*braid.linking_matrix(borr).values(), abs(mu) - 1,
                        mu - t.mu(3, 1, 2), mu - t.mu(1, 2, 3),
                        mu + t.mu(3, 2, 1)]


def _levin(args: Namespace):
    for name, word, order in [("hopf-16", (1, 1), 16),
                              ("t24-12", (1, 1, 1, 1), 12),
                              ("t26-10", (1,) * 6, 10),
                              ("neg-hopf-12", (-1, -1), 12),
                              ("identity-8", (), 8)]:
        rep = braid.levin_check(braid.BraidWord(2, word), order)
        yield name, [rep.lhs - rep.rhs]


def _burau_ratio(args: Namespace):
    """det_ratio(s1^k, s1^(m - k)) against the Conway ratio of the torus
    links T(2, k) and T(2, m), the closures of s1^k and s1^m, up to a unit."""
    for name, k, m in [("unknot-vs-trefoil", 1, 3), ("hopf-vs-trefoil", 2, 3)]:
        ratio = braid.det_ratio(braid.BraidWord(2, (1,) * k),
                                braid.BraidWord(2, (1,) * (m - k)))
        cat = RatFunc(braid.t_poly_to_laurent(braid.conway_torus2(k)),
                      braid.t_poly_to_laurent(braid.conway_torus2(m)))
        sub = RatFunc(_q_square(ratio.num), _q_square(ratio.den))
        yield name, [int(braid.unit_match(sub, cat) is None)]


def _q_square(p: Laurent) -> Laurent:
    """Substitute the Burau variable t = q^2."""
    return Laurent({2 * k: v for k, v in p.items()})


def _divide(args: Namespace):
    rng = random.Random(args.seed)
    cases = [("smallest", [[2]], [[1]], [[1]]), ("empty", [], [], [])]
    for k in range(20):
        p, r, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(0, 2) for _ in range(r)] for _ in range(p)]
        bp = [[rng.randint(0, 2) for _ in range(s)] for _ in range(r)]
        c = [[sum(a[i][t] * bp[t][j] for t in range(r)) for j in range(s)]
             for i in range(p)]
        cases.append((f"random{k:02d}", a,
                      [[2 * x for x in row] for row in bp], c))
    for name, a, b, c in cases:
        yield name, [coxeter.divide_identity(a, b, c).residual]


VERIFIERS = {
    "algebra": _suite("algebra", _algebra),
    "schur": _pivot_sweep("schur", diagram.ade_types(8), "pivot",
                          lambda d, p: coxeter.schur_step(d, p).residual),
    "join": _suite("join", _join),
    "bipartite": _sweep("bipartite", diagram.ade_types(12), _bipartite,
                        lambda d, rng: _bipartite(d)),
    "cd-coxeter": _pivot_sweep(
        "cd-coxeter", diagram.ade_types(10), "p",
        lambda d, p: identities.cd_coxeter(d, p).residual),
    "cd-wronskian": _pivot_sweep(
        "cd-wronskian", diagram.ade_types(10), "p",
        lambda d, p: identities.cd_wronskian(d, p).residual),
    "cd-char": _sweep(
        "cd-char", diagram.ade_types(10), _cd_char_pairs,
        lambda d, rng: [("", [r.residual for r in identities.cd_char(
            d, rng.randrange(d.n), rng.randrange(d.n))])]),
    "chain": _suite("chain", _chain),
    "path-sum": _suite("path-sum", _path_sum),
    "identity7": _sweep(
        "identity7", [("A", 4), ("D", 5), ("affA", 5), ("affE", 6)],
        lambda d: [("", (coxeter.identity7_check(d, i, j) for i in range(d.n)
                         for j in range(d.n) if i != j))],
        _identity7_tree),
    "walks": _suite("walks", _walks),
    "binet-cauchy": _suite("binet-cauchy", _binet_cauchy),
    "poincare-cd": _suite("poincare-cd", _poincare_cd),
    "cfrac-tree": _suite("cfrac-tree", _cfrac_tree),
    "cfrac-cycle": _suite("cfrac-cycle", _cfrac_cycle),
    "kostant-tables": _suite("kostant-tables", _kostant_tables),
    "ebeling": _klein_suite("ebeling", "17", kostant.klein_types(12)),
    "a2m": _suite("a2m", _a2m),
    "squares": _klein_suite("squares", "squares", kostant.klein_types(12)),
    "prop2-squares": _klein_suite("prop2-squares", "prop2", [
        ("affA", 3), ("affA", 4), ("affD", 4), ("affD", 6), ("affE", 6),
        ("affE", 7), ("affE", 8)]),
    "burau": _suite("burau", _burau),
    "milnor": _suite("milnor", _milnor),
    "levin": _suite("levin", _levin),
    "burau-ratio": _suite("burau-ratio", _burau_ratio),
    "divide": _suite("divide", _divide),
}

# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def run_coxeter(args: Namespace) -> int:
    d = _load_diagram(args.diagram, args.order)
    if args.char:
        poly = coxeter.char_poly(d).render("z")
    else:
        poly = coxeter.coxeter_poly(d).render("q")
    if args.json:
        _emit({"diagram": args.diagram, "order": list(d.order),
               "poly": poly})
    else:
        print(poly)
    return 0


def run_cfrac(args: Namespace) -> int:
    if os.path.exists(args.diagram):
        # a diagram file must be a tree; expand_tree raises NotATree
        node = cfrac.expand_tree(_load_diagram(args.diagram), args.root)
    else:
        fam, rank = diagram.parse_name(args.diagram)
        if fam == "affA":
            # every vertex of the cycle gives the same expansion, but the
            # root must still be one of them
            if not 0 <= args.root <= rank:
                raise UnknownVertex(f"no vertex {args.root}")
            node = cfrac.expand_cycle(rank)
        else:
            node = cfrac.expand_tree(diagram.build(fam, rank), args.root)
    if args.format == "eval":
        print(cfrac.evaluate(node).render("z"))
    else:
        print(cfrac.render(node, args.format))
    return 0


def run_kostant(args: Namespace) -> int:
    if args.terms is not None and args.series is None:
        raise UsageError("--terms applies only with --series")
    if args.timings and args.verify is None:
        raise UsageError("--timings applies only with --verify")
    fam, rank = diagram.parse_name(args.type)
    data = kostant.klein_data(fam, rank)
    if args.series is not None:
        terms = 40 if args.terms is None else args.terms
        series = kostant.poincare_series(data, args.series, terms)
        if args.json:
            _emit({"type": args.type, "vertex": args.series,
                   "terms": terms, "series": series.render()})
        else:
            print(series.render())
        return 0
    if args.verify is None:
        payload = {"type": args.type, "a": data.a, "b": data.b,
                   "h": data.h, "group_order": data.order_b,
                   "Z": [z.render() for z in data.z_table],
                   "Z_minus1": data.z_minus1.render()}
        if args.json:
            _emit(payload)
        else:
            for key, val in payload.items():
                print(f"{key}: {val}")
        return 0
    modes = KLEIN_CHECKS if args.verify == "all" else [args.verify]
    verify = _suite("kostant", lambda _: (
        (KLEIN_CHECKS[m][0], _klein_residuals(m, data)) for m in modes))
    return _print_cases(args, verify(args))


def run_braid(args: Namespace) -> int:
    mode = args.mode
    word = braid.BraidWord.parse(args.word, args.strands)
    if mode == "burau":
        img = braid.burau(word, args.reduced)
        rows = [[e.render("t") for e in row] for row in img.entries]
        if args.json:
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
        series = braid.magnus(lon[0], word.strands, args.order)
        for mono, coeff in sorted(series.items()):
            name = "1" if not mono else "*".join(f"u{i}" for i in mono)
            print(f"{coeff} {name}")
        return 0
    if mode == "milnor":
        table = braid.milnor(word, args.order)
        for idx in sorted(table.entries, key=lambda w: (len(w), w)):
            print(f"mu{list(idx)} = {table.entries[idx]}")
        return 0
    if mode == "levin":
        rep = braid.levin_check(word, args.order)
        print(f"lhs: {rep.lhs.render()}")
        print(f"rhs: {rep.rhs.render()}")
        print(f"holds: {rep.holds}" + (" (degenerate)" if rep.degenerate else ""))
        return 0 if rep.holds else 1
    # the last mode, ratio
    other = braid.BraidWord.parse(args.against, word.strands)
    print(braid.det_ratio(word, other).render("t"))
    return 0


def _word_text(word) -> str:
    if not word:
        return "1"
    return " ".join((f"x{g}" if g > 0 else f"x{-g}^-1") for g in word)


def _rerun_command(args: Namespace, suite: str) -> str:
    """The command line that runs a failing case's suite again."""
    if args.command == "kostant":
        return (f"coxkit kostant --type {shlex.quote(args.type)} "
                f"--verify {args.verify}")
    words = ["coxkit", "verify", suite, "--seed", str(args.seed)]
    if _sweeps(suite):
        for flag, value in _sweep_options(args):
            words += [flag, shlex.quote(str(value))]
    return " ".join(words)


def _sweep_options(args: Namespace) -> list:
    """The sweep options on the command line, as (flag, value) pairs."""
    return [(f"--{dest.replace('_', '-')}", value)
            for dest in ("diagram", "random_trees", "max_vertices")
            if (value := getattr(args, dest)) is not None]


def _print_cases(args: Namespace, cases: list[CaseResult]) -> int:
    cases.sort(key=lambda c: (c.suite, c.case))
    for c in cases:
        if args.json:
            record = {"suite": c.suite, "case": c.case, "holds": c.holds,
                      "residual_terms": c.residual_terms}
            if args.timings:
                record["elapsed_ms"] = round(c.elapsed_ms, 3)
            _emit(record)
            continue
        took = f" ({c.elapsed_ms:.3f} ms)" if args.timings else ""
        if c.holds:
            print(f"[ok ] {c.suite}: {c.case}{took}")
        else:
            print(f"[FAIL] {c.suite}: {c.case}{took}")
            print(f"       rerun: {_rerun_command(args, c.suite)}")
    bad = sum(1 for c in cases if not c.holds)
    if not args.json:
        print(f"{len(cases) - bad}/{len(cases)} checks hold")
    return 0 if bad == 0 else 1


def run_verify(args: Namespace) -> int:
    names = list(VERIFIERS) if args.suite == "all" else [args.suite]
    for flag, _ in _sweep_options(args):
        # --diagram replaces every suite's inputs, so each must sweep and
        # none draws trees; a tree option needs one suite that draws them
        if flag != "--diagram" and args.diagram is not None:
            raise UsageError(f"{flag} cannot be given with --diagram")
        if not (all if flag == "--diagram" else any)(map(_sweeps, names)):
            raise UsageError(f"{flag} applies only to the suites "
                             f"{', '.join(filter(_sweeps, VERIFIERS))}, "
                             f"not to {args.suite}")
    return _print_cases(args, [c for name in names
                               for c in VERIFIERS[name](args)])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_in(lo: int, hi: int):
    """The argparse type of an int in lo..hi."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}")
        return value
    # argparse names the type in its "invalid int value" message
    parse.__name__ = "int"
    return parse


class _Missing(UsageError):
    """argparse's error for missing required arguments."""


class _Parser(argparse.ArgumentParser):
    """Every bad command line ends in a UsageError, not in argparse's usage
    block and exit, and an unknown option is named before a missing one
    (known: a prefix of one of the parser's options, as argparse reads it)."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_known_args(args, namespace)
        except _Missing as exc:
            unknown = [a for a in args if a.startswith("--") and not any(
                s.startswith(a.split("=")[0])
                for s in self._option_string_actions)]
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}"
                             if unknown else str(exc)) from None

    def error(self, message):
        raise (_Missing if "arguments are required" in message
               else UsageError)(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one table of options: each mode takes only the options it reads,
    so any other is refused.  Built once per process, since a caller may
    run main once per suite; the parser is shared, so nothing changes it."""
    top = _Parser(
        prog="coxkit",
        description="Exact identities for Coxeter polynomials, Klein-group "
                    "Poincare series, continued fractions and braid invariants.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coxeter", help="Coxeter/characteristic polynomial")
    p.add_argument("--diagram", required=True,
                   help="name (A5, ~E7, ...) or diagram file path")
    p.add_argument("--char", action="store_true",
                   help="characteristic polynomial in z instead")
    p.add_argument("--order", help="space-separated vertex order override")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cfrac", help="branching continued fraction")
    p.add_argument("--diagram", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--format", default="latex",
                   choices=("latex", "ascii", "eval"))

    p = sub.add_parser("kostant", help="Poincare series data and checks")
    p.add_argument("--type", required=True, help="affine name, e.g. ~E8")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--series", type=int,
                       help="vertex index (-1 for the virtual vertex)")
    group.add_argument("--verify", choices=(
        "all", *(m for m in KLEIN_CHECKS if m != "prop2")))
    p.add_argument("--terms", type=_int_in(0, kostant.MAX_TERMS),
                   help="number of series terms (default 40)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("braid", help="Burau, Milnor, Levin tools")
    word = _Parser(add_help=False)
    word.add_argument("--word", required=True, help='tokens like "s1 s1 -s2"')
    word.add_argument("--strands", type=int)
    modes = p.add_subparsers(dest="mode", required=True)
    for mode in ("burau", "milnor", "levin", "artin", "longitudes", "magnus",
                 "ratio"):
        m = modes.add_parser(mode, parents=[word])
        if mode in ("magnus", "milnor", "levin"):
            # a Milnor invariant has length at least 1
            lo = 1 if mode == "milnor" else 0
            m.add_argument("--order", type=_int_in(lo, braid.MAX_ORDER),
                           default=16,
                           help="series order (default 16)")
        if mode == "burau":
            m.add_argument("--unreduced", dest="reduced", action="store_false",
                           help="unreduced Burau image (default: reduced)")
            m.add_argument("--json", action="store_true")
        if mode == "ratio":
            # the reduced image only: see braid.det_ratio
            m.add_argument("--against", required=True,
                           help="the second braid word")

    p = sub.add_parser("verify", help="run exact identity suites")
    p.add_argument("suite", metavar="name", nargs="?", default="all",
                   choices=("all", *VERIFIERS), help="suite name or 'all'")
    # the sweep options: unset is None, and only the suites of _sweep read
    # them (_seeded_trees applies the defaults)
    p.add_argument("--diagram")
    p.add_argument("--random-trees", type=_int_in(0, MAX_RANDOM_TREES),
                   help=f"seeded trees per suite, 0..{MAX_RANDOM_TREES} "
                        f"(default {RANDOM_TREES})")
    p.add_argument("--max-vertices", type=_int_in(1, MAX_SWEEP_VERTICES),
                   help=f"most vertices of a tree, 1..{MAX_SWEEP_VERTICES} "
                        f"(default {MAX_TREE_VERTICES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    return top


RUNNERS = {
    "coxeter": run_coxeter,
    "cfrac": run_cfrac,
    "kostant": run_kostant,
    "braid": run_braid,
    "verify": run_verify,
}


def run_piped(body, *args) -> int:
    """body(*args), its exit code, with stdout flushed at the end; a reader
    that left early (`| head`) ends the run with exit 1 and no traceback."""
    try:
        code = body(*args)
        # a closed pipe shows up here, not in the interpreter's own flush
        # at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python docs (signal, "Note on SIGPIPE"): send
        # what is still buffered to devnull and exit 1 without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_piped(_main, argv)


if __name__ == "__main__":
    sys.exit(main())
