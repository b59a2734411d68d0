#!/usr/bin/env python3
"""Check the polynomial engines on every labeled graph on 6 vertices.

Each graph gets seeded weights from {1, 2} and a seeded shuffled vertex
order.  Under each setting of the expansion gate, with empty memos, it
checks that
- coxeter_poly equals det_exact of the Coxeter matrix,
- char_poly, and the determinant of the Faddeev-LeVerrier pass, equal
  det_poly of zE - A (A the weighted adjacency), forests included,
- the trace of the cofactor table equals the derivative of that
  determinant, and
- cd_char at every pair, and cd_coxeter and cd_wronskian at the first
  vertex of the seeded order, hold with sides that are equal when read:
  each of them is decided by a packed comparison, and its sides are made
  only when read.
A gate of -1 sends every graph with a cycle to Bareiss (coxeter_poly) and
to Faddeev-LeVerrier (char_poly); a large gate sends every one through
Schwenk's edge step, read in q and in z.  The pass itself and the cofactor
table run on every graph at either gate.  The tier-1 test
tests/test_small_graphs.py runs the same checks on 1-5 vertices, plus on at
most 4 the two Christoffel-Darboux forms at every pivot, the cofactor
table against the signed minors of zE - A (det_poly), the Schur step at
every pivot, and det_exact of the Coxeter matrix against Laplace
expansion.  The 32768 graphs took about 101 s per gate on a 2-core VM
with Python 3.11.7 (about 100 s without the pass and trace checks, since
cd_char builds the same cofactor table; about 23 s before the
Christoffel-Darboux checks).

Usage:
    python scripts/sweep_small_graphs.py
"""

import importlib
import pkgutil
import random
import sys
from itertools import combinations

import coxkit
from coxkit import coxeter, identities
from coxkit.algebra import Poly, _det_laplace, det_exact, det_poly
from coxkit.diagram import Diagram

GATES = (-1, 1 << 30)


def labeled_graphs(n: int, rng: random.Random):
    """Every graph on vertices 0..n-1, weights and order drawn from rng."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = {p: rng.choice((1, 2))
                 for k, p in enumerate(pairs) if mask >> k & 1}
        order = list(range(n))
        rng.shuffle(order)
        yield Diagram(n, edges, order=order)


def clear_memos() -> None:
    """Empty every functools memo of the coxkit modules, so that no gate
    reads what was computed under the other."""
    for info in pkgutil.iter_modules(coxkit.__path__):
        module = importlib.import_module(f"coxkit.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def signed_minor(m, i: int, j: int) -> Poly:
    """The cofactor of the polynomial matrix m at (i, j): (-1)^(i+j) times
    det_poly of m less row i and column j."""
    det = det_poly([[x for c, x in enumerate(row) if c != j]
                    for r, row in enumerate(m) if r != i])
    return -det if (i + j) % 2 else det


def failed_checks(d: Diagram, tables: bool) -> list[str]:
    """The checks that fail on d: coxeter_poly, char_poly and the
    Faddeev-LeVerrier determinant against their determinants, the trace of
    the cofactor table against G', and cd_char at every pair and both
    Christoffel-Darboux forms at the first vertex of d's order, each
    holding with lhs == rhs, so that the packed verdict that decides them
    agrees with the sides made when read; tables takes the two forms at
    every pivot, and adds every cofactor against the signed minor of
    zE - A, the Schur step at every pivot, and det_exact of the Coxeter
    matrix against Laplace expansion.  The order is seeded, so the pivots
    of a sweep vary from graph to graph; every pivot of 6-vertex graphs
    took the sweep from 3.5 to 8 minutes."""
    bad = []
    if coxeter.coxeter_poly(d) != det_exact(coxeter.coxeter_matrix(d)):
        bad.append("coxeter_poly")
    z_minus_a = [[Poly.x() if r == c else Poly.const(-d.weight(r, c))
                  for c in range(d.n)] for r in range(d.n)]
    g = det_poly(z_minus_a)
    if coxeter.char_poly(d) != g:
        bad.append("char_poly")
    if Poly(coxeter._faddeev_leverrier(d)[0]) != g:
        bad.append("Faddeev-LeVerrier determinant")
    table = coxeter.cofactors(d)
    trace = sum((table[i, i] for i in range(d.n)), Poly.zero())
    if trace != Poly([k * c for k, c in enumerate(g.coeffs)][1:]):
        bad.append("cofactor trace")
    sums = [(f"cd_char {i} {j}", rep) for i in range(d.n)
            for j in range(i, d.n) for rep in identities.cd_char(d, i, j)]
    for p in range(d.n) if tables else d.order[:1]:
        sums += [(f"cd_coxeter pivot {p}", identities.cd_coxeter(d, p)),
                 (f"cd_wronskian pivot {p}", identities.cd_wronskian(d, p))]
    bad += [name for name, rep in sums
            if not (rep.holds and rep.lhs == rep.rhs)]
    if tables:
        bad += [f"cofactor {i} {j}" for i in range(d.n) for j in range(d.n)
                if table[i, j] != signed_minor(z_minus_a, i, j)]
        bad += [f"schur pivot {p}" for p in range(d.n)
                if not coxeter.schur_step(d, p).residual.is_zero]
        matrix = coxeter.coxeter_matrix(d)
        if det_exact(matrix) != _det_laplace(matrix):
            bad.append("det_exact against Laplace")
    return bad


def main() -> int:
    n, failures = 6, 0
    saved = coxeter._EXPAND_MAX
    try:
        for gate in GATES:
            coxeter._EXPAND_MAX = gate
            clear_memos()
            count = 0
            for d in labeled_graphs(n, random.Random(n)):
                count += 1
                for check in failed_checks(d, tables=False):
                    failures += 1
                    print(f"FAIL gate {gate}: {check} on {d.n} vertices, "
                          f"edges {d.edges()}, order {d.order}")
            print(f"gate {gate}: {count} graphs on {n} vertices checked")
    finally:
        coxeter._EXPAND_MAX = saved
        clear_memos()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
