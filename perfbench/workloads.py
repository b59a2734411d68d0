"""Inputs, ops and exact checks of the three benchmark workloads.

A workload is a list of groups; a group is the list of ops that share one
input (one verify suite, one diagram, one braid pair, ...).  A pass runs
and times every op of a group, then checks each op against the results of
the whole group, so that relations between results (the Coxeter polynomial
of a tree is G(q + 1/q), the trace of the cofactor table is G') can be
checked.  An op fails when its call raises or its check returns False; the
pass counts it and goes on.

Checks use plain integer arithmetic on coefficient tuples, not the kernel
under test, except where the workload's purpose is to exercise a kernel
helper (``algebra.mat_eq`` on Burau images).

The library is always reached through module attributes
(``coxeter.char_poly``), never through names bound here, so the traced run
sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from math import comb
from typing import Callable

from coxkit import (algebra, braid, cfrac, cli, coxeter, diagram, identities,
                    kostant)

# the 25 suites of `coxkit verify all`, fixed here so the workload does not
# change when the CLI registry does
SUITES = (
    "algebra", "schur", "join", "bipartite", "cd-coxeter", "cd-wronskian",
    "cd-char", "chain", "path-sum", "identity7", "walks", "binet-cauchy",
    "poincare-cd", "cfrac-tree", "cfrac-cycle", "kostant-tables", "ebeling",
    "a2m", "squares", "prop2-squares", "burau", "milnor", "levin",
    "burau-ratio", "divide",
)
TINY_SUITES = ("algebra", "join", "a2m", "levin")


@dataclass
class Op:
    """One timed library call and the check of its result.

    ``check`` receives the results of the whole group keyed by op kind.
    """

    name: str
    kind: str
    call: Callable[[], object]
    check: Callable[[dict], bool]


# a host-speed probe runs after every op that ends this many seconds of op
# time after the previous probe, and at the end of the pass
PROBE_EVERY_S = 0.25


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    # for each op, the mean of the host-speed probes before and after the
    # stretch of ops it belongs to
    probes: list[float] = field(default_factory=list)
    probe_s: float = 0.0  # wall time spent in probes
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_pass(groups: list[list[Op]],
             probe: Callable[[], float]) -> PassResult:
    """Run, time and check every op; failures are counted, never raised.

    The host's speed is probed (hostspeed.probe) before the first op, then
    every PROBE_EVERY_S of op time, and after the last op.  The probes lie
    between ops, outside every latency."""
    out = PassResult()
    since = 0.0  # op time since the last probe
    begun = 0  # index of the first op since the last probe

    def take_probe() -> float:
        start = time.perf_counter()
        value = probe()
        out.probe_s += time.perf_counter() - start
        return value

    def close_stretch() -> None:
        nonlocal last, begun, since
        now = take_probe()
        out.probes += [(last + now) / 2] * (len(out.latencies) - begun)
        last, begun, since = now, len(out.latencies), 0.0

    last = take_probe()
    for group in groups:
        results = {}
        for op in group:
            out.attempted += 1
            start = time.perf_counter()
            try:
                results[op.kind] = op.call()
            except Exception:  # an op that raises is a failed op; go on
                last_line = traceback.format_exc(limit=1).splitlines()[-1]
                out.errors.append(f"{op.name}: {last_line}")
            out.latencies.append(time.perf_counter() - start)
            since += out.latencies[-1]
            if since >= PROBE_EVERY_S:
                close_stretch()
        for op in group:
            if op.kind not in results:
                out.failed += 1
                continue
            try:
                ok = op.check(results)
            except Exception:  # a check that cannot be evaluated fails
                ok = False
            if not ok:
                out.failed += 1
                out.errors.append(f"{op.name}: check failed")
    if begun < len(out.latencies):
        close_stretch()
    return out


# ---------------------------------------------------------------------------
# integer coefficient helpers for the checks
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _z_to_q(g) -> tuple[tuple[int, int], ...]:
    """g(q + 1/q) as sorted (exponent, coefficient) pairs."""
    out: dict[int, int] = {}
    for k, c in enumerate(g):
        for j in range(k + 1):
            out[k - 2 * j] = out.get(k - 2 * j, 0) + c * comb(k, j)
    return tuple(sorted((e, c) for e, c in out.items() if c))


def _cycle_char(n: int) -> tuple[int, ...]:
    """2 T_n(z/2) - 2, the characteristic polynomial of the n-cycle, from
    C_0 = 2, C_1 = z, C_(k+1) = z C_k - C_(k-1)."""
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    cur[0] -= 2
    return _trim(cur)


def _sub(a, b) -> tuple[int, ...]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _tree_char(d) -> tuple[int, ...]:
    """det(zE - A) of a tree by expansion at its leaves, computed from the
    edge list alone: rooted at 0, the subtree of v has char poly
    f_v = z P_v - sum_c w_vc^2 g_c prod_(c' != c) f_c', where c runs over
    the children of v, P_v = prod_c f_c and g_c = P_c."""
    nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(d.n)}
    for i, j, w in d.edges():
        nbrs[i].append((j, w))
        nbrs[j].append((i, w))
    order, parent = [0], {0: None}
    for v in order:
        for u, _ in nbrs[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    f, g = {}, {}
    for v in reversed(order):
        prod, rest = (1,), ()
        for c, w in nbrs[v]:
            if c == parent[v]:
                continue
            # rest: sum over the children seen so far of w^2 g_c times
            # the product of the f of the others
            rest = _sub(_mul(rest, f[c]), _mul((-w * w,), _mul(g[c], prod)))
            prod = _mul(prod, f[c])
        f[v], g[v] = _sub(_mul((0, 1), prod), rest), prod
    return f[0]


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

def _verify_call(suite: str, seed: int):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", suite, "--seed", str(seed), "--json"])
        return code, buf.getvalue()
    return call


def _verify_ok(results) -> bool:
    code, text = results["verify"]
    records = [json.loads(line) for line in text.splitlines()]
    return code == 0 and bool(records) and all(r["holds"] is True
                                               for r in records)


def verify_sweep(seed: int, tiny: bool = False) -> list[list[Op]]:
    suites = TINY_SUITES if tiny else SUITES
    return [[Op(f"verify:{s}", "verify", _verify_call(s, seed), _verify_ok)]
            for s in suites]


# ---------------------------------------------------------------------------
# rank-scan
# ---------------------------------------------------------------------------

def _char_ok(d, is_tree: bool, results) -> bool:
    g = results["char"].coeffs
    return g == (_tree_char(d) if is_tree else _cycle_char(d.n))


def _cox_ok(d, is_tree: bool, results) -> bool:
    cox = results["cox"].items()
    g = results["char"].coeffs
    if is_tree:
        return cox == _z_to_q(g)
    # det(qS + q^-1 S^t) is invariant under q -> 1/q, equals
    # det(2E - A) = G(2) at q = 1 and, as the q-part of qS is unit upper
    # triangular, runs from q^-n to q^n with leading coefficients 1
    return (len(cox) >= 2 and cox[0] == (-d.n, 1) and cox[-1] == (d.n, 1)
            and cox == tuple((-e, c) for e, c in reversed(cox))
            and sum(c for _, c in cox) == sum(c << k for k, c in enumerate(g)))


def _cof_ok(results) -> bool:
    table = results["cof"]
    g = results["char"].coeffs
    n = table.n
    if any(table[i, j] != table[j, i] for i in range(n) for j in range(i)):
        return False
    trace = [0] * n
    for i in range(n):
        for k, c in enumerate(table[i, i].coeffs):
            trace[k] += c
    return _trim(trace) == _trim([k * c for k, c in enumerate(g)][1:])


def _cfrac_ok(results) -> bool:
    """The value of the fraction rooted at 0 is H_00 / G."""
    value = results["cfrac"]
    h00 = results["cof"][0, 0].coeffs
    g = results["char"].coeffs
    return _mul(value.num.coeffs, g) == _mul(value.den.coeffs, h00)


def _diagram_group(name: str, d: diagram.Diagram) -> list[Op]:
    is_tree = d.is_tree()
    ops = [
        Op(f"char_poly:{name}", "char", lambda: coxeter.char_poly(d),
           lambda r: _char_ok(d, is_tree, r)),
        Op(f"coxeter_poly:{name}", "cox", lambda: coxeter.coxeter_poly(d),
           lambda r: _cox_ok(d, is_tree, r)),
        Op(f"cofactors:{name}", "cof", lambda: coxeter.cofactors(d), _cof_ok),
    ]
    if is_tree:
        ops.append(Op(f"cfrac:{name}", "cfrac",
                      lambda: cfrac.evaluate(cfrac.expand_tree(d, 0)),
                      _cfrac_ok))
    return ops


def rank_scan(seed: int, tiny: bool = False) -> list[list[Op]]:
    ranks, tree_sizes = ((4, 6), (5, 7)) if tiny else ((16, 32, 48),
                                                       (16, 24, 32, 48))
    named = [(f"{fam}{n}", diagram.build(fam, n))
             for fam in ("A", "D", "affA", "affD") for n in ranks]
    named += [("E8", diagram.build("E", 8)),
              ("affE8", diagram.build("affE", 8))]
    # Tree shapes come from one fixed generator and edge weights from the
    # seed.  Over seeds 1-10 the shape of a random recursive tree moved the
    # pass's Poly coefficient products by 23% (quartile spread), almost the
    # whole bound on pass_s; weights drawn on a fixed shape move them by 0.
    shapes = random.Random(0)
    rng = random.Random(seed)
    for n in tree_sizes:
        shape = diagram.random_tree(shapes, n)
        named.append((f"tree{n}", diagram.Diagram(
            n, {(i, j): rng.choice((1, 2)) for i, j, _ in shape.edges()})))
    return [_diagram_group(name, d) for name, d in named]


# ---------------------------------------------------------------------------
# series-braid
# ---------------------------------------------------------------------------

def _affine_types(max_rank: int):
    out = [("affA", k) for k in range(1, max_rank + 1)]
    out += [("affD", k) for k in range(4, max_rank + 1)]
    out += [("affE", k) for k in (6, 7, 8) if k <= max_rank]
    return out


def _series_ok(data, i: int, terms: int, results) -> bool:
    """P_i (1 - q^a)(1 - q^b) = Z_i through q^terms, all coefficients >= 0."""
    s = dict(results["series"].items())
    if any(e < 0 or e > terms or c < 0 for e, c in s.items()):
        return False
    a, b = data.a, data.b
    back = {}
    for k in range(terms + 1):
        v = (s.get(k, 0) - s.get(k - a, 0) - s.get(k - b, 0)
             + s.get(k - a - b, 0))
        if v:
            back[k] = v
    want = {e: c for e, c in data.z_table[i].items() if e <= terms}
    return back == want


def _cd_ok(results) -> bool:
    return all(r.lhs.items() == r.rhs.items() for r in results["cd"])


def _burau_ok(results) -> bool:
    lhs, rhs = results["burau"]
    return algebra.mat_eq(lhs, rhs)


def _burau_call(w1, w2, reduced: bool):
    def call():
        lhs = braid.burau(w1 * w2, reduced).entries
        rhs = algebra.mat_mul(braid.burau(w1, reduced).entries,
                              braid.burau(w2, reduced).entries)
        return lhs, rhs
    return call


def _milnor_ok(strands: int, results) -> bool:
    """Length-2 Milnor invariants are the pairwise linking numbers."""
    table, links = results["milnor"]
    return all(table.mu(i, j) == links.get((min(i, j), max(i, j)), 0)
               for i in range(1, strands + 1)
               for j in range(1, strands + 1) if i != j)


def _levin_ok(results) -> bool:
    rep = results["levin"]
    return rep.lhs.coeffs == rep.rhs.coeffs and not rep.degenerate


def _random_word(rng: random.Random, strands: int, length: int):
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                 for _ in range(length))


def _pure_braid(rng: random.Random) -> braid.BraidWord:
    """Product of three standard pure braid generators A_ij^(+-1), each the
    squared generator s_i^2 conjugated by s_(j-1) ... s_(i+1).

    Random conjugators make some longitudes long: over seeds 11-20 the
    Milnor ops of a pass then took 0.1-3.2 s of a 2.5 s pass; with A_ij they
    take at most 0.25 s."""
    strands = rng.randint(3, 4)
    word: list[int] = []
    for _ in range(3):
        i = rng.randint(1, strands - 1)
        j = rng.randint(i + 1, strands)
        conj = list(range(j - 1, i, -1))
        g = rng.choice((1, -1)) * i
        word += conj + [g, g] + [-x for x in reversed(conj)]
    return braid.BraidWord(strands, tuple(word))


def series_braid(seed: int, tiny: bool = False) -> list[list[Op]]:
    max_rank, terms, pairs, pures, levin_k, levin_order = (
        (4, 40, 5, 2, 2, 12) if tiny else (16, 400, 200, 12, 4, 40))
    groups = []
    for fam, n in _affine_types(max_rank):
        data = kostant.klein_data(fam, n)
        for i in range(data.vertex_count):
            groups.append([Op(
                f"poincare_series:{fam}{n}-{i}", "series",
                lambda data=data, i=i: kostant.poincare_series(data, i, terms),
                lambda r, data=data, i=i: _series_ok(data, i, terms, r))])
        if fam == "affA":
            args = [(0, None)] + [(i, j) for i in range(1, n + 1)
                                  for j in range(i, n + 1)]
        else:
            args = [(i, None) for i in range(data.vertex_count)]
        for i, j in args:
            groups.append([Op(
                f"poincare_cd:{fam}{n}-{i}-{j}", "cd",
                lambda data=data, i=i, j=j: identities.poincare_cd(data, i, j),
                _cd_ok)])
    # Burau pair sizes (strands, word lengths) come from one fixed
    # generator and the letters from the seed.  Over seeds 1-8, seeded
    # sizes gave the 200 pairs' time a quartile spread of 0.15, and of 0.14
    # on their 90th-percentile op; fixed sizes halved both.
    sizes = random.Random(0)
    rng = random.Random(seed)
    for k in range(pairs):
        strands = sizes.randint(3, 6)
        w1 = braid.BraidWord(strands, _random_word(rng, strands,
                                                   sizes.randint(4, 12)))
        w2 = braid.BraidWord(strands, _random_word(rng, strands,
                                                   sizes.randint(4, 12)))
        for reduced in (False, True):
            groups.append([Op(f"burau:{k}-{'red' if reduced else 'unred'}",
                              "burau", _burau_call(w1, w2, reduced),
                              _burau_ok)])
    for k in range(pures):
        b = _pure_braid(rng)
        groups.append([Op(
            f"milnor:{k}", "milnor",
            lambda b=b: (braid.milnor(b, 7), braid.linking_matrix(b)),
            lambda r, b=b: _milnor_ok(b.strands, r))])
    for k in range(1, levin_k + 1):
        b = braid.BraidWord(2, (1,) * (2 * k))
        groups.append([Op(f"levin:s1^{2 * k}", "levin",
                          lambda b=b: braid.levin_check(b, levin_order),
                          _levin_ok)])
    return groups


BUILDERS = {
    "verify-sweep": verify_sweep,
    "rank-scan": rank_scan,
    "series-braid": series_braid,
}
