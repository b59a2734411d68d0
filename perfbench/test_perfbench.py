"""Self-tests of the benchmark at the tiny size.

    python3 -m pytest perfbench -q

Each workload's checks must reject a result with one coefficient perturbed,
an op that raises must count as failed without stopping the pass, and
BENCHMARK.json must name exactly the metrics the scripts print.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coxkit import algebra, braid, coxeter, diagram, kostant  # noqa: E402
from coxkit.errors import DomainError  # noqa: E402


def _fixed_probe():
    return hostspeed.NOMINAL_S


def _bump_poly(p):
    return algebra.Poly((p.coeffs[0] + 1,) + p.coeffs[1:])


def _bump_laurent(p):
    items = dict(p.items())
    items[0] = items.get(0, 0) + 1
    return algebra.Laurent(items)


def _bump_cofactors(table):
    rows = [list(r) for r in table.entries]
    rows[0][0] = _bump_poly(rows[0][0])
    return coxeter.CofactorTable(tuple(tuple(r) for r in rows))


def _bump_ratfunc(v):
    out = algebra.RatFunc.__new__(algebra.RatFunc)
    out.num, out.den, out._laurent = _bump_poly(v.num), v.den, False
    return out


def _bump_cd(reports):
    rb, rw = reports
    return (type(rb)(rb.name, rb.lhs + algebra.BiLaurent({(0, 0): 1}),
                     rb.rhs, rb.residual, rb.holds), rw)


def _bump_burau(pair):
    lhs, rhs = pair
    lhs = [list(row) for row in lhs]
    lhs[0][0] = _bump_laurent(lhs[0][0])
    return lhs, rhs


def _bump_milnor(result):
    table, links = result
    entries = dict(table.entries)
    entries[(1, 2)] = entries.get((1, 2), 0) + 1
    return braid.MilnorTable(table.strands, table.order, entries), links


def _bump_levin(rep):
    lhs = algebra.TruncSeries(rep.lhs.order,
                              (rep.lhs.coeffs[0] + Fraction(1),)
                              + rep.lhs.coeffs[1:])
    return braid.LevinReport(lhs, rep.rhs, rep.holds, rep.degenerate)


PERTURB = {
    "char": _bump_poly, "cox": _bump_laurent, "cof": _bump_cofactors,
    "cfrac": _bump_ratfunc, "series": _bump_laurent, "cd": _bump_cd,
    "burau": _bump_burau, "milnor": _bump_milnor, "levin": _bump_levin,
}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_pass_is_clean(name):
    result = workloads.run_pass(workloads.BUILDERS[name](42, tiny=True),
                                _fixed_probe)
    assert result.attempted == len(result.latencies) > 0
    assert result.failed == 0, result.errors


@pytest.mark.parametrize("name", ["rank-scan", "series-braid"])
def test_perturbed_result_fails_its_check(name):
    for group in workloads.BUILDERS[name](42, tiny=True):
        for op in group:
            call = op.call
            op.call = lambda call=call, kind=op.kind: PERTURB[kind](call())
            try:
                result = workloads.run_pass([group], _fixed_probe)
            finally:
                op.call = call
            assert f"{op.name}: check failed" in result.errors, op.name


def test_another_diagrams_results_fail_their_checks():
    # a cache keyed wrongly would hand one diagram the self-consistent
    # results of another of the same size (A4 and D4, ~A6 and a 7-vertex
    # tree, ...)
    groups = {g[0].name.split(":")[1]: g
              for g in workloads.rank_scan(42, tiny=True)}
    results = {name: {op.kind: op.call() for op in g}
               for name, g in groups.items()}
    size = {name: len(r["char"].coeffs) - 1 for name, r in results.items()}
    pairs = [(x, y) for x in groups for y in groups
             if x != y and size[x] == size[y]]
    assert len(pairs) >= 8
    for x, y in pairs:
        swapped = [workloads.Op(op.name, op.kind,
                                lambda v=results[y].get(op.kind): v, op.check)
                   for op in groups[x] if op.kind in results[y]]
        assert workloads.run_pass([swapped], _fixed_probe).failed > 0, (x, y)


def test_cycle_coxeter_check_rejects_zero_and_other_rank():
    group = next(g for g in workloads.rank_scan(42, tiny=True)
                 if g[0].name == "char_poly:affA4")
    other = coxeter.coxeter_poly(diagram.build("affA", 6))
    for wrong in (algebra.Laurent({}), other):
        ops = [workloads.Op(op.name, op.kind,
                            (lambda w=wrong: w) if op.kind == "cox"
                            else op.call, op.check) for op in group]
        result = workloads.run_pass([ops], _fixed_probe)
        assert result.errors == ["coxeter_poly:affA4: check failed"]


def test_perturbed_library_result_fails_verify_sweep(monkeypatch):
    # the a2m suite compares kostant's odd-cycle char_poly with two
    # independent expansions
    monkeypatch.setattr(kostant, "char_poly",
                        lambda d: _bump_poly(coxeter.char_poly(d)))
    result = workloads.run_pass(workloads.verify_sweep(42, tiny=True),
                                _fixed_probe)
    assert result.errors == ["verify:a2m: check failed"]
    assert result.failed == 1


def test_raising_op_counts_as_failed_and_pass_goes_on():
    def boom():
        raise DomainError("bad input")

    ran = []
    groups = [[workloads.Op("boom", "x", boom, lambda r: True)],
              [workloads.Op("after", "y", lambda: ran.append(1) or 1,
                            lambda r: r["y"] == 1)]]
    result = workloads.run_pass(groups, _fixed_probe)
    assert (result.attempted, result.failed, ran) == (2, 1, [1])
    assert len(result.latencies) == 2
    assert "DomainError" in result.errors[0]


def test_tracer_wraps_every_binding_once():
    # install() rewrites the library in place, so it runs in its own process
    script = (
        "import sys, json; sys.path[:0] = [%r, %r]\n"
        "import coxkit, layertrace\n"
        "from coxkit import algebra, cli, coxeter, diagram, identities\n"
        "t = layertrace.Tracer(); layertrace.install(t)\n"
        "d = diagram.build('A', 4)\n"
        "coxeter.coxeter_poly(d); cli.coxeter.coxeter_poly(d)\n"
        "print(json.dumps([\n"
        "    identities.coxeter_poly is coxeter.coxeter_poly\n"
        "    is coxkit.coxeter_poly,\n"
        "    coxeter.det_poly is algebra.det_poly,\n"
        "    t.calls['coxeter.coxeter_poly'],\n"
        "    t.repeats['coxeter.coxeter_poly'],\n"
        "    t.calls['algebra.det_poly'], t.max_n['algebra.det_poly']]))\n"
    ) % (str(HERE), str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [True, True, 2, 1, 2, 4]


def test_traced_run_needs_two_passes_with_equal_counts():
    assert not run.enough([{}], [{}], trace=True)
    assert run.enough([{}, {}], [{}, {}], trace=True)
    layers = dict.fromkeys(layertrace.COUNTS, 3)
    traced = [{"pass_s": 1.0, "probes": [0.004], "layers": layers},
              {"pass_s": 1.0, "probes": [0.004], "layers": dict(layers)}]
    untraced = [{"pass_s": 0.5, "probes": [0.004]}]
    assert run.per_layer(traced, untraced)[1] is True
    traced[1]["layers"]["algebra.det_poly.calls"] = 4
    assert run.per_layer(traced, untraced)[1] is False


def test_times_are_scaled_by_the_probe_beside_them():
    # the same work on a host half as fast takes twice as long, and so
    # does the probe beside it
    n = hostspeed.NOMINAL_S
    fast = {"latencies": [0.1, 0.3], "probes": [n, n], "pass_s": 0.5,
            "attempted": 2, "failed": 0, "peak_rss_mb": 20.0}
    slow = dict(fast, latencies=[0.2, 0.6], probes=[2 * n, 2 * n],
                pass_s=1.0)
    assert run.op_times(slow) == pytest.approx(run.op_times(fast))
    assert run.pass_time(slow) == pytest.approx(0.5)
    ends = run.end_to_end([fast, slow, fast], [0.1, 0.2, 0.3])
    assert ends["pass_s"] == pytest.approx(0.4)
    assert ends["setup_s"] == 0.2


def test_untraced_run_pools_a_hundred_latencies_over_three_passes():
    # 50 ops need 2 passes for 100 samples, but a median needs 3; 25 ops
    # need 4
    fifty = [{"latencies": [1.0] * 50}] * 3
    assert not run.enough(fifty[:2], [], trace=False)
    assert run.enough(fifty, [], trace=False)
    many = [{"latencies": [1.0] * 25}] * 4
    assert not run.enough(many[:3], [], trace=False)
    assert run.enough(many, [], trace=False)


def test_probes_bracket_every_op_and_stay_outside_latencies():
    calls = []

    def probe():
        calls.append(len(calls))
        return 0.001 * len(calls)

    groups = workloads.rank_scan(42, tiny=True)
    result = workloads.run_pass(groups, probe)
    assert result.failed == 0
    assert len(result.probes) == len(result.latencies)
    # one probe before the first op and one after the last
    assert 2 <= len(calls) <= len(result.latencies) + 1
    assert result.probes[0] == pytest.approx(0.0015)
    assert result.probe_s > 0


def test_benchmark_json_matches_the_scripts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layertrace.per_layer_units())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
