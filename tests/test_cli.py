"""Command-line interface: dispatch, formats, determinism, coverage."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from coxkit import braid, cfrac, cli, identities, kostant
from coxkit.algebra import Laurent, TruncSeries
from coxkit.coxeter import char_poly, coxeter_poly
from coxkit.diagram import MAX_VERTICES, build
from coxkit.report import IdentityReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coxeter_named_diagram(capsys):
    code, out = run_cli(capsys, "coxeter", "--diagram", "E8")
    assert code == 0
    assert out.strip() == coxeter_poly(build("E", 8)).render()


def test_coxeter_char_flag(capsys):
    code, out = run_cli(capsys, "coxeter", "--diagram", "~A4", "--char")
    assert code == 0
    assert out.strip() == char_poly(build("affA", 4)).render("z")


def test_coxeter_order_override(capsys):
    _, natural = run_cli(capsys, "coxeter", "--diagram", "~A3")
    _, ordered = run_cli(capsys, "coxeter", "--diagram", "~A3",
                         "--order", "0 2 1 3")
    assert natural != ordered  # cycle order matters


def test_coxeter_json_record(capsys):
    code, out = run_cli(capsys, "coxeter", "--diagram", "A3", "--json")
    rec = json.loads(out)
    assert rec["diagram"] == "A3" and rec["order"] == [0, 1, 2]
    assert rec["poly"] == coxeter_poly(build("A", 3)).render()


def test_coxeter_from_file(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("n 3\n0 1 1\n1 2 1\n")
    code, out = run_cli(capsys, "coxeter", "--diagram", str(path))
    assert code == 0
    assert out.strip() == coxeter_poly(build("A", 3)).render()


def test_cfrac_formats(capsys):
    code, out = run_cli(capsys, "cfrac", "--diagram", "~D4",
                        "--format", "latex")
    assert code == 0 and out.count(r"\cfrac{1}{z}") == 3
    code, out = run_cli(capsys, "cfrac", "--diagram", "~A3",
                        "--format", "eval")
    assert code == 0 and "z" in out


def test_cfrac_of_a_1000_vertex_path_needs_no_recursion(capsys):
    # the expansion, its value and both renderers walk the tree from an
    # explicit stack, so a path longer than the interpreter's recursion
    # limit still works
    outs = {}
    for fmt in ("eval", "latex", "ascii"):
        code, outs[fmt] = run_cli(capsys, "cfrac", "--diagram", "A1000",
                                  "--format", fmt)
        assert code == 0, fmt
    want = cfrac.tree_ratio(build("A", 1000), 0).render("z")
    assert outs["eval"].strip() == want
    assert outs["latex"].count(r"\cfrac{1}{z") == 1000
    lines = outs["ascii"].splitlines()
    assert len(lines) == 1000 and lines[-1] == "  " * 999 + "1/(z)"


def test_kostant_series_and_tables(capsys):
    code, out = run_cli(capsys, "kostant", "--type", "~E8",
                        "--series", "0", "--terms", "30")
    assert code == 0
    assert out.strip() == "1 + q^12 + q^20 + q^24 + q^30"
    code, out = run_cli(capsys, "kostant", "--type", "~E6")
    assert code == 0 and "a: 6" in out and "b: 8" in out


def test_kostant_verify_modes(capsys):
    for which in ("17", "15", "squares", "walks", "all"):
        code, out = run_cli(capsys, "kostant", "--type", "~A4",
                            "--verify", which)
        assert code == 0, (which, out)
        assert "FAIL" not in out


def test_braid_modes(capsys):
    code, out = run_cli(capsys, "braid", "burau", "--word", "s1 s1",
                        "--strands", "2")
    assert code == 0 and out.strip() == "[t^2]"
    code, out = run_cli(capsys, "braid", "milnor", "--word", "s1 s1",
                        "--order", "4")
    assert code == 0 and "mu[2, 1] = 1" in out
    code, out = run_cli(capsys, "braid", "levin", "--word", "s1 s1",
                        "--order", "16")
    assert code == 0 and "holds: True" in out
    code, out = run_cli(capsys, "braid", "artin", "--word", "s1",
                        "--strands", "2")
    assert code == 0 and "x1 -> x1 x2 x1^-1" in out
    code, out = run_cli(capsys, "braid", "longitudes", "--word", "s1 s1")
    assert code == 0 and "l1 = x1^-1 x2" in out
    code, out = run_cli(capsys, "braid", "ratio", "--word", "s1",
                        "--against", "s1 s1")
    assert code == 0
    code, out = run_cli(capsys, "braid", "magnus", "--word", "s1 s1",
                        "--order", "3")
    assert code == 0 and "u1" in out


@pytest.mark.parametrize("argv", [
    ["milnor", "--word", "s1 s1", "--order", "3", "--json"],
    ["burau", "--word", "s1", "--against", "s1 s1"],
    ["milnor", "--word", "s1 s1", "--order", "3", "--unreduced"],
    ["levin", "--word", "s1 s1", "--order", "4", "--reduced"],
    ["artin", "--word", "s1", "--unreduced"],
    ["longitudes", "--word", "s1 s1", "--reduced"],
    ["magnus", "--word", "s1 s1", "--order", "3", "--unreduced"],
])
def test_braid_option_of_another_mode_exits_2(capsys, argv):
    # only burau reads --json, only ratio reads --against, and only those
    # two read --reduced and --unreduced
    assert cli.main(["braid", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_burau_and_ratio_default_to_the_reduced_image(capsys):
    for mode, extra in (("burau", []), ("ratio", ["--against", "s1 s1"])):
        argv = ["braid", mode, "--word", "s1 s2 -s1", *extra]
        _, default = run_cli(capsys, *argv)
        _, reduced = run_cli(capsys, *argv, "--reduced")
        code, unreduced = run_cli(capsys, *argv, "--unreduced")
        assert default == reduced and default
        if mode == "burau":
            assert code == 0
            assert default.count("[") == 2 and unreduced.count("[") == 3
        else:
            # the unreduced image fixes the all-ones vector, so
            # det(E - beta) vanishes and the ratio is refused
            assert code == 2 and unreduced == ""


@pytest.mark.parametrize("argv", [
    ["--type", "~A2", "--series", "0", "--verify", "15"],
    ["--type", "~A2", "--terms", "5"],
    ["--type", "~A2", "--verify", "15", "--terms", "5"],
    ["--type", "~A2", "--timings"],
    ["--type", "~A2", "--series", "0", "--timings"],
])
def test_kostant_option_without_its_mode_exits_2(capsys, argv):
    # --terms belongs to --series, --timings to --verify, and the two
    # modes exclude each other
    assert cli.main(["kostant", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_kostant_series_defaults_to_40_terms(capsys):
    code, out = run_cli(capsys, "kostant", "--type", "~E8", "--series", "0",
                        "--json")
    assert code == 0 and json.loads(out)["terms"] == 40
    code, out = run_cli(capsys, "kostant", "--type", "~A2", "--verify", "15",
                        "--timings", "--json")
    assert code == 0 and "elapsed_ms" in json.loads(out)


def test_kostant_terms_above_the_cap_exits_2_at_once(capsys):
    assert kostant.MAX_TERMS >= 400  # every series of the suites and benchmark
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main(["kostant", "--type", "~A2", "--series", "0",
                         "--terms", "100000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and time.perf_counter() - start < 1.0
    assert peak < 256 * 1024
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert f"0..{kostant.MAX_TERMS}" in captured.err
    for terms in (-1, kostant.MAX_TERMS + 1):
        assert cli.main(["kostant", "--type", "~E8", "--series", "-1",
                         "--terms", str(terms)]) == 2
    code, out = run_cli(capsys, "kostant", "--type", "~E8", "--series", "-1",
                        "--terms", str(kostant.MAX_TERMS))
    assert code == 0 and out.strip() == "q^-1"


def _timed_lines(out: str) -> list[tuple[str, float]]:
    """The case lines of text output with --timings, each split into the
    text before its ` (x.xxx ms)` tail and the time."""
    got = []
    for line in out.splitlines():
        if line.startswith(("[ok ]", "[FAIL]")):
            head, sep, tail = line.rpartition(" (")
            assert sep and tail.endswith(" ms)"), line
            ms = tail[:-len(" ms)")]
            assert len(ms.rpartition(".")[2]) == 3, line
            got.append((head, float(ms)))
    return got


def test_timings_in_text_mode_end_each_case_line(capsys, monkeypatch):
    for argv in (["verify", "algebra"],
                 ["kostant", "--type", "~A2", "--verify", "all"]):
        code, plain = run_cli(capsys, *argv)
        assert code == 0 and " ms)" not in plain
        code, out = run_cli(capsys, *argv, "--timings")
        timed = _timed_lines(out)
        assert code == 0 and timed and all(ms >= 0 for _, ms in timed)
        # dropping the tails gives the output without --timings
        cases = iter(head for head, _ in timed)
        assert [next(cases) if line.startswith("[") else line
                for line in out.splitlines()] == plain.splitlines()
    _failing_levin(monkeypatch)
    code, out = run_cli(capsys, "verify", "levin", "--timings")
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert code == 1 and len(fails) == len(_timed_lines(out)) == 5
    assert "rerun: coxkit verify levin --seed 0" in out


def _pinned_braid_words():
    rng = random.Random(12)
    w41 = " ".join(rng.choice(("s", "-s")) + str(rng.randint(1, 4))
                   for _ in range(41))
    w130 = " ".join(rng.choice(("s", "-s")) + str(rng.randint(1, 3))
                    for _ in range(130))
    return w41, w130


_W41, _W130 = _pinned_braid_words()
# sha256 of the stdout of `coxkit braid ...`, computed before Burau images
# were built on packed integers
BRAID_SHA256 = [
    (["burau", "--word", "s1 s1 -s2", "--strands", "3", "--unreduced",
      "--json"],
     "0e0a740f382b8c1f1633cef9a8b41d7160b25695060ee88be4d4322b664299dd"),
    (["burau", "--word", "s1 -s2 s3 s2 -s1 s3", "--strands", "4", "--json"],
     "d9a571dbed951ffb43ca03d7dbfd53930b2e3e4b1a1150d9b51425264cba81ca"),
    (["burau", "--word", _W41, "--strands", "5", "--json"],
     "cbe9043056b94c9beab926a9653ae1f513fbb890cc455cd1cc3a8fb6a2fb269e"),
    (["burau", "--word", _W41, "--strands", "5", "--unreduced", "--json"],
     "d8f62acedc993cc7ee3e4b69bea63cf776837b2aaa05905d3c96d269d1b424e9"),
    (["burau", "--word", _W130, "--json"],
     "293b25e5afbf90c5f73d35a2beb0067d1436f658d6dfffed5d9672dde5879dcd"),
    (["burau", "--word", _W130, "--unreduced"],
     "4fd91e27a17647a050ad38de694ede5c390c18546cbcff16de8a86a7a81826d8"),
    (["burau", "--word", " ".join(["-s2"] * 40), "--strands", "3"],
     "3716db8e86942ac992e74a83cad82243c4613768b6eda5442530eb0826c09fc1"),
    (["ratio", "--word", "s1 s2 -s1 s2", "--against", "s1 s1 -s2"],
     "5f3c06c44919219458eddcf2666e1cef4119da41724b34ee2e7291a36909b31e"),
    (["ratio", "--word", _W41, "--against", "s1 s2", "--strands", "5"],
     "bcf557f062e5415b227e02560088a07bd3f1a327ebf1f5eb1aef422ab0492ee8"),
]


@pytest.mark.parametrize("argv,digest", BRAID_SHA256)
def test_braid_output_is_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, "braid", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `coxkit cfrac --diagram NAME --format FORMAT`
CFRAC_SHA256 = {
    ("A1000", "latex"):
        "1353b6c2f2d878766214b1c978cbdf4d910aa3f70fc3c828c981ab5344905992",
    ("A1000", "ascii"):
        "e84a163f239b94605eabed008f6fec2886fb633bfe811fb5f4efc20665efdbc1",
    ("A1000", "eval"):
        "681240caa2d74869f0f8589dcccb6eaa7d7073139ca8065498d3a9e81a10d1e9",
    ("~D4", "latex"):
        "ed8c7ae14114cf49c73c981ce7f7b33dff6904548819e690ec83730584294859",
    ("~D4", "ascii"):
        "3059e7252d2198dbaf86805bed9f313681a001e889dd54462b08f89c185a75b3",
    ("~D4", "eval"):
        "820c6ccfe65c33af29a639384a17bac488e4215959de30670108ad2a8c182bc6",
    ("~E8", "latex"):
        "e04b5bd784f7e1db4665bd82a2edfadad0c4db766add170ab95b49d3589b5d21",
    ("~E8", "ascii"):
        "f6c1ee2997e60109e3c7789ca99a97c692c2ad44c922b684c097327c465a1e5a",
    ("~E8", "eval"):
        "2285816028ef67a7e93964ae7657a6563548141b7f294f70ac2e143c8cbf98a3",
    ("~A6", "latex"):
        "5244f534dccab786b0745328abde26674535e936eddf03160d3f4362e5787b4c",
    ("~A6", "ascii"):
        "d6bc7369814cff3bbbec157b40fb00c0e8bba84b6056dd0bc61b234c9ba96741",
    ("~A6", "eval"):
        "50dbeee49d71585584420faf04db7cf948d1b03f9af25590f1baa4d7b1e48f2f",
    ("~A7", "latex"):
        "33fde91e6851caae09b3fa612a9e362f4230e1ddea2ae986270c647727508929",
    ("~A7", "ascii"):
        "9db53ea77ae56d386c87e06233239a56753242dc91db8cbd805819540f46f3c5",
    ("~A7", "eval"):
        "35338e9a6b2f97feeb0ab07552278515ad761e59259077d2b85d60ee43804e23",
}


@pytest.mark.parametrize("name,fmt", sorted(CFRAC_SHA256))
def test_cfrac_output_is_pinned(capsys, name, fmt):
    code, out = run_cli(capsys, "cfrac", "--diagram", name, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CFRAC_SHA256[name, fmt]


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "join")
    assert code == 0
    assert out.count("[ok ]") == 4


def test_verify_unknown_suite(capsys):
    code = cli.main(["verify", "no-such-suite"])
    assert code == 2


def test_verify_diagram_restriction(capsys):
    code, out = run_cli(capsys, "verify", "cd-coxeter", "--diagram", "A3")
    assert code == 0
    assert out.count("[ok ]") == 3  # one report per pivot


def test_verify_json_is_deterministic(capsys):
    args = ["verify", "milnor", "--json", "--seed", "7"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    for rec in records:
        assert set(rec) == {"suite", "case", "holds", "residual_terms"}
        assert rec["holds"] is True


def test_verify_json_timings_flag(capsys):
    code, out = run_cli(capsys, "verify", "join", "--json", "--timings")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert "elapsed_ms" in rec


def test_domain_error_exit_code(capsys):
    assert cli.main(["coxeter", "--diagram", "E9"]) == 2
    assert cli.main(["kostant", "--type", "X1"]) == 2


@pytest.mark.parametrize("argv", [
    ["coxeter", "--diagram", "A3", "--order", "x y z"],
    ["cfrac", "--diagram", "~A3", "--root", "9"],
    ["cfrac", "--diagram", "~A3", "--root", "-1"],
    ["verify", "--random-trees", "-3"],
    ["verify", "schur", "--max-vertices", "0"],
    ["braid", "levin", "--word", "s1 s1", "--order", "-1"],
    ["braid", "magnus", "--word", "s1 s1", "--order", "-1"],
    ["braid", "burau", "--word", "sx"],
    ["braid", "burau", "--word", "s"],
])
def test_bad_input_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_cfrac_accepts_a_tree_file(tmp_path, capsys):
    path = tmp_path / "a3.txt"
    path.write_text("n 3\n0 1 1\n1 2 1\n")
    for fmt in ("latex", "eval"):
        _, named = run_cli(capsys, "cfrac", "--diagram", "A3", "--format", fmt)
        code, out = run_cli(capsys, "cfrac", "--diagram", str(path),
                            "--format", fmt)
        assert code == 0 and out == named


def test_cfrac_rejects_a_file_that_is_not_a_tree(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\n0 1 1\n1 2 1\n0 2 1\n")
    assert cli.main(["cfrac", "--diagram", str(path)]) == 2
    assert "not a connected tree" in capsys.readouterr().err


def test_negative_vertex_count_file_names_the_count(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    path.write_text("n -1\n")
    assert cli.main(["coxeter", "--diagram", str(path)]) == 2
    assert "vertex count -1 is negative" in capsys.readouterr().err


def test_verify_rejects_diagram_for_suites_with_fixed_inputs(capsys):
    for name in ("walks", "path-sum", "chain", "binet-cauchy", "all"):
        assert cli.main(["verify", name, "--diagram", "A3"]) == 2
        err = capsys.readouterr().err
        assert "--diagram applies only to" in err and "cd-coxeter" in err
    for name in cli.DIAGRAM_SUITES:
        assert name in cli.VERIFIERS
        assert cli.main(["verify", name, "--diagram", "A3"]) == 0


@pytest.mark.parametrize("argv", [
    ["coxeter", "--diagram", "A1000000000"],
    ["coxeter", "--diagram", "HUGE"],
    ["cfrac", "--diagram", "~A1000000000"],
    ["kostant", "--type", "~A1000000000"],
    ["verify", "schur", "--max-vertices", "1000000000000"],
])
def test_huge_vertex_counts_exit_2_without_allocating(tmp_path, capsys,
                                                      argv):
    path = tmp_path / "huge.txt"
    path.write_text("n 1000000000000\n0 1 1\n")
    argv = [str(path) if a == "HUGE" else a for a in argv]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(MAX_VERTICES) in capsys.readouterr().err
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_cfrac_cycle_accepts_every_vertex_as_root(capsys):
    code, out = run_cli(capsys, "cfrac", "--diagram", "~A3", "--root", "3")
    assert code == 0 and "z" in out


def test_verify_all_golden_output(capsys):
    # byte-identical to the output before the polynomial memo existed
    code, out = run_cli(capsys, "verify", "all", "--seed", "42", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b7966c05f152df927dd5a7a80cbd9dc213b59f7e6f64be5cb4224c83c64e7e50")


def test_time_cases_charges_the_gap_before_each_case():
    cases = [cli.CaseResult("s", name, True, done_at=t)
             for name, t in [("a", 1.5), ("b", 1.5), ("c", 4.0)]]
    cli._time_cases(cases, 1.0)
    assert [c.elapsed_ms for c in cases] == [500.0, 0.0, 2500.0]


def test_verify_timings_are_per_case(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "cd-char", "--json", "--timings")
    wall_ms = (time.perf_counter() - start) * 1000
    assert code == 0
    times = [json.loads(line)["elapsed_ms"] for line in out.splitlines()]
    assert len(set(times)) > 1  # not one suite average
    assert sum(times) <= wall_ms


def test_cd_char_failure_reports_residual_terms(capsys, monkeypatch):
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.zero())
    monkeypatch.setattr(identities, "cd_char", lambda d, i, j: (bad, bad))
    code, out = run_cli(capsys, "verify", "cd-char", "--json",
                        "--random-trees", "1")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records and not any(r["holds"] for r in records)
    assert all(r["residual_terms"] > 0 for r in records)


def test_every_operation_has_a_cli_route():
    expected_ops = {
        "algebra.z_substitute", "algebra.q_to_z", "algebra.det_exact",
        "algebra.bezoutian", "algebra.wronskian", "algebra.series_sqrt1p",
        "diagram.build", "diagram.delete", "diagram.join",
        "diagram.bipartite_order",
        "coxeter.coxeter_poly", "coxeter.char_poly", "coxeter.schur_step",
        "coxeter.join_poly", "coxeter.cofactors", "coxeter.path_sum_H",
        "coxeter.walk_gf", "coxeter.identity7_check",
        "coxeter.divide_identity",
        "cfrac.expand_tree", "cfrac.expand_cycle", "cfrac.evaluate",
        "cfrac.render",
        "identities.cd_coxeter", "identities.cd_wronskian",
        "identities.chain_identities", "identities.cd_char",
        "identities.binet_cauchy", "identities.poincare_cd",
        "kostant.klein_data", "kostant.poincare_series",
        "kostant.verify_system", "kostant.ebeling_ratios",
        "kostant.a2m_closed_form", "kostant.prop2_squares",
        "kostant.walk_series_check", "kostant.perfect_square_check",
        "braid.burau", "braid.det_ratio", "braid.artin_action",
        "braid.longitudes", "braid.magnus", "braid.milnor",
        "braid.levin_check",
        "cli.run",
    }
    assert expected_ops == set(cli.OPERATION_ROUTES)
    for op, (command, detail) in cli.OPERATION_ROUTES.items():
        assert command in ("coxeter", "cfrac", "kostant", "braid", "verify")
        if command == "verify" and detail not in ("all",):
            assert detail in cli.VERIFIERS, op


def test_closed_stdout_ends_without_traceback():
    # the reader is gone before the first line is written, as when
    # `| head` has already exited
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxkit.cli", "verify", "cd-char", "--json",
         "--random-trees", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def test_braid_order_above_the_cap_exits_2_at_once(capsys, monkeypatch):
    assert braid.MAX_ORDER >= 40  # every order of the suites and benchmark

    def never(*args):
        raise AssertionError("a series of a rejected order was started")

    with monkeypatch.context() as m:
        for name in ("levin_check", "magnus", "milnor"):
            m.setattr(braid, name, never)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = cli.main(["braid", "levin", "--word", "s1 s1",
                             "--order", "1000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and time.perf_counter() - start < 1.0
        assert peak < 256 * 1024
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"0..{braid.MAX_ORDER}" in err
        for mode in ("magnus", "milnor"):
            assert cli.main(["braid", mode, "--word", "s1 s1", "--order",
                             str(braid.MAX_ORDER + 1)]) == 2
    code, out = run_cli(capsys, "braid", "levin", "--word", "s1 s1",
                        "--order", str(braid.MAX_ORDER))
    assert code == 0 and "holds: True" in out


def test_magnus_above_the_word_cap_exits_2_at_once(capsys):
    # the longitude of s1^-6 at order 40, which once ran out of memory
    argv = ["braid", "magnus", "--word", "-s1 -s1 -s1 -s1 -s1 -s1",
            "--order", "40"]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(braid.MAX_MAGNUS_WORDS) in err
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    code, out = run_cli(capsys, *argv[:-1], "16")
    assert code == 0 and len(out.splitlines()) == 26475


def _failing_levin(monkeypatch):
    """levin_check with u^2 - 3u^5 added to every rhs."""
    real = braid.levin_check

    def broken(b, order):
        rep = real(b, order)
        extra = TruncSeries(order, (0, 0, 1, 0, 0, -3))
        return braid.LevinReport(rep.lhs, rep.rhs + extra, False, False)

    monkeypatch.setattr(braid, "levin_check", broken)


def test_levin_failure_reports_residual_terms(capsys, monkeypatch):
    _failing_levin(monkeypatch)
    code, out = run_cli(capsys, "verify", "levin", "--json")
    assert code == 1
    records = {r["case"]: r for r in map(json.loads, out.splitlines())}
    assert not any(r["holds"] for r in records.values())
    # orders 16, 12, 10, 12, 8: all keep both terms
    assert {r["residual_terms"] for r in records.values()} == {2}


def test_failing_case_prints_a_rerun_command(capsys, monkeypatch):
    _failing_levin(monkeypatch)
    code, out = run_cli(capsys, "verify", "levin", "--seed", "5",
                        "--random-trees", "3")
    lines = out.splitlines()
    assert code == 1
    fails = [k for k, line in enumerate(lines) if line.startswith("[FAIL]")]
    assert len(fails) == 5
    for k in fails:
        assert lines[k + 1].split() == ["rerun:", "coxkit", "verify", "levin",
                                        "--seed", "5", "--random-trees", "3"]
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.zero())
    monkeypatch.setattr(identities, "cd_char", lambda d, i, j: (bad, bad))
    _, out = run_cli(capsys, "verify", "cd-char", "--random-trees", "1")
    assert "rerun: coxkit verify cd-char --seed 0 --random-trees 1" in out
    _, out = run_cli(capsys, "verify", "cd-char", "--diagram", "D4")
    assert "rerun: coxkit verify cd-char --seed 0 --diagram D4" in out
    monkeypatch.setattr(kostant, "perfect_square_check", lambda data: -1)
    code, out = run_cli(capsys, "kostant", "--type", "~E6", "--verify",
                        "squares")
    assert code == 1
    assert out.splitlines()[1].split(maxsplit=1) == [
        "rerun:", "coxkit kostant --type '~E6' --verify squares"]
