"""Command-line interface: dispatch, formats, determinism, coverage."""

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from coxkit import (algebra, braid, cfrac, cli, coxeter, diagram, identities,
                    kostant)
from coxkit.algebra import Laurent, Poly, TruncSeries
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


@pytest.mark.parametrize("argv", [
    ["--diagram", "A1_0"], ["--diagram", "E 8", "--char"],
    ["--diagram", "~D\uff15"], ["--diagram", "A3", "--order", "2 1 0_0"],
    ["--diagram", "A3", "--order", "+2 1 0"],
    ["--diagram", "A3", "--order", "2 1 \u0660"],
    ["--diagram", "A3", "--order", "2 1 " + "0" * 5000],
])
def test_coxeter_reads_only_a_sign_and_ascii_digits(capsys, argv):
    # int() reads A10, E8, ~D5 and the order 2 1 0 from these
    assert cli.main(["coxeter", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert ("order must list vertex indices" if "--order" in argv
            else "cannot parse rank") in captured.err


def test_coxeter_order_keeps_leading_zeros(capsys):
    _, plain = run_cli(capsys, "coxeter", "--diagram", "~A3",
                       "--order", "0 2 1 3")
    _, padded = run_cli(capsys, "coxeter", "--diagram", " ~A03 ",
                        "--order", "00 2 01 3")
    assert padded == plain


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
    ["burau", "--word", "s1", "--order", "5"],
    ["artin", "--word", "s1", "--order", "5"],
    ["longitudes", "--word", "s1 s1", "--order", "5"],
    ["ratio", "--word", "s1", "--against", "s1 s1", "--order", "5"],
    ["ratio", "--word", "s1", "--against", "s1 s1", "--reduced"],
    ["ratio", "--word", "s1", "--against", "s1 s1", "--unreduced"],
    ["burau", "--word", "s1", "--reduced"],
])
def test_braid_option_of_another_mode_exits_2(capsys, argv):
    # only burau reads --json and --unreduced (det(E - beta) of the
    # unreduced image vanishes, so ratio reads the reduced one only), only
    # ratio reads --against, and only magnus, milnor and levin read
    # --order; --reduced, which only restated burau's default, is no option
    assert cli.main(["braid", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_a_word_of_one_inverse_letter_is_given_with_an_equals_sign(capsys):
    # argparse reads a lone -s1 as an option, so the word is --word=-s1
    assert run_cli(capsys, "braid", "burau", "--word=-s1") == (0, "[-t^-1]\n")
    assert run_cli(capsys, "braid", "artin", "--word=-s1") == (
        0, "x1 -> x2\nx2 -> x2^-1 x1 x2\n")
    assert run_cli(capsys, "braid", "ratio", "--word", "s1 s1",
                   "--against=-s1") == (0, "1 - t\n")
    assert cli.main(["braid", "artin", "--word", "-s1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: argument --word: "
                            "expected one argument\n")


@pytest.mark.parametrize("argv", [
    ["verify", "algebra", "--bogus"],
    ["braid", "levin", "--word", "s1 s1", "--order", "x"],
    ["braid", "burau"],
    [],
    ["kostant", "--type", "~A2", "--series", "0", "--verify", "15"],
    ["--bogus"],
    ["braid", "--bogus"],
    ["braid", "burau", "--bogus"],
    # without --against the ratio is det(E - beta(L)) over itself
    ["braid", "ratio", "--word", "s1"],
    ["kostant", "--type", "~A2", "--series", "0", "--terms", "-1"],
    ["kostant", "--type", "~A2", "--series", "0", "--terms", "500001"],
])
def test_every_bad_command_line_is_one_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    # an unknown option is named, also where a required argument is missing
    assert "--bogus" not in argv or "--bogus" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["braid", "--bogus", "--x=1"], "unrecognized arguments: --bogus --x=1"),
    (["braid", "burau", "--bogus"], "unrecognized arguments: --bogus"),
    (["braid", "burau"], "the following arguments are required: --word"),
    # argparse takes a prefix of an option, so --str is --strands
    (["braid", "burau", "--str", "3"],
     "the following arguments are required: --word"),
    (["braid", "levin", "--bogus", "--word", "s1"],
     "unrecognized arguments: --bogus"),
])
def test_a_usage_error_names_unknown_options_before_missing_ones(
        capsys, monkeypatch, argv, message):
    # main() reads the command line from sys.argv, main(argv) from argv
    monkeypatch.setattr(sys, "argv", ["coxkit", *argv])
    for args in ((), (argv,)):
        assert cli.main(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize("option,value,message", [
    ("--order", "x", "invalid int value: 'x'"),
    ("--order", "-1", "must be in 0..64"),
    ("--order", "65", "must be in 0..64"),
    ("--random-trees", "-1", f"must be in 0..{cli.MAX_RANDOM_TREES}"),
    ("--random-trees", f"{cli.MAX_RANDOM_TREES + 1}",
     f"must be in 0..{cli.MAX_RANDOM_TREES}"),
    ("--random-trees", "1.5", "invalid int value: '1.5'"),
    ("--max-vertices", "0", f"must be in 1..{cli.MAX_SWEEP_VERTICES}"),
    ("--max-vertices", f"{cli.MAX_SWEEP_VERTICES + 1}",
     f"must be in 1..{cli.MAX_SWEEP_VERTICES}"),
])
def test_the_parser_refuses_an_int_out_of_its_range(capsys, option, value,
                                                    message):
    argv = (["braid", "magnus", "--word", "s1 s1"] if option == "--order"
            else ["verify", "schur"])
    assert cli.main([*argv, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {option}: {message}\n"


@pytest.mark.parametrize("value", ["0", "65"])
def test_milnor_orders_start_at_1_in_the_parser(capsys, monkeypatch, value):
    def never(*args):
        raise AssertionError("milnor ran on an order the parser refuses")

    with monkeypatch.context() as m:
        m.setattr(braid, "milnor", never)
        assert cli.main(["braid", "milnor", "--word", "s1 s1",
                         "--order", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --order: must be in 1..64\n"
    # order 1 has no invariant of length 1 or more to print
    code, out = run_cli(capsys, "braid", "milnor", "--word", "s1 s1",
                        "--order", "1")
    assert code == 0 and out == ""


@pytest.mark.parametrize("suite", ["levin", "walks", "chain"])
@pytest.mark.parametrize("option,value", [("--random-trees", "1"),
                                          ("--max-vertices", "5")])
def test_a_suite_with_fixed_inputs_refuses_the_tree_options(capsys, suite,
                                                            option, value):
    assert cli.main(["verify", suite, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {option} applies only to")
    assert captured.err.count("\n") == 1


def test_braid_mode_help_lists_only_its_own_options(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["braid", "burau", "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--word" in out and "--unreduced" in out and "--json" in out
    assert "--order" not in out and "--against" not in out
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["braid", "ratio", "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z]+", out)) == {"--help", "--word",
                                                 "--strands", "--against"}


def test_burau_and_ratio_default_to_the_reduced_image(capsys):
    argv = ["braid", "burau", "--word", "s1 s2 -s1"]
    _, default = run_cli(capsys, *argv)
    code, unreduced = run_cli(capsys, *argv, "--unreduced")
    assert default
    assert code == 0
    assert default.count("[") == 2 and unreduced.count("[") == 3


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
    assert captured.err.startswith("usage error: ")
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


# sha256 of the stdout of `coxkit braid artin` on the words of BRAID_SHA256
# of up to 41 letters, computed when the Artin action was substituted
# letter by letter; the walk of _W130 is past braid.MAX_WALK_LETTERS
ARTIN_SHA256 = [
    (["--word", "s1 s1 -s2", "--strands", "3"],
     "40890a8b3ae43433d9c76fee6f0736f68d72e9dac906ad09cc69c8ad71e17f09"),
    (["--word", "s1 -s2 s3 s2 -s1 s3", "--strands", "4"],
     "48c93b0b197763c2723b418350cf3cdc00fa32ebbe78181055d476c62322d609"),
    (["--word", _W41, "--strands", "5"],
     "d58bcc7e81fc1e25c29a8fd3c60b3a1a85466187793fc669d7c365e66c0b831f"),
    (["--word", " ".join(["-s2"] * 40), "--strands", "3"],
     "4f23e8c53e804e788be7c9cd155e1dee6dafe3ea1e4ad1716be71ddfb1884951"),
    (["--word", "s1 s2 -s1 s2"],
     "7dcde8931747fc9f5c822abc3f288321b97c1d2486d1cf2135c04f344ddfbb0d"),
]


@pytest.mark.parametrize("argv,digest", ARTIN_SHA256)
def test_braid_artin_output_is_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, "braid", "artin", *argv)
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


# the suites that sweep diagrams: --diagram replaces their inputs, and
# --random-trees and --max-vertices size their seeded trees
SWEEP_SUITES = ("schur", "bipartite", "cd-coxeter", "cd-wronskian",
                "cd-char", "identity7")


def test_verify_rejects_diagram_for_suites_with_fixed_inputs(capsys):
    for name in ("all", *cli.VERIFIERS):
        code = cli.main(["verify", name, "--diagram", "A3"])
        err = capsys.readouterr().err
        if name in SWEEP_SUITES:
            assert code == 0, name
            continue
        assert code == 2, name
        assert "--diagram applies only to" in err and "cd-coxeter" in err
        assert ", ".join(SWEEP_SUITES) in err


@pytest.mark.parametrize("trees,named", [
    (["--max-vertices", "3"], "--max-vertices"),
    (["--random-trees", "500"], "--random-trees"),
    (["--max-vertices", "3", "--random-trees", "500"], "--random-trees")])
def test_verify_diagram_refuses_the_tree_options(capsys, trees, named):
    # --diagram replaces the seeded trees, so the options that draw them
    # would do nothing
    assert cli.main(["verify", "cd-char", "--diagram", "~D4", *trees]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {named} cannot be given with --diagram\n"


def test_verify_all_takes_the_tree_options(capsys, monkeypatch):
    # at least one suite of all draws trees; a failing suite that draws
    # none is rerun without them
    _failing_levin(monkeypatch)
    code, out = run_cli(capsys, "verify", "all", "--random-trees", "0",
                        "--max-vertices", "3")
    assert code == 1
    assert "tree000" not in out and "[ok ] cd-char: A1-bez" in out
    reruns = {line.strip() for line in out.splitlines() if "rerun:" in line}
    assert reruns == {"rerun: coxkit verify levin --seed 0"}


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
    # a tree size meets the sweep bound in the parser
    bound = (f"1..{cli.MAX_SWEEP_VERTICES}" if "--max-vertices" in argv
             else str(MAX_VERTICES))
    assert bound in capsys.readouterr().err
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["coxeter", "--diagram"],
    ["cfrac", "--diagram"],
    ["verify", "cd-char", "--diagram"],
])
def test_unreadable_diagram_files_exit_2_naming_the_file(tmp_path, capsys,
                                                         argv):
    not_utf8 = tmp_path / "bad.txt"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path, not_utf8):
        assert cli.main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err


@pytest.mark.parametrize("klein_type", ["~A1000", "~D1000"])
def test_kostant_verify_14_at_rank_1000_runs_no_gcd(capsys, monkeypatch,
                                                    klein_type):
    # each row of system 14 is the row of system 15 over the shared
    # denominator, reduced once, and a zero row is reduced by no GCD: the
    # work is bounded by counting calls, not by timing them
    gcds = []
    real_gcd = algebra.Poly.gcd
    monkeypatch.setattr(algebra.Poly, "gcd",
                        lambda f, g: gcds.append((f, g)) or real_gcd(f, g))
    reports = []
    real = kostant.verify_system

    def kept(data, which):
        reports.append(real(data, which))
        return reports[-1]

    monkeypatch.setattr(kostant, "verify_system", kept)
    code, out = run_cli(capsys, "kostant", "--type", klein_type, "--verify",
                        "14", "--json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"case": "system-14", "holds": True, "residual_terms": 0,
         "suite": "kostant"}]
    (rep,) = reports
    assert len(rep.residual) == 1001
    assert all(row.is_zero for row in rep.residual)
    assert gcds == []


@pytest.mark.parametrize("argv", [
    ["kostant", "--type", "~A1000", "--verify", "16"],
    ["verify", "cd-char", "--diagram", "A1000"],
    ["verify", "identity7", "--diagram", "D1000"],
    # at seed 0 the first tree of at most 1024 vertices would have more
    # vertices than the cap, but the parser refuses that size first
    ["verify", "cd-char", "--random-trees", "1", "--max-vertices", "1024"],
])
def test_cofactor_tables_above_the_cap_exit_2_at_once(capsys, monkeypatch,
                                                      argv):
    # every suite and benchmark diagram has at most 49 vertices
    assert 49 < coxeter.MAX_COFACTOR_VERTICES < MAX_VERTICES
    assert random.Random(0).randint(1, 1024) > coxeter.MAX_COFACTOR_VERTICES

    real = coxeter._faddeev_leverrier

    def below_the_cap(d, table=False):
        # the tree option still sweeps the small named diagrams first
        assert d.n <= coxeter.MAX_COFACTOR_VERTICES, (
            "a cofactor table above the cap was started")
        return real(d, table)

    monkeypatch.setattr(coxeter, "_faddeev_leverrier", below_the_cap)
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    # the sweep bounds refuse a --diagram, and the parser a tree size,
    # before the cap is reached
    if "--max-vertices" in argv:
        assert captured.err == ("usage error: argument --max-vertices: must "
                                f"be in 1..{cli.MAX_SWEEP_VERTICES}\n")
    else:
        assert captured.err.startswith("error: ")
        assert (f"at most {cli.MAX_SWEEP_VERTICES} vertices"
                if "--diagram" in argv
                else f"limit {coxeter.MAX_COFACTOR_VERTICES}") in captured.err


def _diagram_file(path, n, edges) -> str:
    path.write_text(f"n {n}\n" + "".join(f"{i} {j} {w}\n"
                                         for i, j, w in edges))
    return str(path)


@pytest.mark.parametrize("suite", SWEEP_SUITES)
def test_sweep_inputs_beyond_the_bounds_exit_2_at_once(tmp_path, capsys,
                                                       monkeypatch, suite):
    def never(*args):
        raise AssertionError("a refused sweep input was computed on")

    for module, name in [(coxeter, "_faddeev_leverrier"),
                         (coxeter, "schur_step"), (identities, "cd_char")]:
        monkeypatch.setattr(module, name, never)
    # one past each bound: 33 vertices, two cycles, a weight of 3 or -3
    square = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
    refused = [
        "A33", "~D32", "~A32", "D1000",
        _diagram_file(tmp_path / "path", 33,
                      [(k, k + 1, 1) for k in range(32)]),
        _diagram_file(tmp_path / "two-cycles", 4, square + [(0, 2, 1)]),
        _diagram_file(tmp_path / "heavy", 2, [(0, 1, 3)]),
        _diagram_file(tmp_path / "negative", 3, [(0, 1, 1), (1, 2, -3)]),
    ]
    for source in refused:
        start = time.perf_counter()
        assert cli.main(["verify", suite, "--diagram", source]) == 2, source
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {source} has ")
        assert "a sweep takes at most" in captured.err


def test_the_largest_admitted_sweep_inputs_finish_every_sweep_suite(
        tmp_path, capsys):
    # the largest name, and a file of as many vertices and cycles and as
    # heavy weights as admitted: the 32-cycle with every weight -2
    cycle = [(k, (k + 1) % 32, -2) for k in range(32)]
    for source in ("~A31", _diagram_file(tmp_path / "densest", 32, cycle)):
        for suite in SWEEP_SUITES:
            code, out = run_cli(capsys, "verify", suite, "--diagram", source,
                                "--json")
            assert code == 0, (suite, source)
            assert all(json.loads(line)["holds"]
                       for line in out.splitlines()), (suite, source)


def test_cfrac_cycle_accepts_every_vertex_as_root(capsys):
    code, out = run_cli(capsys, "cfrac", "--diagram", "~A3", "--root", "3")
    assert code == 0 and "z" in out


def test_verify_all_golden_output(capsys):
    # byte-identical to the output before the polynomial memo existed
    code, out = run_cli(capsys, "verify", "all", "--seed", "42", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b7966c05f152df927dd5a7a80cbd9dc213b59f7e6f64be5cb4224c83c64e7e50")


def test_verify_all_computes_each_schur_step_once(capsys):
    # schur, cd-coxeter and cd-wronskian pivot the same diagrams on the same
    # vertices; the step memo runs the body once per distinct step
    coxeter._schur_step.cache_clear()
    code, _ = run_cli(capsys, "verify", "all", "--seed", "42", "--json")
    info = coxeter._schur_step.cache_info()
    assert code == 0
    assert (info.hits + info.misses, info.misses) == (880, 301)


def test_verify_schur_failure_reports_residual_terms(capsys, monkeypatch):
    real = coxeter.schur_step

    def off_by_z(d, pivot):
        step = real(d, pivot)
        return dataclasses.replace(step, total=step.total + Laurent.z())

    monkeypatch.setattr(coxeter, "schur_step", off_by_z)
    code, out = run_cli(capsys, "verify", "schur", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    assert all(not r["holds"] and r["residual_terms"] == 2 for r in records)


def test_verify_identity7_failure_sums_residual_terms(capsys, monkeypatch):
    real = coxeter.identity7_check
    monkeypatch.setattr(coxeter, "identity7_check",
                        lambda d, i, j: real(d, i, j) + Poly((1, 0, 3)))
    code, out = run_cli(capsys, "verify", "identity7", "--json")
    assert code == 1
    records = {r["case"]: r for r in map(json.loads, out.splitlines())}
    assert not any(r["holds"] for r in records.values())
    # two terms for each ordered pair of distinct vertices
    for case, n in [("A4", 4), ("D5", 5), ("affA5", 6), ("affE6", 7)]:
        assert records[case]["residual_terms"] == 2 * n * (n - 1)
    trees = [r for case, r in records.items() if case.startswith("tree")]
    assert trees and all(r["residual_terms"] == 2 for r in trees)


def test_join_failure_reports_residual_terms(capsys, monkeypatch):
    real = coxeter.join_poly
    # two terms far above the degree of any joined polynomial here
    monkeypatch.setattr(coxeter, "join_poly",
                        lambda parts: real(parts) + Laurent({40: 1, 41: -3}))
    code, out = run_cli(capsys, "verify", "join", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 4
    assert all(not r["holds"] and r["residual_terms"] == 2 for r in records)


def test_path_sum_failure_sums_residual_terms(capsys, monkeypatch):
    real = coxeter.path_sum_H
    monkeypatch.setattr(coxeter, "path_sum_H",
                        lambda d, i, j: real(d, i, j) + Poly.monomial(1, 30))
    code, out = run_cli(capsys, "verify", "path-sum", "--json")
    assert code == 1
    records = {r["case"]: r for r in map(json.loads, out.splitlines())}
    assert not any(r["holds"] for r in records.values())
    # one term for each ordered pair of vertices
    assert {case: r["residual_terms"] for case, r in records.items()} == {
        "A5": 25, "D5": 25, "affA4": 25, "affE6": 49}


def test_a2m_failure_reports_residual_terms(capsys, monkeypatch):
    bad = IdentityReport("bad", None, None, Laurent({0: 1, 3: 2, 5: -1}),
                         False)
    monkeypatch.setattr(kostant, "a2m_closed_form", lambda m: bad)
    code, out = run_cli(capsys, "verify", "a2m", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 9
    assert all(not r["holds"] and r["residual_terms"] == 3 for r in records)


def test_suite_charges_the_gap_before_each_case(monkeypatch):
    # _suite reads the clock as the verifier starts and after each case
    clock = iter([1.0, 1.5, 1.5, 4.0])
    monkeypatch.setattr(cli, "time",
                        SimpleNamespace(perf_counter=clock.__next__))
    verify = cli._suite("s", lambda args: iter([
        ("a", []), ("b", [Poly([1, 0, 2]), 0]), ("c", [3, Laurent.zero()])]))
    cases = verify(None)
    assert [(c.suite, c.case, c.residual_terms) for c in cases] == [
        ("s", "a", 0), ("s", "b", 2), ("s", "c", 1)]
    assert [c.elapsed_ms for c in cases] == [500.0, 0.0, 2500.0]
    assert verify.sweeps is False


def test_every_verifier_returns_the_list_of_its_cases():
    # a span around a verifier times the suite's work only if calling it
    # does the work, so no verifier may hand back a generator
    args = cli.build_parser().parse_args(["verify", "--seed", "42"])
    sweeping, total = [], 0
    for name, verify in cli.VERIFIERS.items():
        cases = verify(args)
        assert type(cases) is list and cases, name
        assert all(type(c) is cli.CaseResult and c.suite == name
                   for c in cases), name
        assert type(verify.sweeps) is bool, name
        if verify.sweeps:
            sweeping.append(name)
        total += len(cases)
    assert sweeping == list(SWEEP_SUITES)
    assert total == 1404


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


def test_chain_and_poincare_cd_failures_report_residual_terms(capsys,
                                                             monkeypatch):
    # a case's residual_terms sum those of its failing reports only
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.zero())
    good = IdentityReport.compare("good", Laurent.z(), Laurent.z())
    monkeypatch.setattr(identities, "chain_identities",
                        lambda d, tail: [good, bad, bad])
    code, out = run_cli(capsys, "verify", "chain", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 5
    assert all(not r["holds"] and r["residual_terms"] == 4 for r in records)
    monkeypatch.setattr(identities, "poincare_cd",
                        lambda data, i, j=None: (bad, good))
    monkeypatch.setattr(identities, "poincare_cd_antipodal_choices",
                        lambda data: [bad, bad, good])
    code, out = run_cli(capsys, "verify", "poincare-cd", "--json")
    assert code == 1
    terms = {r["case"]: r["residual_terms"]
             for r in map(json.loads, out.splitlines())}
    # affD4: 5 vertices; affA3: vertex 0 and 6 pairs, then 2 antipodal
    assert terms["affD4"] == 10 and terms["affA3"] == 2 * (1 + 6 + 2)
    assert terms["affA2"] == 2 * (1 + 3)


# sha256 of `coxkit verify SUITE --seed 7 --json`, computed before the
# cofactor sums were packed into integers
CD_SEED7_SHA256 = {
    "cd-char": "510bee1929e88ec63e8549fc2958ae3d6cf60d386e2a503b082f164e6be772ae",
    "cd-coxeter":
        "b4343d69b3425db844a1e541e302ef59303a4d5adba216447622fc7deb8d5f98",
    "cd-wronskian":
        "8ac3fb498f5ed893a735ac712bdc67c5a8615955488ff6df7527dd2577c77b10",
    "chain": "95fb7274a88576991f201c3397cbfac4a7eeed8add4ecb744c43c3d5a64469d0",
}


@pytest.mark.parametrize("suite", sorted(CD_SEED7_SHA256))
def test_christoffel_darboux_suites_are_pinned_at_seed_7(capsys, suite):
    code, out = run_cli(capsys, "verify", suite, "--seed", "7", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CD_SEED7_SHA256[suite]


# each public operation and a command line that runs it; the route test
# checks that the line does
OPERATION_ROUTES = {
    "algebra.z_substitute": "verify algebra",
    "algebra.q_to_z": "verify algebra",
    "algebra.det_exact": "verify algebra",
    "algebra.bezoutian": "verify algebra",
    "algebra.wronskian": "verify algebra",
    "algebra.series_sqrt1p": "braid levin --word 's1 s1'",
    "diagram.build": "coxeter --diagram E8",
    "diagram.Diagram.delete": "verify chain",
    "diagram.join": "verify join",
    "diagram.bipartite_order": "verify bipartite",
    "coxeter.coxeter_poly": "coxeter --diagram E8",
    "coxeter.char_poly": "coxeter --diagram ~A4 --char",
    "coxeter.schur_step": "verify schur",
    "coxeter.join_poly": "verify join",
    "coxeter.cofactors": "verify cd-char",
    "coxeter.path_sum_H": "verify path-sum",
    "coxeter.walk_gf": "verify walks",
    "coxeter.identity7_check": "verify identity7",
    "coxeter.divide_identity": "verify divide",
    "cfrac.expand_tree": "cfrac --diagram ~D4 --format latex",
    "cfrac.expand_cycle": "cfrac --diagram ~A4",
    "cfrac.evaluate": "cfrac --diagram ~D4 --format eval",
    "cfrac.render": "cfrac --diagram ~D4 --format ascii",
    "identities.cd_coxeter": "verify cd-coxeter",
    "identities.cd_wronskian": "verify cd-wronskian",
    "identities.chain_identities": "verify chain",
    "identities.cd_char": "verify cd-char",
    "identities.binet_cauchy": "verify binet-cauchy",
    "identities.poincare_cd": "verify poincare-cd",
    "kostant.klein_data": "kostant --type ~E6",
    "kostant.poincare_series": "kostant --type ~E8 --series 0",
    "kostant.verify_system": "kostant --type ~E6 --verify 15",
    "kostant.ebeling_ratios": "kostant --type ~E6 --verify 17",
    "kostant.a2m_closed_form": "verify a2m",
    "kostant.prop2_squares": "verify prop2-squares",
    "kostant.walk_series_check": "kostant --type ~E6 --verify walks",
    "kostant.perfect_square_check": "kostant --type ~E6 --verify squares",
    "braid.burau": "braid burau --word 's1 s2 -s1'",
    "braid.det_ratio": "braid ratio --word s1 --against 's1 s1'",
    "braid.artin_action": "braid artin --word 's1 s2 -s1'",
    "braid.longitudes": "braid longitudes --word 's1 s1'",
    "braid.magnus": "braid magnus --word 's1 s1' --order 6",
    "braid.milnor": "braid milnor --word 's1 s1' --order 6",
    "braid.levin_check": "braid levin --word 's1 s1'",
}


def _code_entered(line: str) -> set:
    """The code objects entered while the command line runs; it must exit
    0."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = cli.main(shlex.split(line))
        finally:
            sys.setprofile(None)
    assert code == 0, line
    return entered


def test_every_operation_has_a_cli_route():
    # each distinct line runs once, and each operation must run under its
    # own line
    entered = {line: _code_entered(line)
               for line in sorted(set(OPERATION_ROUTES.values()))}
    for op, line in OPERATION_ROUTES.items():
        module, path = op.split(".", 1)
        fn = functools.reduce(getattr, path.split("."),
                              importlib.import_module(f"coxkit.{module}"))
        assert inspect.unwrap(fn).__code__ in entered[line], (op, line)


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


_S1_S2INV_9 = " ".join(["s1 -s2"] * 9)
_WALK_MODES = [["artin"], ["longitudes"], ["magnus", "--order", "2"],
               ["milnor", "--order", "2"]]


def _refused_at_once(capsys, argv, seconds):
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < seconds
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the meridian walk of ")
    assert f"more than {braid.MAX_WALK_LETTERS} letters" in captured.err


@pytest.mark.parametrize("mode", _WALK_MODES, ids=lambda m: m[0])
def test_a_walk_past_a_lowered_bound_exits_2_at_once(capsys, monkeypatch,
                                                     mode):
    # (s1 s2^-1)^9 is pure, and its walks build 30k (inverse) to 120k
    # letters, which the real bound admits
    argv = ["braid", *mode, "--word", _S1_S2INV_9]
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(braid, "MAX_WALK_LETTERS", 10_000)
    _refused_at_once(capsys, argv, 1.0)


@pytest.mark.parametrize("argv", [
    *(["braid", *m, "--word", " ".join(["s1 -s2"] * 21)] for m in _WALK_MODES),
    ["braid", "levin", "--word", " ".join(["s1"] * 2000)],
], ids=["artin", "longitudes", "magnus", "milnor", "levin"])
def test_words_whose_walks_grow_past_the_bound_exit_2_at_once(capsys, argv):
    # without the bound, longitudes, magnus and milnor of (s1 s2^-1)^21
    # ran out of memory, artin ran for minutes, and levin of s1^2000 would
    # have run its Conway catalog for hours; a tree without the bound fails
    # here, before it runs any of them
    assert braid.MAX_WALK_LETTERS <= 10 ** 6
    _refused_at_once(capsys, argv, 2.0)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["magnus", "milnor"])
def test_magnus_work_past_the_bound_exits_2_at_once(capsys, mode):
    # the walk of (s1 s2^-1)^9 is admitted, but without the work bound its
    # Magnus expansions at order 10 ran for 41 s (magnus) and 61 s (milnor)
    argv = ["braid", mode, "--word", _S1_S2INV_9, "--order", "10"]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the Magnus expansion visits ")
    assert f"more than {braid.MAX_MAGNUS_WORK} words" in captured.err


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
    code, out = run_cli(capsys, "verify", "levin", "--seed", "5")
    lines = out.splitlines()
    assert code == 1
    fails = [k for k, line in enumerate(lines) if line.startswith("[FAIL]")]
    assert len(fails) == 5
    for k in fails:
        assert lines[k + 1].split() == ["rerun:", "coxkit", "verify", "levin",
                                        "--seed", "5"]
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.zero())
    monkeypatch.setattr(identities, "cd_char", lambda d, i, j: (bad, bad))
    _, out = run_cli(capsys, "verify", "cd-char", "--seed", "5",
                     "--random-trees", "3")
    assert out.count("rerun: coxkit verify cd-char --seed 5 "
                     "--random-trees 3\n") == out.count("[FAIL]") > 0
    # an option given at its default value is repeated too
    _, out = run_cli(capsys, "verify", "cd-char", "--random-trees", "50",
                     "--max-vertices", "2")
    assert ("rerun: coxkit verify cd-char --seed 0 --random-trees 50 "
            "--max-vertices 2") in out
    _, out = run_cli(capsys, "verify", "cd-char", "--diagram", "D4")
    assert "rerun: coxkit verify cd-char --seed 0 --diagram D4" in out
    monkeypatch.setattr(kostant, "perfect_square_check", lambda data: (
        IdentityReport.of("perfect-square", None, 2, 1)))
    code, out = run_cli(capsys, "kostant", "--type", "~E6", "--verify",
                        "squares")
    assert code == 1
    assert out.splitlines()[1].split(maxsplit=1) == [
        "rerun:", "coxkit kostant --type '~E6' --verify squares"]


# sha256 of the `coxkit kostant --type T --verify MODE --json` outputs of
# every Klein type T of rank at most 12, concatenated in klein_types order,
# computed while run_kostant and the suites still held separate checks
KOSTANT_VERIFY_SHA256 = {
    "all": "e8640c4772e6080e274594a20f9408aceab0b27a965b4314a0062df5366d1c84",
    "14": "0950a0066a4aee0fa920edcd322db7c9b7b5011535b7838be92f8e6129eac417",
    "15": "908a9fd0bc3f2d83a8e0b74cc9be7b0af2527364404e4f0b5ca38f2c6637131c",
    "16": "bf70a3745db2ae96b72b58440cf4a37507524159a731302a095eca9efe9c0837",
    "17": "5039f5444c28a44f4fc8b88460c505072168c334f4b49641f7a59d8ca099f89f",
    "squares":
        "3e88766eec3ce9516f3957cf9ff5e889ce32998dd1ab9b9a54102a1c2ebd5864",
    "walks": "01dfd4e27ac8ed315b7d90ffebf17a9261f51b188d3655bbb4613b4ec75a5d74",
}


@pytest.mark.parametrize("mode", sorted(KOSTANT_VERIFY_SHA256))
def test_kostant_verify_output_is_pinned(capsys, mode):
    digest = hashlib.sha256()
    for fam, n in kostant.klein_types(12):
        code, out = run_cli(capsys, "kostant", "--type", f"~{fam[3:]}{n}",
                            "--verify", mode, "--json")
        assert code == 0, (fam, n)
        digest.update(out.encode())
    assert digest.hexdigest() == KOSTANT_VERIFY_SHA256[mode]


def test_kostant_tables_system_failure_reports_residual_terms(capsys,
                                                              monkeypatch):
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.zero())
    monkeypatch.setattr(kostant, "verify_system", lambda data, which: bad)
    code, out = run_cli(capsys, "verify", "kostant-tables", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    systems = [r for r in records if "-system" in r["case"]]
    assert len(systems) == 3 * len(kostant.klein_types(12))
    assert all(not r["holds"] and r["residual_terms"] == 2 for r in systems)
    assert all(r["holds"] for r in records if r not in systems)
    code, out = run_cli(capsys, "kostant", "--type", "~D5", "--verify", "14",
                        "--json")
    assert code == 1
    assert json.loads(out)["residual_terms"] == 2


def test_kostant_verify_and_the_suites_share_one_check(capsys, monkeypatch):
    # one failing ratio among the reports of each group: kostant --verify
    # and the ebeling suite read the same reports and bundle them alike
    bad = IdentityReport.compare("bad", Laurent.z(), Laurent.q(3))
    good = IdentityReport.compare("good", Laurent.z(), Laurent.z())
    monkeypatch.setattr(kostant, "ebeling_ratios", lambda data: [good, bad])
    code, out = run_cli(capsys, "kostant", "--type", "~E6", "--verify", "17",
                        "--json")
    assert code == 1
    assert json.loads(out) == {"suite": "kostant", "case": "ratios-17",
                               "holds": False, "residual_terms": 3}
    code, out = run_cli(capsys, "verify", "ebeling", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == len(kostant.klein_types(12))
    assert all(not r["holds"] and r["residual_terms"] == 3 for r in records)


@pytest.mark.parametrize("argv", [
    ["burau", "--word", "s999999"],
    ["ratio", "--word", "s1", "--strands", "1000000", "--against", "s1"],
    ["burau", "--word", " ".join(["s1"] * 2300), "--unreduced"],
])
def test_braid_sizes_above_the_caps_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["braid", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_verify_all_golden_output_at_the_held_out_seed(capsys):
    code, out = run_cli(capsys, "verify", "all", "--seed", "7", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "caf553ebb794053325ba51bcdc1d70d22b942c9e8367b0cbaa2dbe135837b5b4")


def test_milnor_failure_counts_the_entries_that_disagree(capsys,
                                                         monkeypatch):
    # every entry off by one: at the Hopf link mu(2, 1) and each entry
    # ending in (1, 1) disagree; at the Borromean rings |mu(2, 3, 1)| and
    # the antisymmetry do, while the cyclic symmetry still holds
    real = braid.milnor

    def off_by_one(b, order):
        table = real(b, order)
        return braid.MilnorTable(table.strands, table.order,
                                 {k: v + 1 for k, v in table.entries.items()})

    hopf = real(braid.BraidWord(2, (1, 1)), 6).entries
    ends_in_11 = sum(1 for k in hopf if len(k) >= 2 and k[-2:] == (1, 1))
    monkeypatch.setattr(braid, "milnor", off_by_one)
    code, out = run_cli(capsys, "verify", "milnor", "--json")
    assert code == 1
    terms = {r["case"]: (r["holds"], r["residual_terms"])
             for r in map(json.loads, out.splitlines())}
    assert terms == {"hopf-order6": (False, 1 + ends_in_11),
                     "borromean": (False, 2)}


def _fail_det_vs_laplace(monkeypatch):
    real = algebra._det_laplace
    monkeypatch.setattr(algebra, "_det_laplace",
                        lambda mat: real(mat) + Laurent.one())


def _fail_bipartite(monkeypatch):
    # an even cycle given as the odd-cycle witness
    monkeypatch.setattr(diagram, "bipartite_order",
                        lambda d: diagram.OddCycle((0, 1)))


def _fail_walk_counts(monkeypatch):
    real = coxeter.walk_gf
    monkeypatch.setattr(coxeter, "walk_gf", lambda d, i, j, k: [
        w + (t == 4) for t, w in enumerate(real(d, i, j, k))])


def _fail_binet_cauchy(monkeypatch):
    real = identities.binet_cauchy
    monkeypatch.setattr(identities, "binet_cauchy", lambda *args: (
        dataclasses.replace(real(*args), residual=Laurent.one(),
                            holds=False)))


def _fail_tree_ratio(monkeypatch):
    real = cfrac.tree_ratio
    monkeypatch.setattr(cfrac, "tree_ratio",
                        lambda d, root: real(d, root) + 1)


def _fail_z_count(monkeypatch):
    real = cfrac.z_count
    monkeypatch.setattr(cfrac, "z_count", lambda node: real(node) + 1)


def _fail_cramer(monkeypatch):
    real = kostant.cramer_z_table
    monkeypatch.setattr(kostant, "cramer_z_table", lambda data: [
        z + Laurent.q(50) for z in real(data)])


def _fail_burau(monkeypatch):
    # one more in the corner entry of every image, packed as the digit of
    # t^0 at the image's offset: the braid relations still hold,
    # multiplicativity does not, and braid.burau decodes the same fault
    real = braid._burau_rows

    def shifted(word, reduced, frame):
        rows, m = real(word, reduced, frame)
        rows[0][0] += 1 << frame.width * m
        return rows, m

    monkeypatch.setattr(braid, "_burau_rows", shifted)


def _fail_linking(monkeypatch):
    monkeypatch.setattr(braid, "linking_matrix", lambda b: {(1, 2): 1})


def _fail_unit_match(monkeypatch):
    monkeypatch.setattr(braid, "unit_match", lambda a, b: None)


def _fail_divide_closed_form(monkeypatch):
    real = coxeter.det_poly
    monkeypatch.setattr(coxeter, "det_poly",
                        lambda mat: real(mat) + Poly.one())


@pytest.mark.parametrize("suite, case, fail", [
    ("algebra", "det-vs-laplace", _fail_det_vs_laplace),
    ("bipartite", "A1-odd-cycle", _fail_bipartite),
    ("walks", "affE6-eq10", _fail_walk_counts),
    ("binet-cauchy", "A2-full", _fail_binet_cauchy),
    ("cfrac-tree", "~E6", _fail_tree_ratio),
    ("cfrac-cycle", "affA3", _fail_z_count),
    ("kostant-tables", "affE6", _fail_cramer),
    ("burau", "multiplicativity-200", _fail_burau),
    ("milnor", "borromean", _fail_linking),
    ("burau-ratio", "hopf-vs-trefoil", _fail_unit_match),
    ("divide", "smallest", _fail_divide_closed_form),
])
def test_a_failing_case_has_residual_terms(capsys, monkeypatch, suite, case,
                                           fail):
    # a case holds exactly when its residuals vanish, in every suite
    fail(monkeypatch)
    code, out = run_cli(capsys, "verify", suite, "--json")
    assert code == 1
    records = {r["case"]: r for r in map(json.loads, out.splitlines())}
    assert not records[case]["holds"] and records[case]["residual_terms"] > 0
    assert all(r["residual_terms"] > 0 for r in records.values()
               if not r["holds"])


def _log_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def logged(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


@pytest.mark.parametrize("seed", ["42", "7"])
def test_verify_burau_decides_every_case_packed(capsys, monkeypatch, seed):
    # a case that holds is one comparison of packed integer matrices: no
    # image is decoded and no Laurent matrix is multiplied
    calls = []
    _log_calls(monkeypatch, algebra.Frame, "laurents", calls)
    _log_calls(monkeypatch, braid, "burau", calls)
    _log_calls(monkeypatch, algebra, "mat_mul", calls)
    code, out = run_cli(capsys, "verify", "burau", "--seed", seed, "--json")
    assert code == 0 and len(out.splitlines()) == 2
    assert calls == []


def test_verify_divide_takes_no_laurent_power(capsys, monkeypatch):
    # the z-powers of a case that holds are powers of the packed Y^2 + 1
    calls = []
    _log_calls(monkeypatch, Laurent, "__pow__", calls)
    code, _ = run_cli(capsys, "verify", "divide", "--seed", "42", "--json")
    assert code == 0 and calls == []


def _burau_pairs(capsys, monkeypatch, seed):
    """The (w1, w2, reduced) of every product of `verify burau`."""
    pairs = []
    real = braid.burau_differences

    def logged(b, factors, reduced):
        if len(factors) == 2:
            pairs.append((*factors, reduced))
        return real(b, factors, reduced)

    monkeypatch.setattr(braid, "burau_differences", logged)
    assert run_cli(capsys, "verify", "burau", "--seed", seed)[0] == 0
    monkeypatch.setattr(braid, "burau_differences", real)
    return pairs


@pytest.mark.parametrize("seed, failing", [("42", 146), ("7", 146)])
def test_packed_burau_verdict_agrees_with_mat_eq_on_swapped_factors(
        capsys, monkeypatch, seed, failing):
    # B(w1 w2) against B(w2) B(w1), which fails unless the factors commute:
    # the packed verdict and the dense one agree on every product, and a
    # product that fails decodes to the dense entrywise differences
    pairs = _burau_pairs(capsys, monkeypatch, seed)
    assert len(pairs) == 400
    packed, dense = [], []
    for w1, w2, red in pairs:
        diffs = braid.burau_differences(w1 * w2, (w2, w1), red)
        left = braid.burau(w1 * w2, red).entries
        right = algebra.mat_mul(braid.burau(w2, red).entries,
                                braid.burau(w1, red).entries)
        assert diffs == [x - y for ra, rb in zip(left, right)
                         for x, y in zip(ra, rb) if x != y]
        packed.append(not diffs)
        dense.append(algebra.mat_eq(left, right))
    assert packed == dense
    assert dense.count(False) == failing


@pytest.mark.parametrize("seed", ["42", "7"])
def test_packed_divide_verdict_agrees_with_the_dense_residuals(
        capsys, monkeypatch, seed):
    # the inputs of every verify divide case, as given and with g, det(inner),
    # dd(q) or det(big)(q) one term off or g shifted: the packed verdict
    # holds exactly when both dense residuals vanish
    inputs = []
    real = coxeter._divide_holds

    def logged(*args):
        inputs.append(args)
        return real(*args)

    monkeypatch.setattr(coxeter, "_divide_holds", logged)
    assert run_cli(capsys, "verify", "divide", "--seed", seed)[0] == 0
    assert len(inputs) == 22
    z = Laurent.z()
    packed, dense = [], []
    for p, r, s, *parts in inputs:
        changed = [parts[:k] + [f + Laurent.q(k)] + parts[k + 1:]
                   for k, f in enumerate(parts)]
        for g, inner, dd, big in [parts, *changed,
                                  [parts[0].shifted(1), *parts[1:]]]:
            packed.append(real(p, r, s, g, inner, dd, big))
            dense.append(not (g * z ** (p + s) * dd ** s - z ** r * big * dd
                              or g * z ** (p + r) - z ** s * inner))
    assert packed == dense
    assert dense.count(True) >= 22 and dense.count(False) >= 4 * 22


def _wrong_e6(monkeypatch, change):
    """Serve change(data) in place of ~E6's Klein data."""
    real = kostant.klein_data

    def wrong(family, n):
        data = real(family, n)
        return change(data) if (family, n) == ("affE", 6) else data

    monkeypatch.setattr(kostant, "klein_data", wrong)


def test_kostant_tables_check_the_tables_not_their_definitions(capsys,
                                                                monkeypatch):
    # h = a + b - 2 and |B| = ab/2 hold for these numbers, but the group of
    # ~E6 has order 24: Z_0 = 1 + q^h still holds, the McKay sum does not
    _wrong_e6(monkeypatch, lambda data: dataclasses.replace(
        data, a=4, b=10, h=12, order_b=20))
    code, out = run_cli(capsys, "verify", "kostant-tables", "--json")
    assert code == 1
    failing = {r["case"]: r["residual_terms"]
               for r in map(json.loads, out.splitlines()) if not r["holds"]}
    assert failing == {"affE6": 1}


def _failing(out: str) -> set:
    return {(r["suite"], r["case"]) for r in map(json.loads, out.splitlines())
            if not r["holds"]}


@pytest.mark.parametrize("change, want, kostant_want", [
    # Z_-1 H_i0 / T is then no polynomial: the Cramer division is inexact
    (lambda data: dataclasses.replace(
        data, z_minus1=data.z_minus1 + Laurent.q(3)),
     {("kostant-tables", "affE6"), ("kostant-tables", "affE6-system14"),
      ("kostant-tables", "affE6-system15"), ("poincare-cd", "affE6")},
     {"system-14", "system-15"}),
    # (h + 2)^2 - 8|B| = 12 is no square
    (lambda data: dataclasses.replace(data, order_b=23),
     {("kostant-tables", "affE6"), ("squares", "affE6")},
     {"perfect-square"}),
])
def test_a_wrong_klein_table_fails_its_cases_not_the_run(
        capsys, monkeypatch, change, want, kostant_want):
    _wrong_e6(monkeypatch, change)
    code, out = run_cli(capsys, "verify", "all", "--seed", "42", "--json")
    assert code == 1
    assert len(out.splitlines()) == 1404
    assert _failing(out) == want
    for suite in {s for s, _ in want}:
        code, out = run_cli(capsys, "verify", suite, "--json")
        assert code == 1 and _failing(out) == {
            (s, c) for s, c in want if s == suite}
    code, out = run_cli(capsys, "kostant", "--type", "~E6", "--verify",
                        "all", "--json")
    assert code == 1 and {c for _, c in _failing(out)} == kostant_want


def test_walks_check_the_series_they_name(capsys, monkeypatch):
    # Z_2 of ~E6 one term off: eq. 10 never reads it, the series part does
    _wrong_e6(monkeypatch, lambda data: dataclasses.replace(data, z_table=(
        *data.z_table[:2], data.z_table[2] + Laurent.q(5),
        *data.z_table[3:])))
    code, out = run_cli(capsys, "verify", "walks", "--json")
    assert code == 1 and _failing(out) == {("walks", "affE6-series")}
    code, out = run_cli(capsys, "kostant", "--type", "~E6", "--verify",
                        "walks", "--json")
    assert code == 1 and _failing(out) == {("kostant", "walks")}


# sha256 of the `coxkit kostant --type T --series I --terms 400` outputs of
# every vertex I of T, the virtual vertex -1 first, concatenated; computed
# before the series were divided by strided prefix sums
KOSTANT_SERIES_SHA256 = {
    "affA1":
        "cec08b1461f649d07b9a6845e0588c96b79b192ea1b0bd471e72746ef2accaf5",
    "affA2":
        "142960113bc1f308794af65a5bb1b04d12172bde494fbc3339c42207da84daba",
    "affA3":
        "a6892371f54c68bd4f077b64f0e0e0176f5cf3c7c77646783994f639097de272",
    "affA4":
        "9f6990eba8deaf72cb06d195a48e8f0d5f311e03ced1a500f12cab736fd36cb2",
    "affA5":
        "29151deb7ae81dd5a8eb44f5483668bbd5c09e00fd98fc45393b5ea517b4d5b3",
    "affA6":
        "98e14e9cea2204f2849348c599c00d88374fc4a616b680ec924ec288870f847b",
    "affA7":
        "8a6d56f4745afae0c7759898cf3248ea89f151d7a9177f20fe4d5d3295ca1882",
    "affA8":
        "7e3da68969866300c843f5586e8fc0a6ba27eed7bafb49e14c42b188f42cd151",
    "affA9":
        "8706864fc4c3a0afa667cf200b67760dffe5aca3123b03fdd2a4dd91e80c35d6",
    "affA10":
        "84ecd90a6b4f6989dc855b8f967786adc8987af6f4e2ba76b09acba4ca537d22",
    "affA11":
        "49e5debf15a6ea60730b357141aa31ed53ab5e50a498b6001c9b50450942422c",
    "affA12":
        "c1d0928603d98536374646917b6a0a35c6647bdad237996ae1332fdd04bafe4f",
    "affA13":
        "5ab88f3ca0a2e82b1a65ada93d56906704c73036f1823f749564e5648eb5e961",
    "affA14":
        "53444e74082ff16abfa69aac18960df94984da52461142c4d0c063a3502bfa65",
    "affA15":
        "a5ec921bafe132098e75ea1bb1632b3e20b6778abae3789bfae238a1ee53e82a",
    "affA16":
        "e397d042a090bb30e1d3ebd629c8febddde3d7a54ee66a92108138a34b90dce0",
    "affD4":
        "7af6b26fb9bdf1576391e6f520f793be3a9759f8dbceafe82352a9a2fcfe8925",
    "affD5":
        "aec9dd30b2291f7647f82c2ba43ec2071af052db50373238fbbb453b7808596e",
    "affD6":
        "ea112fa3ad0601a0d8ea612cab33887013675447c4f23de9f2809e9f448b0bcd",
    "affD7":
        "afca149180f487e878e15257e909ddc4deaa22a064866e5a6830e21ca4850f68",
    "affD8":
        "64eac4faa8754b431b45007513d74df0c54df333d06cb714d6ed02c2d84a622b",
    "affD9":
        "5137f45422ff4d30aed45cac2d9dcfe431994b83d02016f7dcba7ba0d2ecf593",
    "affD10":
        "879f7bc72489f44bdfbd5b3bed9f1d9a152cfe7254ea21e9942494b3d6be0eb3",
    "affD11":
        "3236e1701d2633653378b667bbcfd4b57c0985d17e6a0647bf8a47b6c8c7ecfb",
    "affD12":
        "dcd2b1dc3d9c22f089756ab5d136d6675d05db6c45de9b8c96813d88942267f7",
    "affD13":
        "8d829718fbc0cc56a2446c8bea8655dbde7001ddb206f8c390ede4d31919c0ba",
    "affD14":
        "8e0e2effb2e72025f717853d5a36f3c051be171fbb1e315d13979c620e9497ae",
    "affD15":
        "94aa84609329c1439d80c65c5787241086f399c2061b55220d91b7e44b15cbae",
    "affD16":
        "91e2cc799e5181a135bcd07f80fb7959cac44effc1da0ad21af0fbb6d9cbba92",
    "affE6":
        "6f4e840dde20d3263fc5c2c803b52295584be0b7b5ae89ce8e42d3a75dea5ecc",
    "affE7":
        "e4f67dcdd392de30dc47490d8c815ec1ef7786900bc541ec5b54542e02c90e38",
    "affE8":
        "81b892498f4e341d12df16f88642b161fc868fa19642e0e608402cc3be2decd7",
}


@pytest.mark.parametrize("fam,n", kostant.klein_types(16))
def test_kostant_series_output_is_pinned(capsys, fam, n):
    digest = hashlib.sha256()
    for i in range(-1, kostant.klein_data(fam, n).vertex_count):
        code, out = run_cli(capsys, "kostant", "--type", f"~{fam[3:]}{n}",
                            "--series", str(i), "--terms", "400")
        assert code == 0, i
        digest.update(out.encode())
    assert digest.hexdigest() == KOSTANT_SERIES_SHA256[f"{fam}{n}"]


def _pure_braid_texts():
    """Seeded pure braids on 2-4 strands, two for each count of 1-5 standard
    generators A_ij^(+-1) (s_i^2 conjugated by s_(j-1) ... s_(i+1)); the
    first is an A_1j, so that strand 1, whose longitude braid magnus
    expands, is linked."""
    rng = random.Random(18)
    out = []
    for k, count in enumerate((1, 1, 2, 2, 3, 3, 4, 4, 5, 5)):
        strands = 2 + k % 3
        word = []
        for _ in range(count):
            i = rng.randint(1, strands - 1) if word else 1
            j = rng.randint(i + 1, strands)
            conj = list(range(j - 1, i, -1))
            g = rng.choice((1, -1)) * i
            word += conj + [g, g] + [-x for x in reversed(conj)]
        out.append((str(strands), " ".join(
            f"{'-' if x < 0 else ''}s{abs(x)}" for x in word)))
    return out


# sha256 of the `coxkit braid magnus --order K` outputs and exit codes of
# the braids of _pure_braid_texts, concatenated, keyed by K, and of
# `coxkit braid milnor --order 7` on the first six; computed before Magnus
# words were held as integers
BRAID_MAGNUS_SHA256 = {
    0: "8aaaea0d36fb0ac1fe5bfaba45c53c6891442f31e21c7b30288641aeaed90119",
    1: "57469a9a29429b6087d9f044ce2e6858cdc4ae7b9a5c07254692b550be110751",
    6: "9ba48358c0426871f268694536c07881d12d6b2843e149de318a22ac240286b7",
    12: "1a67fee79d670f4477514d269aed541ec775f4fa758e94adca06659f17fb43e0",
}
BRAID_MILNOR7_SHA256 = (
    "3dc94be58776c3df3e6d26a411af49289b3c3325128905e8306db9d65a3684cf")
# and of `coxkit braid longitudes` on all ten, computed before longitudes
# and the Artin action shared one meridian walk
BRAID_LONGITUDES_SHA256 = (
    "67edac413c32f66666c18b4afd27c238ca3e5dc961e668b65a8bd3b8c2c14d53")


# sha256 of the stdout of the commands whose outputs the tier-1 workflow
# pins (.github/workflows/tier1.yml), so that a local run sees a change
# in them: the rank-1000 polynomials of Schwenk's edge step and of the
# rooted forest step, one output of each Magnus route (the packed
# route on the 12-92 letter longitudes of this 4-strand braid, the dict
# route on the 10-letter longitude of s1^-6 at order 16, 26475 lines),
# the Coxeter polynomial of the complete graph on 16 vertices, whose 105
# independent cycles send it to Bareiss in a frame of 80 bits (rows of
# exponent stride 2), and the ratio of (s1 s2^-1 s3 s4^-1)^8 against s1,
# whose two det(E - beta) run Bareiss on Laurent rows of stride 1 in
# frames of 72 bits, and the reduced Burau image of (s1 s2^-1)^21, whose 42
# letters pack its rows in a frame of 72 bits
CI_PINNED_SHA256 = {
    "affine-A1000-char": (
        "coxeter --diagram ~A1000 --char",
        "932a2496a9e08e549b1ad83598f40bda61507dbbe3bd5786ef79a772b68e2b52"),
    "A1000-char": (
        "coxeter --diagram A1000 --char",
        "74153aca54ee3ba5dfbec668eb00263e19e5d87de920d1d8757284eccb6fe138"),
    "D1000-char": (
        "coxeter --diagram D1000 --char",
        "b765fbc0cbb11c7a2163bf3dbe536b49836a0fb89653855f46a9e25b180eae28"),
    "milnor-packed": (
        "braid milnor --order 7"
        " --word 's1 s1 s2 s2 s3 s3 -s1 -s1 -s2 -s2 -s3 -s3'",
        "a500ca02f4a5861a6f1750871e237f6bf93a6b55af01868a3cdd2758cea99908"),
    "magnus-dict": (
        "braid magnus --word '-s1 -s1 -s1 -s1 -s1 -s1' --order 16",
        "2b484bd58c7c91b71ded36e0832b38ef5ff9d71d62648bde8c75b70fab1c99f4"),
    "K16-coxeter": (
        "coxeter --diagram K16.txt",
        "53a59ed7e12dfe4cad0e71073cef9c184c238778444ba05c18f62a183dd500e5"),
    "ratio-72bit": (
        "braid ratio --against s1 --word '"
        + " ".join(["s1 -s2 s3 -s4"] * 8) + "'",
        "5bd93890943d9e29d1893bce97b193f9f7b5430feb6164d61ad0c6a9c3edbac7"),
    "burau-72bit": (
        "braid burau --word '" + " ".join(["s1 -s2"] * 21) + "'",
        "c0b94fa197deebc46823da8531723b43f47df8335b4cec6ead4f3715156ca9ac"),
}
# for the cases it names, the widths of the frames that the determinants
# of the pinned run build
CI_PINNED_DET_WIDTHS = {"K16-coxeter": [80], "ratio-72bit": [72, 72]}


def _k16_text() -> str:
    """The file K16.txt that the workflow writes: the complete graph on 16
    vertices, weights from {1, 2} and a shuffled order, all drawn from
    Random(0)."""
    rng = random.Random(0)
    lines = ["n 16"] + [f"{i} {j} {rng.choice((1, 2))}"
                        for i in range(16) for j in range(i + 1, 16)]
    order = list(range(16))
    rng.shuffle(order)
    return "\n".join([*lines, "order " + " ".join(map(str, order))]) + "\n"


@pytest.mark.parametrize("name", list(CI_PINNED_SHA256))
def test_ci_pinned_output(capsys, tmp_path, monkeypatch, name):
    command, digest = CI_PINNED_SHA256[name]
    workflow = (Path(__file__).resolve().parents[1] / ".github"
                / "workflows" / "tier1.yml")
    assert f'"{digest}  -"' in workflow.read_text(encoding="utf-8")
    (tmp_path / "K16.txt").write_text(_k16_text())
    monkeypatch.chdir(tmp_path)
    # inside algebra only the determinant builds a Frame
    widths = []

    class LoggedFrame(algebra.Frame):
        __slots__ = ()

        def __init__(self, bound):
            super().__init__(bound)
            widths.append(self.width)

    monkeypatch.setattr(algebra, "Frame", LoggedFrame)
    coxeter._coxeter_poly.cache_clear()  # so that K16 reaches Bareiss
    code, out = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert widths == CI_PINNED_DET_WIDTHS.get(name, widths)


@pytest.mark.parametrize("order", sorted(BRAID_MAGNUS_SHA256))
def test_braid_magnus_output_is_pinned(capsys, order):
    digest = hashlib.sha256()
    for strands, word in _pure_braid_texts():
        code, out = run_cli(capsys, "braid", "magnus", "--word", word,
                            "--strands", strands, "--order", str(order))
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == BRAID_MAGNUS_SHA256[order]


def test_braid_milnor_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for strands, word in _pure_braid_texts()[:6]:
        code, out = run_cli(capsys, "braid", "milnor", "--word", word,
                            "--strands", strands, "--order", "7")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == BRAID_MILNOR7_SHA256


def test_braid_longitudes_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for strands, word in _pure_braid_texts():
        code, out = run_cli(capsys, "braid", "longitudes", "--word", word,
                            "--strands", strands)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == BRAID_LONGITUDES_SHA256
