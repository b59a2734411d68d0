"""The scripts under scripts/: bad options end in one error line and exit
code 2 before any work, and a closed stdout in exit code 1 without a
traceback."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxkit.diagram import MAX_VERTICES
from coxkit.kostant import MAX_TERMS

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "show_tables.py"
_spec = importlib.util.spec_from_file_location("show_tables", _SCRIPT)
show_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(show_tables)


@pytest.mark.parametrize("argv", [
    ["--terms", "-3"],
    ["--terms", str(MAX_TERMS + 1)],
    ["--terms", "600000"],
    ["--max-rank", "0"],
    ["--max-rank", "-1"],
    # an affine type of rank n has n + 1 vertices
    ["--max-rank", str(MAX_VERTICES)],
    ["--max-rank", "1100"],
    ["--terms", "x"],
    ["--bogus"],
])
def test_show_tables_rejects_bad_options_at_once(capsys, monkeypatch, argv):
    def no_work(max_rank):
        raise AssertionError("a type list was built")

    monkeypatch.setattr(show_tables, "klein_types", no_work)
    assert show_tables.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_show_tables_prints_the_smallest_type(capsys):
    assert show_tables.main(["--max-rank", "1", "--terms", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== ~A1:  a=2  b=2  h=2  |B|=2\n")
    assert "   P_0 through q^0: 1\n" in out


def test_show_tables_on_a_closed_stdout_ends_without_traceback():
    # the reader is gone before the first line is written, as when
    # `| head` has already exited
    src = str(_SCRIPT.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, str(_SCRIPT), "--max-rank", "1", "--terms", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err, err
