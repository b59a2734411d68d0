"""Exhaustive oracle: every labeled graph on 1-5 vertices, with the
expansion gate forced both ways (scripts/sweep_small_graphs.py holds the
checks and runs 6 vertices on demand)."""

import ast
import contextlib
import importlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

from coxkit import cli, coxeter
from oracles import det_poly_by_bareiss

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_small_graphs.py"
_spec = importlib.util.spec_from_file_location("sweep_small_graphs", _SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize("gate", sweep.GATES)
def test_every_small_graph_against_the_determinant_oracles(gate, monkeypatch):
    monkeypatch.setattr(coxeter, "_EXPAND_MAX", gate)
    sweep.clear_memos()
    count, failures = 0, []
    # every zE - A the checks build, and each of its minors, also goes
    # through the Bareiss loop on the polynomials themselves
    real_det, agreed = sweep.det_poly, []

    def checked_det(mat):
        det = real_det(mat)
        agreed.append(det == det_poly_by_bareiss(mat))
        return det

    monkeypatch.setattr(sweep, "det_poly", checked_det)
    try:
        for n in range(1, 6):
            for d in sweep.labeled_graphs(n, random.Random(n)):
                count += 1
                failures += [(check, d.edges(), d.order)
                             for check in sweep.failed_checks(d, n <= 4)]
    finally:
        sweep.clear_memos()
    assert count == 1 + 2 + 8 + 64 + 1024
    assert len(agreed) > count and all(agreed)
    assert not failures, failures[:5]


def test_labeled_graphs_are_distinct_and_seeded():
    graphs = list(sweep.labeled_graphs(4, random.Random(4)))
    assert len({frozenset((i, j) for i, j, _ in d.edges())
                for d in graphs}) == 64
    assert {w for d in graphs for *_, w in d.edges()} == {1, 2}
    again = list(sweep.labeled_graphs(4, random.Random(4)))
    assert [(d.edges(), d.order) for d in graphs] == [
        (d.edges(), d.order) for d in again]


def _memos():
    """Every lru_cache of the package, found by its decorator in the
    source."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"coxkit.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(dec)
                    for dec in node.decorator_list):
                yield getattr(module, node.name)


def test_clear_memos_empties_every_memo_of_the_package():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all"]) == 0
    memos = list(_memos())
    assert memos and all(m.cache_info().currsize for m in memos)
    sweep.clear_memos()
    assert [m.__qualname__ for m in memos if m.cache_info().currsize] == []
