"""Exhaustive oracle: every labeled graph on 1-5 vertices, with the
expansion gate forced both ways (scripts/sweep_small_graphs.py holds the
checks and runs 6 vertices on demand)."""

import importlib.util
import random
from pathlib import Path

import pytest

from coxkit import coxeter

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_small_graphs.py"
_spec = importlib.util.spec_from_file_location("sweep_small_graphs", _SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize("gate", sweep.GATES)
def test_every_small_graph_against_the_determinant_oracles(gate, monkeypatch):
    monkeypatch.setattr(coxeter, "_EXPAND_MAX", gate)
    sweep.clear_memos()
    count, failures = 0, []
    try:
        for n in range(1, 6):
            for d in sweep.labeled_graphs(n, random.Random(n)):
                count += 1
                failures += [(check, d.edges(), d.order)
                             for check in sweep.failed_checks(d, n <= 4)]
    finally:
        sweep.clear_memos()
    assert count == 1 + 2 + 8 + 64 + 1024
    assert not failures, failures[:5]


def test_labeled_graphs_are_distinct_and_seeded():
    graphs = list(sweep.labeled_graphs(4, random.Random(4)))
    assert len({frozenset((i, j) for i, j, _ in d.edges())
                for d in graphs}) == 64
    assert {w for d in graphs for *_, w in d.edges()} == {1, 2}
    again = list(sweep.labeled_graphs(4, random.Random(4)))
    assert [(d.edges(), d.order) for d in graphs] == [
        (d.edges(), d.order) for d in again]
