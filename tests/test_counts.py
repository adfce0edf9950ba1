"""README's "Solver counts" table against the code: each row's benchmark INI,
built by ``perfbench/workloads.py``, is run in-process and every cell must
match exactly, so a change that moves a count edits the table with it."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import gnwave
from gnwave.io import build_bathymetry, build_initial_state, load_config
from gnwave.timeloop import CollectingSinks, run

ROOT = Path(gnwave.__file__).parent.parent.parent
HEADER = "| INI | seed | steps | stage CG | records | record CG |"
CASES = [("soliton_1d", 7), ("soliton_1d", 11), ("hump_2d", 7), ("hump_2d", 11)]


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not beside this source tree")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _table() -> dict[tuple[str, int], tuple[int, ...]]:
    """The rows of README's table: (INI, seed) to the four counts."""
    readme = ROOT / "README.md"
    if not readme.is_file():
        pytest.skip("README.md is not beside this source tree")
    lines = readme.read_text().splitlines()
    assert lines.count(HEADER) == 1, "README must hold one solver-counts table"
    rows = {}
    for line in lines[lines.index(HEADER) + 2 :]:
        if not line.startswith("|"):
            break
        name, seed, *counts = (cell.strip() for cell in line.strip("|").split("|"))
        assert (name, int(seed)) not in rows, f"row {name} {seed} appears twice"
        rows[name, int(seed)] = tuple(int(c) for c in counts)
    return rows


def test_table_covers_each_case_once():
    """The table holds one row per benchmark INI and seed, and no other."""
    assert sorted(_table()) == sorted(CASES)


@pytest.mark.parametrize("name, seed", CASES)
def test_run_matches_table(name, seed, tmp_path):
    """Steps, stage CG iterations, records and record CG iterations of the
    run are the table's row for equality."""
    row = _table().get((name, seed))
    assert row is not None, f"README's table has no row for {name} at seed {seed}"
    cfg = load_config(_workloads()[name].ini(seed, str(tmp_path)))
    sinks = CollectingSinks()
    report = run(
        build_initial_state(cfg), cfg.params, build_bathymetry(cfg), cfg.integration,
        cfg.elliptic, sinks=sinks,
    )
    counts = (report.steps, report.stage_iterations, len(sinks.records), report.record_iterations)
    assert counts == row
