"""Tests of the benchmark itself: exact counts, trace parity, result contract.

Run from the checkout root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from calib import Calibration, Kernel  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [name for name, (_unit, exact, _why) in PER_LAYER.items() if exact]


def _child(tmp_path: Path, workload: str, steps: int, tag: str, traced: bool) -> dict:
    work = tmp_path / tag
    work.mkdir()
    config = work / "run.ini"
    config.write_text(WORKLOADS[workload].ini(3, str(work / "out"), steps=steps))
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(result), "--workload", workload]
    if traced:
        cmd += ["--spans", str(work / "spans.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=300, capture_output=True)
    return json.loads(result.read_text())


@pytest.mark.parametrize(
    "workload, steps, solves_per_record",
    [("hump_2d", 2, 17), ("soliton_1d", 20, 7)],
)
def test_counts_repeat_exactly_and_match_baseline(tmp_path, workload, steps, solves_per_record):
    """Two traced runs of one config count identically; RK4 takes 4 solves a step."""
    plain = _child(tmp_path, workload, steps, "plain", traced=False)
    first = _child(tmp_path, workload, steps, "first", traced=True)
    second = _child(tmp_path, workload, steps, "second", traced=True)
    for name in COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["operators.solves_per_step"] == 4.0
    assert first["layers"]["diagnostics.solves_per_record"] == solves_per_record
    assert first["layers"]["operators.residual_max"] <= 1.0
    # the wrappers change no numerics: artifacts are bit-identical to the untraced run
    assert plain["checks"]["_digest"] == first["checks"]["_digest"] == second["checks"]["_digest"]
    for check in plain["checks"].values():
        assert not isinstance(check, dict) or check["ok"], check
    spans = (tmp_path / "first" / "spans.jsonl").read_text().splitlines()
    assert sum('"name": "timeloop.step"' in line for line in spans) == steps


def test_untraced_run_times_the_kernel_between_steps_and_scales_by_it(tmp_path):
    plain = _child(tmp_path, "soliton_1d", 20, "plain", traced=False)
    # one warm-up dropped, one at entry, one per ten steps, one at exit
    assert len(plain["calibration_ms"]) == 1 + 2 + 1
    scaled = plain["scaled"]
    assert len(scaled["step_ms"]) == len(plain["step_ms"]) == 20
    assert len(scaled["record_ms"]) == len(plain["record_ms"]) == 1
    assert scaled["setup_s"] == plain["setup_s"]
    assert all(s > 0 for s in scaled["step_ms"] + scaled["record_ms"] + [scaled["run_s"], scaled["cpu_s"]])


def test_calibration_factor_uses_the_samples_around_an_interval():
    cal = Calibration(Kernel((16,), 1, 1, 2.0), every=1)
    cal.starts, cal.ms = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
    assert cal.factor(1.1, 1.9) == 2.0 / 3.0  # samples at 1.0 and 2.0
    assert cal.factor(2.1, 2.9) == 2.0 / 6.0
    assert cal.factor(-1.0, -0.5) == 2.0  # before every sample: the first one
    assert cal.factor(3.5, 3.6) == 2.0 / 8.0  # after every sample: the last one
    assert cal.overall() == 2.0 / 3.0
    assert isinstance(Kernel((8, 8), 1, 1, 1.0).run(), float)


def test_tail_is_highest_listed_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(48)]) == (75.0, 35.0)
    assert tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tail([float(i) for i in range(2500)])[0] == 95.0
    assert tail([float(i) for i in range(5)])[0] == 50.0


def test_benchmark_file_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _exact, _why) in PER_LAYER.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark it fails fast and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soliton_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
