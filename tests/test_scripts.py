"""The example scripts run end to end on tiny problems."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import gnwave

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run(tmp_path):
    """Each script exits 0 and prints its summary line; the three run at once.
    Rerun into the same output with a shorter end time, the bump script counts
    only the rerun's snapshots, and the last one is the rerun's final state."""
    bump = ["--snapshot-stride", "2", "--output", str(tmp_path / "bump")]
    exact = r"last one re-read, max gap to final state 0\.0e\+00$"
    # script: (arguments, pattern of its summary line)
    cases = {
        "energy_drift_study.py": (
            ["--resolution", "16", "--dt", "0.2", "0.1", "--t-end", "0.4"],
            r"^\(expected drift ratio per halving for rk4: 32;",
        ),
        "solitary_transit.py": (
            ["--resolution", "64", "--periods", "0.05", "--amplitudes", "0.2"],
            r"^ +0\.2 +31 +\d\.\d{3}e-\d\d ",  # amplitude, steps, shape error
        ),
        "bump_scattering.py": (
            ["--t-end", "0.05", *bump],
            r"^4 snapshots; " + exact,
        ),
    }
    env = dict(os.environ)
    package_root = str(Path(gnwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))

    def start(name: str, args: list[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(SCRIPTS / name), *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=env,
        )

    def finish(name: str, proc: subprocess.Popen, pattern: str) -> None:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name} failed:\n{err}"
        assert re.search(pattern, out, re.M), f"{name} printed no summary:\n{out}"

    procs = {name: start(name, args) for name, (args, _) in cases.items()}
    for name, proc in procs.items():
        finish(name, proc, cases[name][1])
    rerun = start("bump_scattering.py", ["--t-end", "0.02", *bump])
    finish("bump_scattering.py", rerun, r"^2 snapshots; " + exact)
