"""Run one `gnwave run` in this fresh interpreter and report its timings and checks.

Usage (from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py CONFIG RESULT_JSON --workload NAME
        [--shape-tolerance TOL] [--spans PATH]

Untraced, the only timestamps are taken at `gnwave run`'s entry into the time
loop, at each RK step (``_Stepper.advance``) and at the start of each
diagnostics record; a record lasts until the next step starts or the loop
returns, so it includes the sink writes (and, for gn_u, the u→v map).  Between
steps, outside every timed step and record, the workload's reference kernel
(``calib.py``) is timed at the loop's entry, after every ``calibrate_every``
steps and at the loop's exit; every time is reported both raw and scaled to
the reference host speed, and the kernel's own time is taken out of the run
and CPU times.  With ``--spans`` the outside-in tracer is installed instead of
the kernel and its spans are written to PATH.

After the run, outside every timed interval, the artifacts are checked: exit
code and termination, mass drift across the CSV records, CSV against the
in-memory records, the last snapshot against the final state, and, with
``--shape-tolerance``, the aligned shape error of the final surface against
the initial one.
"""
from __future__ import annotations

import argparse
import hashlib
import io as _stdio
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

perf_counter = time.perf_counter

MASS_DRIFT_LIMIT = 1e-12


class Boundaries:
    """Step and record boundary timestamps of one run, plus what the run returned."""

    def __init__(self, calibration=None) -> None:
        self.calibration = calibration
        self.run_enter = 0.0
        self.run_exit = 0.0
        self.steps: list[tuple[float, float]] = []
        self.record_starts: list[float] = []
        self.records: list = []
        self.initial = None
        self.report = None

    def install(self) -> None:
        from gnwave import cli, timeloop

        advance, collect, run = timeloop._Stepper.advance, timeloop.collect_record, cli.run
        steps, starts, records = self.steps, self.record_starts, self.records
        calibration = self.calibration

        def timed_advance(stepper, *args, **kwargs):
            t0 = perf_counter()
            out = advance(stepper, *args, **kwargs)
            steps.append((t0, perf_counter()))
            if calibration is not None and len(steps) % calibration.every == 0:
                calibration.sample()
            return out

        def timed_collect(*args, **kwargs):
            starts.append(perf_counter())
            rec = collect(*args, **kwargs)
            records.append(rec)
            return rec

        def timed_run(initial, *args, **kwargs):
            self.initial = initial
            self.run_enter = perf_counter()
            if calibration is not None:
                calibration.sample()  # warm-up, not kept
                calibration.sample()
                del calibration.starts[0], calibration.ms[0]
            try:
                self.report = run(initial, *args, **kwargs)
            finally:
                self.run_exit = perf_counter()
                if calibration is not None:
                    calibration.sample()
            return self.report

        timeloop._Stepper.advance = timed_advance
        timeloop.collect_record = timed_collect
        cli.run = timed_run

    def step_ms(self, scaled: bool = False) -> list[float]:
        return [1e3 * (b - a) * self._factor(a, b, scaled) for a, b in self.steps]

    def record_ms(self, scaled: bool = False) -> list[float]:
        """Duration of every record, the initial one first."""
        ends = [a for a, _ in self.steps] + [self.run_exit]
        spans = [(t, min(e for e in ends if e > t)) for t in self.record_starts]
        return [1e3 * (b - a) * self._factor(a, b, scaled) for a, b in spans]

    def _factor(self, t0: float, t1: float, scaled: bool) -> float:
        return self.calibration.factor(t0, t1) if scaled else 1.0


def _check(checks: dict, name: str, value, limit, ok: bool) -> None:
    checks[name] = {"value": value, "limit": limit, "ok": bool(ok)}


def check_artifacts(bounds: Boundaries, rc: int, cfg, shape_tol: float | None) -> dict:
    from gnwave import io as gio
    from gnwave import verify

    checks: dict = {}
    directory = Path(cfg.output.directory)
    report = bounds.report
    termination = report.termination if report is not None else "none"
    _check(checks, "exit_code", rc, 0, rc == 0)
    _check(checks, "termination", termination, "completed", termination == "completed")
    csv_path = directory / "diagnostics.csv"
    rows = gio.read_diagnostics(csv_path.read_text())
    masses = [row["mass"] for row in rows]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0]) if masses else float("nan")
    _check(checks, "mass_drift", drift, MASS_DRIFT_LIMIT, drift <= MASS_DRIFT_LIMIT)
    same = len(rows) == len(bounds.records) and all(
        all(row[key] == getattr(rec, key) for key in gio.DIAGNOSTIC_COLUMNS)
        for row, rec in zip(rows, bounds.records)
    )
    _check(checks, "csv_matches_records", len(rows), len(bounds.records), same)

    snaps = sorted(directory.glob("snapshot_*.gnwv"))
    last = snaps[-1] if snaps else None
    exact = False
    if last is not None and report is not None:
        final = report.final_state
        back = gio.read_snapshot(last, expected_grid=final.grid)
        rewritten = directory / "roundtrip.gnwv"
        gio.write_snapshot(back, cfg.params, rewritten)
        exact = (
            back.time == final.time
            and back.zeta.data.tobytes() == final.zeta.data.tobytes()
            and back.vel.data.tobytes() == final.vel.data.tobytes()
            and rewritten.read_bytes() == last.read_bytes()
        )
        rewritten.unlink()
    _check(checks, "snapshot_roundtrip", str(last.name) if last else None, "bit-exact", exact)

    if shape_tol is not None and report is not None:
        grid = report.final_state.grid
        gap = verify.aligned_profile_gap(
            grid, report.final_state.zeta.data, bounds.initial.zeta.data
        )
        _check(checks, "aligned_shape_error", gap, shape_tol, gap <= shape_tol)

    digest = hashlib.sha256(csv_path.read_bytes())
    if last is not None:
        digest.update(last.read_bytes())
    checks["_digest"] = digest.hexdigest()
    checks["_snapshot_bytes"] = last.stat().st_size if last is not None else 0
    return checks


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("result")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--shape-tolerance", type=float, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    t_start = perf_counter()
    import gnwave.cli as cli

    t_imported = perf_counter()
    calibration = None
    if args.spans is None:
        from workloads import WORKLOADS

        calibration = WORKLOADS[args.workload].calibration()
    bounds = Boundaries(calibration)
    bounds.install()
    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    captured = _stdio.StringIO()
    cpu0 = time.process_time()
    t0 = perf_counter()
    with redirect_stdout(captured):
        rc = cli.main(["run", "--config", args.config])
    run_s = perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if calibration is not None:
        run_s -= calibration.wall_s
        cpu_s -= calibration.cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from gnwave.io import load_config

    cfg = load_config(Path(args.config).read_text())
    checks = check_artifacts(bounds, rc, cfg, args.shape_tolerance)
    records = bounds.record_ms()
    setup_s = bounds.run_enter - t_start if bounds.run_enter else None
    result = {
        "gnwave_file": cli.__file__,
        "import_s": t_imported - t_start,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": len(bounds.steps),
        "step_ms": bounds.step_ms(),
        "record_ms": records[1:],
        "initial_record_ms": records[0],
        "rel_tolerance": cfg.elliptic.rel_tolerance,
        "checks": checks,
        "stdout": captured.getvalue(),
    }
    if calibration is not None and setup_s is not None:
        overall = calibration.overall()
        result["scaled"] = {
            # set-up is mostly imports, which barely follow the host's speed: it stays raw
            "setup_s": setup_s,
            "run_s": run_s * overall,
            "cpu_s": cpu_s * overall,
            "step_ms": bounds.step_ms(scaled=True),
            "record_ms": bounds.record_ms(scaled=True)[1:],
        }
        result["calibration_ms"] = calibration.ms
    if tracer is not None:
        from layers import layer_metrics

        tracer.write(Path(args.spans))
        result["layers"] = layer_metrics(tracer, result)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
