"""Layered benchmark of `gnwave run` on two reference workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks the workload's amplitudes (see ``workloads.py``); the program
sees only the generated INI.  One run of the benchmark is a fixed number of
`gnwave run` processes, one after another, each a fresh interpreter
(``child.py``): about S seconds of them on the reference box, never fewer than
three.  Every process is checked, and one that exits non-zero, does not
complete, fails an output check, or writes artifacts that differ from the
first process's counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, pooled over the processes:
set-up, run, CPU time and peak memory as medians per process, and step and
record times as the median (and tail) over every step and record.  Every
time but set-up is scaled to the reference host speed by the kernel timed
between steps (``calib.py``); the same metrics from raw times are in the
details.
``--trace 1`` alternates untraced and traced processes, checks that both write
bit-identical artifacts, and reports the per-layer metrics of ``layers.py``
as medians over the traced processes, plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details: environment, generated INI, per-process numbers and checks.
Spans and full results are kept under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_CHILDREN = 3
# A process is not started if the run would then likely end after this many
# times its --seconds; this bounds a run on a slow or busy machine.
TIME_CAP = 1.05
# A hung process is killed so the whole run still ends within 180 s.
DEADLINE_S = 170.0
SHAPE_TOLERANCE = {"soliton_1d": 1e-4}
# p99 of the pooled steps spread ±49% between runs on the reference box, p95 ±9%.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms": "ms",
    "step_ms_tail": "ms",
    "record_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError, ValueError):
        top, commit = None, None
    if top is None or Path(top).resolve() != ROOT:
        commit = None  # not a git checkout of its own
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_child(
    config: Path, work: Path, index: int, workload: str, traced: bool, timeout: float
) -> dict:
    """One `gnwave run` in a fresh interpreter; returns its result, or a failure."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    tag = f"{index:02d}{'t' if traced else 'p'}"
    result_path = work / f"result_{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(result_path), "--workload", workload]
    if workload in SHAPE_TOLERANCE:
        cmd += ["--shape-tolerance", repr(SHAPE_TOLERANCE[workload])]
    if traced:
        spans = STATE / "traces" / f"{work.name}_{tag}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    log = work / f"log_{tag}.txt"
    t0 = time.perf_counter()
    with open(log, "w") as handle:
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
                timeout=timeout,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    wall = time.perf_counter() - t0
    if code != 0 or not result_path.exists():
        tail_of_log = log.read_text()[-2000:]
        return {"traced": traced, "ok": False, "error": f"exit {code}", "log": tail_of_log, "wall_s": wall}
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    result["wall_s"] = wall
    if "scaled" in result:
        result["step_ms_median"] = statistics.median(result["step_ms"])
        result["scaled_step_ms_median"] = statistics.median(result["scaled"]["step_ms"])
        result["kernel_ms_median"] = statistics.median(result["calibration_ms"])
    checks = {k: v for k, v in result["checks"].items() if not k.startswith("_")}
    result["ok"] = all(c["ok"] for c in checks.values()) and Path(result["gnwave_file"]).is_relative_to(SRC)
    return result


def pooled(plain: list[dict], times: str) -> dict:
    """End-to-end metrics of the untraced processes, from their raw or scaled times."""
    source = [r[times] if times == "scaled" else r for r in plain]
    steps = [t for r in source for t in r["step_ms"]]
    records = [t for r in source for t in r["record_ms"]]
    pct, tail_value = tail(steps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in source),
        "run_s": statistics.median(r["run_s"] for r in source),
        "step_ms": statistics.median(steps),
        "step_ms_tail": tail_value,
        "record_ms": statistics.median(records),
        "cpu_s": statistics.median(r["cpu_s"] for r in source),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = {
        "step_ms_tail_percentile": pct,
        "step_samples": len(steps),
        "record_samples": len(records),
        "processes": len(plain),
    }
    return {"metrics": metrics, "notes": notes}


def summarize(results: list[dict]) -> dict:
    """Scaled end-to-end metrics; the raw ones and the host's speed go to the details."""
    plain = [r for r in results if r["ok"] and not r["traced"]]
    summary = pooled(plain, "scaled")
    summary["raw"] = pooled(plain, "raw")["metrics"]
    samples = [ms for r in plain for ms in r["calibration_ms"]]
    summary["notes"]["kernel_ms_median"] = statistics.median(samples)
    summary["notes"]["kernel_samples"] = len(samples)
    return summary


def layer_summary(results: list[dict]) -> dict:
    traced = [r for r in results if r["ok"] and r["traced"]]
    plain = [r for r in results if r["ok"] and not r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead"
    }
    metrics["trace.overhead"] = (
        statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain) - 1.0
    )
    repeat = all(
        len({r["layers"][name] for r in traced}) == 1
        for name, (_unit, exact, _why) in PER_LAYER.items()
        if exact
    )
    return {"metrics": metrics, "counts_repeat_exactly": repeat}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gnwave" / "cli.py").is_file():
        print(f"error: no gnwave sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = STATE / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.ini"
    ini = workload.ini(args.seed, str(work / "out"))
    config.write_text(ini)

    count = max(MIN_CHILDREN, round(args.seconds / workload.nominal_s))
    plan = [i % 2 == 1 for i in range(2 * max(2, count // 2))] if args.trace else [False] * count
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    results = []
    for index, traced in enumerate(plan):
        elapsed = time.perf_counter() - started
        expected = elapsed + statistics.median(r["wall_s"] for r in results) if results else 0.0
        if index >= MIN_CHILDREN + args.trace and expected > TIME_CAP * args.seconds:
            break
        timeout = max(1.0, deadline - time.perf_counter())
        results.append(run_child(config, work, index, workload.name, traced, timeout))

    digests = [r["checks"]["_digest"] for r in results if "checks" in r]
    for r in results:
        if r["ok"] and r["checks"]["_digest"] != digests[0]:
            r["ok"] = False  # traced or not, every process must write the same bytes
    failed = sum(not r["ok"] for r in results)
    have = lambda traced: any(r["ok"] and r["traced"] == traced for r in results)  # noqa: E731
    measured = have(False) and (have(True) or not args.trace)
    if measured:
        summary = layer_summary(results) if args.trace else summarize(results)
    else:
        summary = {"metrics": {}}
    units = {name: spec[0] for name, spec in PER_LAYER.items()} if args.trace else END_TO_END
    details = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "ini": ini,
        "summary": summary,
        "processes": [
            {
                k: v
                for k, v in r.items()
                if k not in ("step_ms", "record_ms", "layers", "scaled", "calibration_ms")
            }
            for r in results
        ],
    }
    print(json.dumps(details))
    result_dir = STATE / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{work.name}.json").write_text(json.dumps(details, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    line = {
        "correct": failed == 0 and measured and summary.get("counts_repeat_exactly", True),
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in summary["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
