"""Per-layer numbers of one traced `gnwave run`, computed from its spans.

Each metric is listed in ``PER_LAYER`` with its unit, whether it is an exact
count (it must repeat bit for bit across traced runs of one config), and the
end-to-end metric and workload it should move.  A span's context is its
nearest enclosing RK step or diagnostics record, so step solves and record
solves are told apart.  Times of records use only the records after the first
step, as the end-to-end ``record_ms`` does; counts use every record.
"""
from __future__ import annotations

# name: (unit, exact count?, what it should move)
PER_LAYER: dict[str, tuple[str, bool, str]] = {
    "grid.fft_calls_per_step": ("count", True, "step_ms on soliton_1d"),
    "grid.fft_calls_per_tendency": ("count", True, "step_ms on soliton_1d"),
    "grid.fft_ms_per_step": ("ms", False, "step_ms on hump_2d"),
    "grid.fft_share": ("ratio", False, "step_ms on hump_2d"),
    "grid.fft_gflops": ("GFLOP/s-computed", False, "step_ms on hump_2d"),
    "grid.fft_mb_per_step": ("MB-computed", True, "step_ms on hump_2d"),
    "grid.calculus_calls_per_step": ("count", True, "step_ms on both"),
    "grid.calculus_ms_per_step": ("ms", False, "step_ms on both"),
    "operators.solves_per_step": ("count", True, "step_ms on hump_2d and soliton_1d"),
    "operators.pcg_iters_per_solve": ("count", True, "step_ms on hump_2d and soliton_1d"),
    "operators.pcg_ms_per_solve": ("ms", False, "step_ms on hump_2d and soliton_1d"),
    "operators.pcg_ms_per_iter": ("ms", False, "step_ms on hump_2d and soliton_1d"),
    "operators.fft_calls_per_iter": ("count", True, "step_ms on hump_2d and soliton_1d"),
    "operators.pcg_share": ("ratio", False, "step_ms on hump_2d and soliton_1d"),
    "operators.residual_max": ("ratio", True, "must stay <= 1 everywhere"),
    "operators.nonlinear_ms_per_tendency": ("ms", False, "step_ms on both (apply_R and apply_Rb in gn_v)"),
    "models.tendency_ms": ("ms", False, "step_ms on both"),
    "models.tendency_self_ms": ("ms", False, "step_ms on both"),
    "models.tendency_fft_calls_self": ("count", True, "step_ms on both"),
    "regularization.mollify_ms_per_tendency": ("ms", False, "step_ms on hump_2d; zero elsewhere"),
    "regularization.fft_calls_per_tendency": ("count", True, "step_ms on hump_2d; zero elsewhere"),
    "timeloop.step_self_ms": ("ms", False, "step_ms on soliton_1d"),
    "timeloop.step_self_share": ("ratio", False, "step_ms on soliton_1d"),
    "timeloop.fft_calls_self_per_step": ("count", True, "step_ms on soliton_1d"),
    "diagnostics.record_ms": ("ms", False, "record_ms and run_s on hump_2d"),
    "diagnostics.solves_per_record": ("count", True, "record_ms and run_s on hump_2d"),
    "diagnostics.pcg_iters_per_record_solve": ("count", True, "record_ms and run_s on hump_2d"),
    "diagnostics.fft_calls_per_record": ("count", True, "record_ms and run_s on hump_2d"),
    "diagnostics.energy_F_ms": ("ms", False, "record_ms and run_s on hump_2d"),
    "diagnostics.hamiltonian_ms": ("ms", False, "record_ms and run_s on hump_2d"),
    "diagnostics.energy_E_ms": ("ms", False, "record_ms and run_s on hump_2d"),
    "diagnostics.record_cost_in_steps": ("ratio", False, "record_ms and run_s on hump_2d"),
    "diagnostics.share": ("ratio", False, "record_ms and run_s on hump_2d"),
    "io.import_s": ("s", False, "setup_s on both"),
    "io.load_config_ms": ("ms", False, "setup_s on both"),
    "io.build_bathymetry_ms": ("ms", False, "setup_s on both"),
    "io.build_initial_ms": ("ms", False, "setup_s on both (shooting oracle: soliton_1d)"),
    "io.csv_ms_per_record": ("ms", False, "run_s on both"),
    "io.snapshot_ms": ("ms", False, "run_s on both"),
    "io.snapshot_bytes": ("B", True, "run_s on both"),
    "trace.overhead": ("ratio", False, "traced run_s over untraced run_s, minus 1"),
}

NONLINEAR = ("operators.apply_Q", "operators.apply_Qb", "operators.apply_R", "operators.apply_Rb")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, result: dict) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead`` for one traced run."""
    spans = tracer.spans
    n = len(spans)
    fft_calls = [s.fft_calls for s in spans]
    fft_s = [s.fft_s for s in spans]
    flops = [s.fft_flops for s in spans]
    nbytes = [s.fft_bytes for s in spans]
    calc_calls = [s.calc_calls for s in spans]
    calc_s = [s.calc_s for s in spans]
    for i in range(n - 1, -1, -1):  # children follow their parents
        p = spans[i].parent
        if p >= 0:
            for acc in (fft_calls, fft_s, flops, nbytes, calc_calls, calc_s):
                acc[p] += acc[i]
    context: list[str | None] = []
    for s in spans:
        if s.name == "timeloop.step":
            context.append("step")
        elif s.name == "diagnostics.collect_record":
            context.append("record")
        else:
            context.append(context[s.parent] if s.parent >= 0 else None)

    def pick(name: str, ctx: str | None = "any") -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name and (ctx == "any" or context[i] == ctx)]

    def total(idx, acc=None) -> float:
        return sum(spans[i].duration if acc is None else acc[i] for i in idx)

    steps = pick("timeloop.step")
    n_steps = len(steps)
    first_step = spans[steps[0]].start if steps else float("inf")
    step_s = total(steps)
    step_set = set(steps)
    tend = [i for i, s in enumerate(spans) if s.layer == "models" and s.parent in step_set]
    n_tend = len(tend)
    model_spans = [i for i, s in enumerate(spans) if s.layer == "models" and context[i] == "step"]
    step_solves = pick("operators.invert_frakT", "step")
    step_iters = sum(spans[i].iterations for i in step_solves)
    all_solves = pick("operators.invert_frakT")
    records = pick("diagnostics.collect_record")
    late = lambda idx: [i for i in idx if spans[i].start > first_step]  # noqa: E731
    record_solves = pick("operators.invert_frakT", "record")
    record_iters = sum(spans[i].iterations for i in record_solves)
    mollify = pick("regularization.mollify", "step")
    nonlinear = [i for name in NONLINEAR for i in pick(name, "step")]
    runs = pick("timeloop.run")
    tol = result["rel_tolerance"]
    step_ms_mean = 1e3 * _ratio(step_s, n_steps)
    record_ms = 1e3 * _ratio(total(late(records)), len(late(records)))

    def mean_ms(name: str) -> float:
        idx = late(pick(name))
        return 1e3 * _ratio(total(idx), len(idx))

    def once_ms(name: str) -> float:
        return 1e3 * total(pick(name))

    return {
        "grid.fft_calls_per_step": _ratio(total(steps, fft_calls), n_steps),
        "grid.fft_calls_per_tendency": _ratio(total(tend, fft_calls), n_tend),
        "grid.fft_ms_per_step": 1e3 * _ratio(total(steps, fft_s), n_steps),
        "grid.fft_share": _ratio(total(steps, fft_s), step_s),
        "grid.fft_gflops": 1e-9 * _ratio(total(steps, flops), total(steps, fft_s)),
        "grid.fft_mb_per_step": 1e-6 * _ratio(total(steps, nbytes), n_steps),
        "grid.calculus_calls_per_step": _ratio(total(steps, calc_calls), n_steps),
        "grid.calculus_ms_per_step": 1e3 * _ratio(total(steps, calc_s), n_steps),
        "operators.solves_per_step": _ratio(len(step_solves), n_steps),
        "operators.pcg_iters_per_solve": _ratio(step_iters, len(step_solves)),
        "operators.pcg_ms_per_solve": 1e3 * _ratio(total(step_solves), len(step_solves)),
        "operators.pcg_ms_per_iter": 1e3 * _ratio(total(step_solves), step_iters),
        "operators.fft_calls_per_iter": _ratio(total(step_solves, fft_calls), step_iters),
        "operators.pcg_share": _ratio(total(step_solves), step_s),
        "operators.residual_max": max((spans[i].residual for i in all_solves), default=0.0) / tol,
        "operators.nonlinear_ms_per_tendency": 1e3 * _ratio(total(nonlinear), n_tend),
        "models.tendency_ms": 1e3 * _ratio(total(tend), n_tend),
        "models.tendency_self_ms": 1e3
        * _ratio(sum(spans[i].duration - spans[i].child_s for i in model_spans), n_tend),
        "models.tendency_fft_calls_self": _ratio(sum(spans[i].fft_calls for i in model_spans), n_tend),
        "regularization.mollify_ms_per_tendency": 1e3 * _ratio(total(mollify), n_tend),
        "regularization.fft_calls_per_tendency": _ratio(total(mollify, fft_calls), n_tend),
        "timeloop.step_self_ms": 1e3
        * _ratio(sum(spans[i].duration - spans[i].child_s for i in steps), n_steps),
        "timeloop.step_self_share": _ratio(
            sum(spans[i].duration - spans[i].child_s for i in steps), step_s
        ),
        "timeloop.fft_calls_self_per_step": _ratio(sum(spans[i].fft_calls for i in steps), n_steps),
        "diagnostics.record_ms": record_ms,
        "diagnostics.solves_per_record": _ratio(len(record_solves), len(records)),
        "diagnostics.pcg_iters_per_record_solve": _ratio(record_iters, len(record_solves)),
        "diagnostics.fft_calls_per_record": _ratio(total(records, fft_calls), len(records)),
        "diagnostics.energy_F_ms": mean_ms("diagnostics.energy_F"),
        "diagnostics.hamiltonian_ms": mean_ms("diagnostics.hamiltonian_gn"),
        "diagnostics.energy_E_ms": mean_ms("diagnostics.energy_E"),
        "diagnostics.record_cost_in_steps": _ratio(record_ms, step_ms_mean),
        "diagnostics.share": _ratio(total(records), total(runs)),
        "io.import_s": result["import_s"],
        "io.load_config_ms": once_ms("io.load_config"),
        "io.build_bathymetry_ms": once_ms("io.build_bathymetry"),
        "io.build_initial_ms": once_ms("io.build_initial_state"),
        "io.csv_ms_per_record": mean_ms("io.csv_record"),
        "io.snapshot_ms": mean_ms("io.snapshot"),
        "io.snapshot_bytes": result["checks"]["_snapshot_bytes"],
    }
