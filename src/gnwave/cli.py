"""Command-line entry point tying the solver and verification modules into
user workflows.

Subcommands: ``run`` integrates a configured problem and persists artifacts;
``verify`` executes the identity/invariant suite and prints a pass/fail
table; ``converge`` and ``dispersion`` drive the respective studies;
``equivalence`` checks the two formulations against each other on random or
supplied states; ``info`` prints the normalized configuration and derived
run quantities.
``run``, ``info`` and ``converge`` read a configuration; the other
commands build their own cases.

Exit codes: 0 when all requested work succeeded and every check passed,
1 for validation problems (bad arguments, bad or missing configuration),
2 for runtime failures (elliptic solver breakdown, blow-up), 3 when checks
ran to completion but failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from . import verify
from .diagnostics import DEFAULT_ORDER, _check_order
from .errors import (
    BlowUpError,
    CoercivityViolationError,
    NonConvergenceError,
    ParseError,
    SnapshotFormatError,
    ValidationError,
)
from .grid import PeriodicGrid, ScalarField, VectorField
from .io import (
    FileSinks,
    RunConfig,
    build_bathymetry,
    build_initial_state,
    load_config,
    read_snapshot_with_params,
    save_config,
)
from .models import FluidState, ModelParams, VariableKind, u_from_v
from .operators import BathymetryState
from .timeloop import CollectingSinks, IntegrationConfig, cfl_time_step, run, step_schedule

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFICATION = 3

_DISPERSION_TOLERANCE = 1e-3


def _dispersion_passed(rows: Sequence[verify.DispersionRow]) -> bool:
    """Every mode fits and meets the analytic frequency to _DISPERSION_TOLERANCE."""
    return all(row.fit_ok and row.relative_error <= _DISPERSION_TOLERANCE for row in rows)


# ------------------------------------------------------------------- plumbing


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy's generators take no negative seed."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer ≥ 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnwave",
        description=(
            "Pseudospectral shallow-water wave solver and verification harness "
            "on periodic domains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser, config_help: str, output: bool = False) -> None:
        p.add_argument("--config", metavar="PATH", default=None, help=config_help)
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        if output:
            p.add_argument(
                "--output", metavar="DIR", default=None, help="override the output directory"
            )

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0, help="seed of the random fields")

    p_run = sub.add_parser("run", help="integrate a configured problem")
    add_config(p_run, "run configuration (required)", output=True)

    p_verify = sub.add_parser("verify", help="execute the built-in identity/invariant suite")
    add_seed(p_verify)

    p_conv = sub.add_parser(
        "converge", help="self-convergence studies of a built-in or configured problem"
    )
    add_config(p_conv, "optional configuration defining the problem")
    p_conv.add_argument(
        "--dt-values",
        type=float,
        nargs="+",
        default=None,
        metavar="DT",
        help="time steps for the dt study (default 0.08 0.04 0.02)",
    )
    p_conv.add_argument(
        "--resolutions",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="grid sizes for the resolution study (default 16 32 64)",
    )
    p_conv.add_argument("--csv", metavar="PATH", default=None, help="also write CSV")

    p_disp = sub.add_parser(
        "dispersion", help="measure linear wave frequencies on a built-in flat case"
    )
    p_disp.add_argument(
        "--modes", type=int, nargs="+", default=[1, 2, 4, 8], metavar="M"
    )
    p_disp.add_argument("--amplitude", type=float, default=1e-6)
    p_disp.add_argument("--periods", type=float, default=3.0)
    p_disp.add_argument("--csv", metavar="PATH", default=None, help="also write CSV")

    p_equiv = sub.add_parser(
        "equivalence",
        help="check the two formulations against each other on built-in or stored states",
    )
    add_seed(p_equiv)
    p_equiv.add_argument(
        "--state",
        metavar="SNAPSHOT",
        default=None,
        help="run the checks on a stored state instead of random fields",
    )

    p_info = sub.add_parser(
        "info", help="print the normalized configuration and the run it describes"
    )
    add_config(p_info, "configuration to describe (required)", output=True)
    return parser


def _read_config(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise ValidationError(
            f"the {args.command} command requires a configuration file (--config PATH)"
        )
    path = Path(args.config)
    if not path.is_file():
        raise ValidationError(f"config file {str(path)!r} does not exist")
    cfg = load_config(path.read_text(), overrides=tuple(args.overrides))
    if getattr(args, "output", None) is not None:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=args.output)
        )
    return cfg


# ----------------------------------------------------------------- random IC

# the (surface, velocity, parameters, bottom) that the agreement checks take
_Case = tuple[ScalarField, VectorField, ModelParams, BathymetryState]


def _random_case(dim: int, seed: int, n_fine: int) -> _Case:
    """Seeded band-limited (surface, velocity, bathymetry) verification case."""
    rng = np.random.default_rng(seed)
    grid = PeriodicGrid((n_fine,) * dim, (2.0 * np.pi,) * dim)
    zeta = verify.band_limited_scalar(grid, rng, 4, 0.4)
    u = verify.band_limited_vector(grid, rng, 4, 0.7)
    b = verify.band_limited_scalar(grid, rng, 3, 0.5)
    params = ModelParams(epsilon=0.3, beta=0.5, mu=0.8)
    bath = BathymetryState(ScalarField(grid, b), params.beta)
    return ScalarField(grid, zeta), VectorField(grid, u), params, bath


def _agreement_checks(case: _Case, grids: tuple[int, ...]) -> list[verify.ResidualReport]:
    """The identity and tendency agreement reports of the two formulations."""
    return [
        verify.check_equivalence_identity(*case, grids=grids),
        verify.check_rhs_equivalence(*case, grids=grids),
    ]


# --------------------------------------------------------------- subcommands


def _planned_run(cfg: RunConfig) -> tuple[BathymetryState, FluidState, float, int]:
    """Bottom, initial state, advisory step and step count of a configured run;
    refuses what ``run`` refuses at its start (depth ≤ 0, too many steps)."""
    bath = build_bathymetry(cfg)
    state = build_initial_state(cfg)
    advisory = cfl_time_step(state, cfg.params, bath)
    return bath, state, advisory, len(step_schedule(cfg.integration, state.time))


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    cfg = _read_config(args)
    _check_order(cfg.grid, DEFAULT_ORDER)  # refused before the sinks write anything
    # refused before any output, and before the sinks clear the directory
    bath, state, _, _ = _planned_run(cfg)
    print(
        f"formulation {cfg.params.formulation.value}, grid {cfg.grid.shape} on "
        f"{tuple(round(ell, 6) for ell in cfg.grid.lengths)}, dt {cfg.integration.dt}, "
        f"t_end {cfg.integration.t_end}",
        file=out,
    )
    with FileSinks(cfg.output.directory, cfg.params, cfg.output.formats) as sinks:
        report = run(state, cfg.params, bath, cfg.integration, cfg.elliptic, sinks=sinks)
    print(
        f"{report.steps} steps to t = {report.final_state.time:.6g} in "
        f"{report.wall_time:.3f} s, {report.total_elliptic_iterations} elliptic "
        f"iterations ({report.stage_iterations} in stages, {report.record_iterations} "
        f"in records), termination: {report.termination}",
        file=out,
    )
    print(f"artifacts in {cfg.output.directory}", file=out)
    return EXIT_OK


def _mass_conservation_check(params: ModelParams, out: TextIO) -> bool:
    """Short pulse run; the surface integral must hold to round-off."""
    grid = PeriodicGrid((32,), (2.0 * np.pi,))
    x = grid.coords[0]
    zeta = 0.05 * np.exp(-2.0 * (x - np.pi) ** 2)
    state = FluidState(
        ScalarField(grid, zeta), VectorField.zeros(grid), VariableKind.V_VARIABLE
    )
    bath = BathymetryState.flat(grid)
    sinks = CollectingSinks()
    run(
        state,
        params,
        bath,
        IntegrationConfig(dt=0.02, t_end=1.0, diag_stride=10),
        sinks=sinks,
        diag_order=1,
    )
    masses = [rec.mass for rec in sinks.records]
    drift = max(abs(m - masses[0]) for m in masses) / max(abs(masses[0]), 1e-300)
    ok = drift <= 1e-12
    print(
        f"mass_conservation: {'PASS' if ok else 'FAIL'} "
        f"(relative drift {drift:.3e} over 50 steps)",
        file=out,
    )
    return ok


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    print(f"seed = {args.seed}", file=out)
    case = _random_case(1, args.seed, 96)
    reports = _agreement_checks(case, (24, 48, 96))
    reports.append(verify.check_variational_structure(*case, grids=(24, 48, 96)))
    reports += _agreement_checks(_random_case(2, args.seed + 1, 64), (16, 32, 64))
    print(verify.reports_as_text(reports), end="", file=out)

    flat = dataclasses.replace(case[2], beta=0.0)
    rows = verify.dispersion_study(flat, PeriodicGrid((64,), (2.0 * np.pi,)), (1, 2, 4))
    print(verify.dispersion_as_text(rows), end="", file=out)
    dispersion_ok = _dispersion_passed(rows)

    mass_ok = _mass_conservation_check(flat, out)

    all_ok = all(rep.passed for rep in reports) and dispersion_ok and mass_ok
    print("verification " + ("PASSED" if all_ok else "FAILED"), file=out)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _default_convergence_problem() -> verify.ConvergenceProblem:
    """Smooth 1D pulse whose products stay resolved on the coarsest rung."""

    def initial_state(grid: PeriodicGrid) -> FluidState:
        x = grid.coords[0]
        z = 0.5 * np.exp(-2.0 * (x - np.pi) ** 2)
        z = z - z.mean()
        return FluidState(
            ScalarField(grid, z), VectorField.zeros(grid), VariableKind.V_VARIABLE
        )

    return verify.ConvergenceProblem(
        params=ModelParams(epsilon=0.1, mu=0.7),
        grid=PeriodicGrid((64,), (2.0 * np.pi,)),
        integration=IntegrationConfig(dt=0.01, t_end=1.0),
        initial_state=initial_state,
    )


def _problem_from_config(cfg: RunConfig) -> verify.ConvergenceProblem:
    if cfg.initial.kind == "file":
        raise ValidationError(
            "convergence studies rebuild the initial state per resolution; a "
            "snapshot-file initial condition cannot be rebuilt"
        )

    def initial_state(grid: PeriodicGrid) -> FluidState:
        return build_initial_state(dataclasses.replace(cfg, grid=grid))

    def bathymetry(grid: PeriodicGrid) -> BathymetryState:
        return build_bathymetry(dataclasses.replace(cfg, grid=grid))

    return verify.ConvergenceProblem(
        params=cfg.params,
        grid=cfg.grid,
        integration=cfg.integration,
        initial_state=initial_state,
        bathymetry=bathymetry,
    )


def _cmd_converge(args: argparse.Namespace, out: TextIO) -> int:
    if args.config is None:
        if args.overrides:
            raise ValidationError("--set requires --config")
        problem, solve = _default_convergence_problem(), None
    else:
        cfg = _read_config(args)
        problem, solve = _problem_from_config(cfg), cfg.elliptic
    dt_values = args.dt_values
    resolutions = args.resolutions
    if dt_values is None and resolutions is None:
        dt_values = (0.08, 0.04, 0.02)
        resolutions = (16, 32, 64)
    if resolutions is not None:
        verify.check_resolution_study(problem)
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if dt_values is not None:
            reports.append(verify.dt_convergence(problem, dt_values, solve))
        if resolutions is not None:
            reports.append(verify.resolution_convergence(problem, resolutions, solve))
    print(verify.reports_as_text(reports), end="", file=out)
    if args.csv is not None:
        Path(args.csv).write_text(verify.reports_as_csv(reports))
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFICATION


def _cmd_dispersion(args: argparse.Namespace, out: TextIO) -> int:
    params, grid = ModelParams(), PeriodicGrid((64,), (2.0 * np.pi,))
    rows = verify.dispersion_study(
        params, grid, args.modes, amplitude=args.amplitude, periods=args.periods
    )
    print(f"mu = {params.mu}", file=out)
    print(verify.dispersion_as_text(rows), end="", file=out)
    if args.csv is not None:
        Path(args.csv).write_text(verify.dispersion_as_csv(rows))
    ok = _dispersion_passed(rows)
    print("dispersion " + ("PASSED" if ok else "FAILED"), file=out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _supplied_case(path: str) -> tuple[_Case, tuple[int, ...]]:
    params, state = read_snapshot_with_params(path)
    if params.beta != 0.0:
        raise ValidationError(
            "equivalence checks on stored states support flat bottoms only "
            f"(snapshot has beta = {params.beta})"
        )
    bath = BathymetryState.flat(state.grid)
    if state.kind is VariableKind.V_VARIABLE:
        state = u_from_v(state, params, bath)
    n = state.grid.shape[0]  # the ladder refuses unequal axes
    # the coarsest rung n/4 must itself be an even grid size
    if n % 8 != 0 or n < 32:
        raise ValidationError(
            f"stored state needs at least 32 points per axis, a multiple of 8, got {n}"
        )
    return (state.zeta, state.vel, params, bath), (n // 4, n // 2, n)


def _cmd_equivalence(args: argparse.Namespace, out: TextIO) -> int:
    print(f"seed = {args.seed}", file=out)
    reports = []
    if args.state is not None:
        case, grids = _supplied_case(args.state)
        print(f"state from {args.state}", file=out)
        reports += _agreement_checks(case, grids)
    else:
        for dim, n_fine, grids in ((1, 128, (32, 64, 128)), (2, 64, (16, 32, 64))):
            case = _random_case(dim, args.seed + dim - 1, n_fine)
            reports += _agreement_checks(case, grids)
    print(verify.reports_as_text(reports), end="", file=out)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFICATION


def _cmd_info(args: argparse.Namespace, out: TextIO) -> int:
    cfg = _read_config(args)
    _check_order(cfg.grid, DEFAULT_ORDER)  # the grid that run refuses
    _, state, advisory, steps = _planned_run(cfg)  # refused before any output
    print("normalized configuration:", file=out)
    print(save_config(cfg), end="", file=out)
    grid = cfg.grid
    print(
        f"grid: {grid.dim}D, {grid.size} points, spacings "
        f"{tuple(round(s, 8) for s in grid.spacings)}, retained modes |m_i| <= {grid.band}",
        file=out,
    )
    print(
        f"initial state: {cfg.initial.kind}, starts at t = {state.time}, "
        f"max |fields| = {state.max_abs():.6g}",
        file=out,
    )
    print(
        f"time stepping: {steps} steps of dt = {cfg.integration.dt} "
        f"(advisory bound {advisory:.6g})",
        file=out,
    )
    if cfg.integration.dt > advisory:
        print("warning: dt exceeds the advisory stability bound", file=out)
    return EXIT_OK


_HANDLERS: dict[str, Callable[[argparse.Namespace, TextIO], int]] = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "dispersion": _cmd_dispersion,
    "equivalence": _cmd_equivalence,
    "info": _cmd_info,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits: --help is 0, usage errors map to 1
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    out = sys.stdout
    try:
        return _HANDLERS[args.command](args, out)
    except (ParseError, ValidationError, SnapshotFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CoercivityViolationError, NonConvergenceError, BlowUpError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
