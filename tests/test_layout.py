"""Source layout checks: every module-level import of the package is read,
every function parameter is read, imports flow one way, every transform goes
through the grid, importing the command line loads no scipy, and the
benchmark's tracer and timing hooks find every name they wrap."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gnwave

SOURCE = Path(gnwave.__file__).parent

# read by name from outside the module: the benchmark's layer trace wraps them
ALLOWED = {("models", "apply_R"), ("models", "apply_Rb")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in quoted annotations and in ``__all__``."""
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    read = set()
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_unused_module_imports():
    """A module-level import that nothing in its module reads is a leftover."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in read and (path.stem, name) not in ALLOWED:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_parameter_is_read():
    """A function parameter that its body never reads is accepted and then
    ignored; ``self``, ``cls`` and ``*args``/``**kwargs`` are exempt."""
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            read = {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg not in ("self", "cls") and arg.arg not in read:
                    name = getattr(fn, "name", "<lambda>")
                    unread.append(f"{path.name}:{fn.lineno} {name}({arg.arg})")
    assert not unread, "parameters never read: " + ", ".join(unread)


# errors → grid → operators → models → {regularization, diagnostics, solitary}
# → timeloop → {io, verify} → cli; modules in one layer do not import each other
LAYERS = (
    ("errors",),
    ("grid",),
    ("operators",),
    ("models",),
    ("regularization", "diagnostics", "solitary"),
    ("timeloop",),
    ("io", "verify"),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _package_imports(tree: ast.Module):
    """Package modules imported anywhere in the module, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    yield alias.name, node.lineno
            else:
                yield node.module.split(".")[0], node.lineno


def test_imports_flow_one_way():
    """Each module imports only from earlier layers of the package."""
    back = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        assert path.stem in RANK, f"{path.name} belongs to no layer"
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, line in _package_imports(tree):
            if RANK[module] >= RANK[path.stem]:
                back.append(f"{path.name}:{line} imports {module}")
    assert not back, "imports against the layer order: " + ", ".join(back)


TRANSFORM = re.compile(r"\b(np|numpy|scipy)\.fft\b|\b_pocketfft_umath\b")


def test_transforms_go_through_the_grid():
    """grid.py is the one transform layer: no other module calls np.fft,
    numpy.fft or scipy.fft, or reaches numpy's pocketfft gufuncs through
    ``_pocketfft_umath``."""
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "grid":
            continue
        for line_no, line in enumerate(path.read_text().splitlines(), start=1):
            if TRANSFORM.search(line):
                calls.append(f"{path.name}:{line_no}")
    assert not calls, "transforms outside grid.py: " + ", ".join(calls)


def test_cli_imports_no_scipy():
    """numpy is the one runtime dependency: a fresh interpreter that imports
    the command line has loaded no scipy module."""
    probe = (
        "import sys, gnwave.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=SOURCE.parent,
    )
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_installs():
    """The layer tracer of ``perfbench/`` wraps gnwave functions by name; in a
    fresh interpreter it installs against this source without a missing name."""
    bench = SOURCE.parent.parent / "perfbench"
    if not (bench / "tracer.py").is_file():
        pytest.skip("perfbench/ is not beside this source tree")
    probe = "from tracer import Tracer; Tracer().install()"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=bench,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert out.returncode == 0, out.stderr


def test_benchmark_timing_hooks_install():
    """The benchmark's timing hooks (``perfbench/child.py``'s ``Boundaries``)
    replace ``_Stepper.advance``, ``timeloop.collect_record`` and ``cli.run``;
    in a fresh interpreter they install against this source and time every
    step and record of a short run."""
    bench = SOURCE.parent.parent / "perfbench"
    if not (bench / "child.py").is_file():
        pytest.skip("perfbench/ is not beside this source tree")
    probe = (
        "import numpy as np\n"
        "from child import Boundaries\n"
        "from gnwave import cli\n"
        "from gnwave.grid import PeriodicGrid\n"
        "from gnwave.models import FluidState, ModelParams, VariableKind\n"
        "from gnwave.operators import BathymetryState\n"
        "from gnwave.timeloop import CollectingSinks, IntegrationConfig\n"
        "hooks = Boundaries()\n"
        "hooks.install()\n"
        "grid = PeriodicGrid((16,), (2.0 * np.pi,))\n"
        "cli.run(FluidState.rest(grid, VariableKind.U_VARIABLE),\n"
        "        ModelParams(formulation='gn_u'), BathymetryState.flat(grid),\n"
        "        IntegrationConfig(dt=0.1, t_end=0.3), None, CollectingSinks())\n"
        "assert len(hooks.steps) == 3, hooks.steps\n"
        "assert len(hooks.record_starts) == 4, hooks.record_starts\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=bench,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert out.returncode == 0, out.stderr
