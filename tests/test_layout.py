"""Source layout checks: every module-level import of the package is read,
``__all__`` names every public function and class, every function parameter
is read, every defaulted parameter (dataclass fields included) is passed by
some call, imports flow one way, every transform goes through the grid,
importing the command line loads neither scipy nor the verification suite,
the benchmark's tracer and timing hooks find every name they wrap, and its
artifact check passes on a short run."""
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


def test_all_names_every_public_definition():
    """A module's ``__all__`` names every function and class it defines
    without a leading underscore."""
    missing = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        listed = [
            set(ast.literal_eval(node.value))
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ]
        if not listed:
            continue
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in listed[0]
            ):
                missing.append(f"{path.stem}.{node.name}")
    assert not missing, "public but not in __all__: " + ", ".join(missing)


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


def _called_name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _callers(tree: ast.Module) -> dict[str, list[ast.Call]]:
    """The calls of the module by the name they call: ``f(…)`` and ``x.f(…)``,
    and ``(f if c else g)(…)`` under both names."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            for callee in (func.body, func.orelse) if isinstance(func, ast.IfExp) else (func,):
                name = _called_name(callee)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes parameter ``name``, which sits at ``position``
    among the positional parameters after self (None: keyword-only)."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def _defaulted_parameters(tree: ast.Module):
    """(callee name, position after self or None, parameter, line) of every
    defaulted parameter; an ``__init__`` is called through its class name."""
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    names = {getattr(d, "id", None) for d in fn.decorator_list}
                    methods[fn] = (cls.name, "staticmethod" not in names)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner, bound = methods.get(fn, (None, False))
        callee = owner if fn.name == "__init__" else fn.name
        args = fn.args
        positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
        first = len(positional) - len(args.defaults)
        for position, arg in enumerate(positional[first:], start=first):
            yield callee, position, arg.arg, fn.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, None, arg.arg, fn.lineno


def _dataclass_fields(tree: ast.Module):
    """(class name, position, field, line) of every defaulted parameter of the
    ``__init__`` that ``@dataclass`` generates: the fields with a default and
    without ``init=False``, placed after those of the module's dataclasses
    the class derives from."""
    fields: dict[str, list[tuple[str, bool, int]]] = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            _called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in cls.decorator_list
        ):
            continue
        own = [f for base in cls.bases for f in fields.get(_called_name(base), [])]
        for node in cls.body:
            if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
                continue
            value = node.value
            keywords = {}
            if isinstance(value, ast.Call) and _called_name(value.func) == "field":
                keywords = {kw.arg: kw.value for kw in value.keywords}
                if getattr(keywords.get("init"), "value", True) is False:
                    continue
                value = keywords.get("default", keywords.get("default_factory"))
            own.append((node.target.id, value is not None, node.lineno))
        fields[cls.name] = own
        for position, (name, defaulted, line) in enumerate(own):
            if defaulted:
                yield cls.name, position, name, line


def _handed_calls(tree: ast.Module, calls: dict[str, list[ast.Call]]):
    """(class name, call) for each call that a function of the module makes
    of one of its parameters, under each class that a call of the function
    hands over as that parameter: io's ``build(section, cls, settings)``
    calls ``cls(**settings)``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or any(
            _called_name(d) == "classmethod" for d in fn.decorator_list
        ):
            continue
        params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
        for made in ast.walk(fn):
            if not (
                isinstance(made, ast.Call)
                and isinstance(made.func, ast.Name)
                and made.func.id in params
            ):
                continue
            param = made.func.id
            position = params.index(param)
            for call in calls.get(fn.name, ()):
                handed = [kw.value for kw in call.keywords if kw.arg == param]
                handed += call.args[position : position + 1]
                for node in handed:
                    if isinstance(node, ast.Name):
                        yield node.id, made


def test_every_defaulted_parameter_is_passed():
    """A defaulted ``src`` parameter that no call in ``src``, ``tests``,
    ``scripts`` or ``perfbench`` passes, by keyword, by position or through
    ``*args``/``**kwargs``, is a setting that nobody sets.  A dataclass field
    with a default is a parameter of the generated ``__init__``; besides a
    call of its class, ``dataclasses.replace(…, field=…)`` passes it by
    name, and so does the call of a parameter in ``src`` that the class is
    handed to."""
    root = SOURCE.parent.parent
    sources = sorted(SOURCE.glob("*.py"))
    paths = list(sources)
    for folder in ("tests", "scripts", "perfbench"):
        paths += sorted((root / folder).glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for name, found in _callers(ast.parse(path.read_text(), filename=str(path))).items():
            calls.setdefault(name, []).extend(found)
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    for tree in trees.values():
        for cls, made in _handed_calls(tree, calls):
            calls.setdefault(cls, []).append(made)
    never = []
    for path, tree in trees.items():
        for callee, position, name, line in _defaulted_parameters(tree):
            if not any(_passes(call, position, name) for call in calls.get(callee, ())):
                never.append(f"{path.name}:{line} {callee}({name})")
        for cls, position, name, line in _dataclass_fields(tree):
            replaced = any(
                kw.arg == name for call in calls.get("replace", ()) for kw in call.keywords
            )
            if not replaced and not any(
                _passes(call, position, name) for call in calls.get(cls, ())
            ):
                never.append(f"{path.name}:{line} {cls}({name})")
    assert not never, "defaulted parameters no call passes: " + ", ".join(never)


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


def test_cli_imports_no_verify():
    """``gnwave run`` does not load the verification suite: a fresh
    interpreter that imports the command line has not imported
    ``gnwave.verify``; the commands that use it import it themselves."""
    probe = "import sys, gnwave.cli; print('gnwave.verify' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=SOURCE.parent,
    )
    assert out.stdout.strip() == "False"


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


def test_benchmark_artifact_check_passes(tmp_path):
    """The benchmark checks a run's artifacts with ``perfbench/child.py``'s
    ``check_artifacts``: it re-reads the CSV (``read_diagnostics``,
    ``DIAGNOSTIC_COLUMNS``), round-trips the last snapshot through
    ``read_snapshot`` and ``write_snapshot`` and aligns the final soliton
    with ``verify.aligned_profile_gap``.  In a fresh interpreter, a short
    `gnwave run` of the benchmark's soliton, with records and snapshots
    between its first and last state, passes every check."""
    bench = SOURCE.parent.parent / "perfbench"
    if not (bench / "child.py").is_file():
        pytest.skip("perfbench/ is not beside this source tree")
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "from child import Boundaries, check_artifacts\n"
        "from workloads import NEVER, WORKLOADS\n"
        "from gnwave import cli\n"
        "from gnwave.io import load_config\n"
        "directory = Path(sys.argv[1])\n"
        "ini = WORKLOADS['soliton_1d'].ini(7, str(directory / 'out'), steps=6)\n"
        "ini = ini.replace(f'diag_stride = {NEVER}', 'diag_stride = 2')\n"
        "ini = ini.replace(f'snapshot_stride = {NEVER}', 'snapshot_stride = 4')\n"
        "config = directory / 'run.ini'\n"
        "config.write_text(ini)\n"
        "bounds = Boundaries()\n"
        "bounds.install()\n"
        "rc = cli.main(['run', '--config', str(config)])\n"
        "checks = check_artifacts(bounds, rc, load_config(ini), 1e-4)\n"
        "checks = {k: v for k, v in checks.items() if not k.startswith('_')}\n"
        "assert len(checks) == 6, checks\n"
        "assert all(v['ok'] for v in checks.values()), checks\n"
        "assert checks['csv_matches_records']['value'] == 4, checks\n"
        "assert len(list((directory / 'out').glob('snapshot_*.gnwv'))) == 3\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=bench,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert out.returncode == 0, out.stderr
