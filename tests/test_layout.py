"""Source layout checks: every module-level import of the package is read."""
from __future__ import annotations

import ast
from pathlib import Path

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
