"""The package holds only what the tool runs.

Every public top-level definition in src/spectral_chroma must be reached
from a root. The roots are the names cli.py references anywhere, the
names each module's module-level code references (every top-level
statement but a def or class, so a constant's value counts), and the
(module, function) pairs of the LAYERS that perfbench/spans.py wraps.
A reached definition reaches every name its own code references,
decorators and annotations included. A name resolves to its module's
own definition or through a `from .module import name` line. Code that
only tests reach belongs in the test tree (paper_lemmas.py, conftest.py).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_chroma"

Key = tuple[str, str]  # (module, name)


def _layers() -> list[Key]:
    """The LAYERS tuple of perfbench/spans.py, read from its source."""

    for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Module:
    """One module's top-level definitions, relative imports and module-level code."""

    def __init__(self, path: Path) -> None:
        self.name = path.stem
        self.defs: dict[str, list[ast.AST]] = {}
        self.imports: dict[str, Key] = {}
        self.code: list[ast.AST] = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    for alias in node.names:
                        self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*map(_names, targets)):
                    self.defs.setdefault(name, []).append(node)
                if node.value is not None:
                    self.code.append(node.value)
            elif not isinstance(node, ast.Import):
                self.code.append(node)

    def refs(self, node: ast.AST) -> list[Key]:
        """The definitions the names in node resolve to."""

        out = []
        for name in _names(node):
            if name in self.defs:
                out.append((self.name, name))
            elif name in self.imports:
                out.append(self.imports[name])
        return out


def unreached_definitions() -> list[str]:
    """module.name of every public top-level definition that no root reaches."""

    modules = {m.name: m for m in map(_Module, sorted(PACKAGE.glob("*.py")))}
    cli = modules["cli"]
    todo = _layers()
    for module in modules.values():
        for node in module.code:
            todo += module.refs(node)
    for defs in cli.defs.values():
        for node in defs:
            todo += cli.refs(node)
    reached: set[Key] = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            module = modules[key[0]]
            for node in module.defs.get(key[1], ()):
                todo += module.refs(node)
    return sorted(
        f"{module.name}.{name}"
        for module in modules.values()
        for name in module.defs
        if not name.startswith("_") and (module.name, name) not in reached
    )


def test_layers_name_package_definitions():
    for module_name, func_name in _layers():
        assert func_name in _Module(PACKAGE / f"{module_name}.py").defs, (module_name, func_name)


def test_every_public_definition_is_reached_from_the_cli():
    unreached = unreached_definitions()
    print("\n".join(unreached))
    assert not unreached, f"{len(unreached)} definitions only tests reach: {', '.join(unreached)}"


def _eigensolver_calls(tree: ast.AST) -> list[str]:
    """Each np.linalg.eig* (or numpy.linalg.eig*) reference and eig* import from numpy.linalg."""

    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("eig")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [
                f"line {node.lineno}: from numpy.linalg import {alias.name}"
                for alias in node.names
                if alias.name.startswith("eig")
            ]
    return found


def test_eigensolves_only_in_linalg():
    # linalg validates every eigensolve and maps solver failures to
    # NumericError; a solve elsewhere would skip both
    assert _eigensolver_calls(ast.parse((PACKAGE / "linalg.py").read_text()))
    offenders = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        and (calls := _eigensolver_calls(ast.parse(path.read_text())))
    }
    assert not offenders, offenders
