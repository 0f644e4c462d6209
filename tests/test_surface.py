"""Every library module is reached from an entry point.

The scan parses ``src/repro`` with :mod:`ast` and walks imports from the
entry points: ``repro.cli``, ``repro.selfcheck``, the perfbench harness
(``perfbench/*.py`` minus its tests) and every ``examples/*.py``. A
``from pkg import name`` follows the package ``__init__`` re-exports to the
module that defines ``name``, so a module that only a package ``__init__``
imports is not reached. ``import pkg`` runs the whole ``__init__`` and so
reaches everything it re-exports. Imports inside functions count.

A module that no entry point reaches is code only its own tests run; it
should be deleted, or given a caller.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _modules() -> dict[str, Path]:
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()


@lru_cache(maxsize=None)
def _parse(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(encoding="utf-8"))


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


def _absolute(module: str | None, level: int, importer: str) -> str:
    if not level:
        return module or ""
    base = importer.split(".")
    if not _is_package(importer):
        base.pop()
    base = base[: len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _imports(tree: ast.AST, importer: str):
    """Yield ``(module, name)``; ``name`` is None for ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            package = _absolute(node.module, node.level, importer)
            for alias in node.names:
                yield package, alias.name


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """Map each name a package ``__init__`` imports to ``(module, name)``."""
    table = {}
    for node in _parse(package).body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, package)
            for alias in node.names:
                table[alias.asname or alias.name] = (source, alias.name)
    return table


def _target(module: str, name: str | None) -> str | None:
    """The module that ``from module import name`` (or ``import module``) reaches."""
    if name is not None and f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if name is not None and _is_package(module):
        source = _reexports(module).get(name)
        if source is not None:
            return _target(*source)
    return module if module in MODULES else None


def _entry_trees():
    for name in ("repro.cli", "repro.selfcheck"):
        yield name, _parse(name)
    scripts = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "examples").glob("*.py"))
    for path in scripts:
        if not path.name.startswith("test_"):
            yield "__main__", ast.parse(path.read_text(encoding="utf-8"))


def reached_modules() -> set[str]:
    seen: set[str] = set()
    todo: list[str] = []

    def visit(tree: ast.AST, importer: str) -> None:
        for module, name in _imports(tree, importer):
            target = _target(module, name)
            if target is not None and target not in seen:
                seen.add(target)
                todo.append(target)

    for importer, tree in _entry_trees():
        if importer in MODULES:
            seen.add(importer)
        visit(tree, importer)
    while todo:
        module = todo.pop()
        visit(_parse(module), module)
    return seen


def test_every_library_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(m for m in MODULES if not _is_package(m) and m not in reached)
    assert not unreached, f"modules no entry point imports: {unreached}"


def test_scan_follows_package_reexports():
    # ``from repro.nn import Linear`` reaches nn/linear.py, not the whole package.
    assert _target("repro.nn", "Linear") == "repro.nn.linear"
    assert _target("repro.autodiff", "Tensor") == "repro.autodiff.tensor"
    assert "repro.cli" in reached_modules()
