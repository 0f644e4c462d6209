"""Every library module, and every exported name, is reached from an entry point.

The scan parses ``src/repro`` with :mod:`ast` and walks imports from the
entry points: ``repro.cli``, ``repro.selfcheck``, the perfbench harness
(``perfbench/*.py`` minus its tests) and every ``examples/*.py``. A
``from pkg import name`` follows the package ``__init__`` re-exports to the
module that defines ``name``, so a module that only a package ``__init__``
imports is not reached. ``import pkg`` runs the whole ``__init__`` and so
reaches everything it re-exports. Imports inside functions count.

A module that no entry point reaches is code only its own tests run; it
should be deleted, or given a caller.

The same import resolution checks names: each name in the ``__all__`` of
the packages in ``NAME_CHECKED`` must be imported by some module of
``src/repro`` other than the one defining it (package ``__init__``
re-exports do not count), or by a perfbench or example script. Tests do
not count. The few exceptions are listed in ``UNIMPORTED_EXPORTS``, each
with the reason it stays exported.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _script_trees():
    scripts = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "examples").glob("*.py"))
    for path in scripts:
        if not path.name.startswith("test_"):
            yield "__main__", ast.parse(path.read_text(encoding="utf-8"))


def _entry_trees():
    for name in ("repro.cli", "repro.selfcheck"):
        yield name, _parse(name)
    yield from _script_trees()


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


NAME_CHECKED = ("repro.telemetry", "repro.reliability", "repro.autodiff")

#: ``package.name`` -> why an export that nothing imports stays exported.
UNIMPORTED_EXPORTS = {
    "repro.telemetry.Span":
        "Tracer.start_span returns it; tests build spans directly",
    "repro.telemetry.format_traceparent":
        "inject_trace_context calls it in its own module; tests build headers with it",
    "repro.telemetry.parse_traceparent":
        "extract_trace_context calls it in its own module; tests pin the W3C rules",
    "repro.telemetry.merge_trace_payloads":
        "TraceCollector.collect calls it in its own module; tests pin dedup and limit",
    "repro.telemetry.parse_collapsed":
        "merge_collapsed calls it in its own module; tests read flame output with it",
    "repro.telemetry.escape_label_value":
        "label_block calls it in its own module; tests pin the escaping rules",
    "repro.reliability.CLOSED":
        "CircuitBreaker state its own module compares against; tests assert it",
    "repro.reliability.HALF_OPEN":
        "CircuitBreaker state its own module compares against; tests assert it",
    "repro.autodiff.set_default_dtype":
        "dtype_policy wraps it in its own module; docs/API.md documents the global switch",
    "repro.autodiff.numerical_gradient":
        "gradcheck's finite-difference reference in its own module; tests compare to it",
    "repro.autodiff.ExecutionPlan":
        "the type trace() returns; tests check it",
}


def _exported(package: str) -> list[str]:
    for node in _parse(package).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@lru_cache(maxsize=None)
def imported_names() -> frozenset[tuple[str, str]]:
    """``(defining module, name)`` for every name imported outside its own module."""
    trees = [(module, _parse(module)) for module in MODULES if not _is_package(module)]
    found = set()
    for importer, tree in [*trees, *_script_trees()]:
        for module, name in _imports(tree, importer):
            if name is not None:
                home = _target(module, name)
                if home != importer:
                    found.add((home, name))
    return frozenset(found)


def unimported_exports() -> list[str]:
    imported = imported_names()
    return [
        f"{package}.{name}"
        for package in NAME_CHECKED
        for name in _exported(package)
        if (_target(package, name), name) not in imported
    ]


def test_every_exported_name_is_imported_outside_its_module():
    unlisted = [name for name in unimported_exports() if name not in UNIMPORTED_EXPORTS]
    assert not unlisted, f"exported names nothing imports: {unlisted}"


def test_unimported_exports_list_is_current():
    # An entry that gained an importer, or left __all__, must leave the list.
    stale = sorted(set(UNIMPORTED_EXPORTS) - set(unimported_exports()))
    assert not stale, f"stale UNIMPORTED_EXPORTS entries: {stale}"


#: Modules a serving process must not load: scipy and networkx are heavy,
#: and the rest were only ever loaded by accident (the stdlib HTTP server
#: and client, the weight draws of a bundle rebuild, ``np.unique``).
UNSERVED = (
    "scipy", "networkx", "numpy.random", "numpy.ma",
    "http.server", "http.client", "email", "ssl",
)


def _loaded_after(code: str) -> dict[str, bool]:
    """Run ``code`` in a fresh interpreter; which ``UNSERVED`` modules it loaded."""
    probe = code + f"\nimport sys; print([m in sys.modules for m in {UNSERVED!r}])"
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.strip().splitlines()[-1]
    return dict(zip(UNSERVED, ast.literal_eval(out)))


def test_serving_imports_leave_scipy_and_networkx_unloaded():
    # Every cold server and cluster worker pays for what these imports load.
    loaded = _loaded_after("import repro, repro.cli, repro.serve")
    assert [m for m in UNSERVED if loaded[m]] == []


#: Load a bundle, serve it with ``bind_http`` and answer one forecast over
#: a raw socket: the client side must not load what it checks for either.
SERVE_ONE_FORECAST = """
import json, socket, threading
from repro.serve import ServeApp, bind_http, load_bundle
app = ServeApp(load_bundle({path!r}))
server = bind_http(app, "127.0.0.1", 0)
app.pool.start()
threading.Thread(target=server.serve_forever, daemon=True).start()
bundle = app.bundle
values = [[50.0] * bundle.num_features] * bundle.num_nodes
requests = [
    json.dumps({{"step": step, "values": values}}).encode()
    for step in range(bundle.input_length)
]
with socket.create_connection(server.server_address[:2]) as sock:
    reader = sock.makefile("rb")
    def answer():
        status = reader.readline().split()[1]
        length = 0
        while (line := reader.readline()) != b"\\r\\n":
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        return status, json.loads(reader.read(length))
    for body in requests:
        sock.sendall(b"POST /observe HTTP/1.1\\r\\nContent-Length: %d\\r\\n\\r\\n" % len(body) + body)
        assert answer()[0] == b"200"
    sock.sendall(b"GET /forecast HTTP/1.1\\r\\n\\r\\n")
    status, forecast = answer()
    assert status == b"200" and forecast["horizon"] == bundle.output_length, forecast
server.shutdown()
app.pool.stop()
"""


def test_a_served_forecast_leaves_unserved_modules_unloaded(tiny_ctx, tmp_path):
    from repro.experiments import build_model
    from repro.serve import export_bundle

    path = str(tmp_path / "rihgcn")
    export_bundle(build_model("RIHGCN", tiny_ctx), "RIHGCN", tiny_ctx, path)
    loaded = _loaded_after(SERVE_ONE_FORECAST.format(path=path))
    assert [m for m in UNSERVED if loaded[m]] == []


def test_sparse_chebconv_and_simulators_load_them_on_demand():
    loaded = _loaded_after(
        "import numpy as np\n"
        "from repro.graphs import chebyshev_polynomials\n"
        "from repro.nn import ChebConv\n"
        "ChebConv(2, 3, chebyshev_polynomials(np.eye(4), 2), sparse=True)\n"
    )
    assert (loaded["scipy"], loaded["networkx"]) == (True, False)
    loaded = _loaded_after(
        "from repro.datasets import make_pems_dataset\n"
        "make_pems_dataset(num_nodes=4, num_days=1)\n"
    )
    assert loaded["networkx"] is True
