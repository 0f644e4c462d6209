"""RIHGCN reproduction: Heterogeneous Spatio-Temporal Graph Convolution
Network for Traffic Forecasting with Missing Values (ICDCS 2021).

Top-level convenience re-exports; see the subpackages for the full API.
Every package's exports are lazy: ``from repro.serve import load_bundle``
imports ``repro.serve.artifact`` and what it needs, not the rest of
``repro.serve``, so a process loads only the modules whose names it uses.


* :mod:`repro.autodiff` -- numpy-backed reverse-mode autodiff engine
* :mod:`repro.nn` -- neural layers (Linear, LSTM, ChebConv, attention, TCN)
* :mod:`repro.optim` -- Adam, gradient clipping, early stopping
* :mod:`repro.graphs` -- Eq. 8 adjacency, Laplacians, timeline partition,
  heterogeneous graph sets
* :mod:`repro.distances` -- DTW / ERP / LCSS series distances
* :mod:`repro.datasets` -- synthetic PeMS-like and Stampede-like data,
  missingness injection, windowing
* :mod:`repro.models` -- RIHGCN, its ablations, and every baseline
* :mod:`repro.imputation` -- classical imputers (Last/KNN/MF/TD/...)
* :mod:`repro.training` -- trainer and metrics
* :mod:`repro.telemetry` -- metric registry, op profiler, trainer callbacks
* :mod:`repro.experiments` -- one entry point per paper table/figure
* :mod:`repro.serve` -- online inference: bundles, streaming state, HTTP
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType

#: package name -> exported name -> (module to import, attribute or None)
_SOURCES: dict[str, dict[str, tuple[str, str | None]]] = {}


class _LazyPackage(ModuleType):
    """A package whose exported names win over same-named submodules.

    Importing ``pkg.name`` binds the submodule as attribute ``name`` of
    ``pkg``. Where ``pkg`` exports a ``name`` that submodule defines
    (``repro.models.rihgcn``), the export is bound instead, as an eager
    ``from .name import name`` in the ``__init__`` would leave it.
    """

    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            if _SOURCES[self.__name__].get(name) == (f".{name}", name):
                value = getattr(value, name)
        super().__setattr__(name, value)


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package`` from its export table.

    ``table`` maps a relative module name, as in ``from <key> import``, to
    the names ``package`` exports from it; an entry ``"CONTENT_TYPE as
    PROMETHEUS_CONTENT_TYPE"`` exports under another name, and the key
    ``"."`` exports submodules themselves. A name's module is imported the
    first time the name is read (PEP 562), and the value is then bound on
    the package, so later reads are plain attribute lookups.
    """
    sources: dict[str, tuple[str, str | None]] = {}
    for module, entries in table.items():
        for entry in entries:
            attr, _, name = entry.partition(" as ")
            sources[name or attr] = (f".{attr}", None) if module == "." else (module, attr)
    _SOURCES[package] = sources
    sys.modules[package].__class__ = _LazyPackage

    def __getattr__(name: str):
        try:
            module, attr = sources[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *sources})

    return list(sources), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".autodiff": ("Tensor", "inference_mode", "no_grad"),
    ".datasets": ("TrafficDataset", "make_pems_dataset", "make_stampede_dataset"),
    ".graphs": ("HeterogeneousGraphSet", "build_heterogeneous_graphs"),
    ".models": ("RecurrentImputationForecaster", "rihgcn"),
    ".telemetry": ("Callback", "EpochLogger", "JSONLRunRecorder", "MetricRegistry", "Profiler"),
    ".training": ("EvalReport", "Trainer", "TrainerConfig"),
})
__all__ = [*__all__, "__version__"]
