"""In-memory span recorder that wraps a program's public functions.

The benchmark times layers from its own files: :func:`install` swaps
timing wrappers in for the functions named in ``SERVE_LAYERS`` /
``BUILD_LAYERS`` / ``TRAIN_LAYERS``; nothing in the program changes.
Each span is ``{name, start, end, thread, rid}``; ``rid`` is the
benchmark request id (``X-Bench-Id`` header) of the request the thread
was serving. Spans stay in memory and are written out by :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (module, qualified attribute, span name) for the serving path.
SERVE_LAYERS = (
    ("repro.serve.http", "ServeApp.handle", "http.handle"),
    ("repro.serve.fleet", "EnginePool.forecast", "fleet"),
    ("repro.serve.fleet", "EnginePool.observe", "fleet"),
    ("repro.serve.fleet", "EnginePool.observe_sensor", "fleet"),
    ("repro.serve.engine", "ForecastEngine.forecast", "engine.forecast"),
    ("repro.serve.engine", "Forecast.to_json_dict", "engine.encode"),
    ("repro.serve.state", "StateStore.observe", "state.observe"),
    ("repro.serve.state", "StateStore.observe_sensor", "state.observe"),
    ("repro.serve.state", "StateStore.window", "state.window"),
    ("repro.serve.planner", "PlanRuntime.predict", "planner.predict"),
    ("repro.autodiff.plan", "ExecutionPlan.replay", "plan.replay"),
    ("repro.models.recurrent_imputation", "RecurrentImputationForecaster.forward",
     "model.eager"),
    ("repro.datasets.scalers", "ZScoreScaler.transform", "scaler"),
    ("repro.datasets.scalers", "ZScoreScaler.inverse_transform", "scaler"),
)

#: Model build: the Eq. 2 timeline partition and its DTW calls.
BUILD_LAYERS = (
    ("repro.graphs.partition", "TimelinePartitioner.fit", "partition.fit"),
    ("repro.distances.dtw", "dtw_distance", "dtw"),
)

#: Training loop layers.
TRAIN_LAYERS = (
    ("repro.datasets.loader", "BatchLoader.__iter__", "train.loader"),
    ("repro.models.base", "NeuralForecaster.forward_batch", "train.forward"),
    ("repro.autodiff.tensor", "Tensor.backward", "train.backward"),
    ("repro.optim.optimizer", "clip_grad_norm", "train.clip"),
    ("repro.optim.adam", "Adam.step", "train.optim"),
    ("repro.training.trainer", "Trainer.evaluate_loss", "train.validate"),
)

#: Counted, not timed: a span per call would cost more than the call.
COUNT_ONLY = frozenset({"dtw"})


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        # id(StateWindow) -> request id, so dispatcher spans can name the
        # requests whose windows they forecast.
        self._window_rid: dict[int, int] = {}

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    def record(self, name, start, end, **extra) -> None:
        span = {"name": name, "start": start, "end": end,
                "thread": threading.get_ident(), "rid": self.rid, **extra}
        with self._lock:
            self.spans.append(span)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def timed(self, fn, name: str):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counted
        if name == "http.handle":
            return self._handle_wrapper(fn)
        if name == "train.loader":
            return self._iter_wrapper(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())
            if name == "state.window" and self.rid is not None:
                self._window_rid[id(result)] = self.rid
            return result
        return wrapper

    def _handle_wrapper(self, fn):
        """``ServeApp.handle``: adopt the request id from its headers."""

        @functools.wraps(fn)
        def handle(app, method, path, body, headers=None):
            rid = None
            for key, value in (headers or {}).items():
                if key.lower() == "x-bench-id":
                    rid = int(value)
            self._local.rid = rid
            start = time.perf_counter()
            try:
                return fn(app, method, path, body, headers)
            finally:
                self.record("http.handle", start, time.perf_counter())
                self._local.rid = None
        return handle

    def _iter_wrapper(self, fn, name):
        """Generator methods: time each ``next`` rather than the call."""
        recorder = self

        @functools.wraps(fn)
        def iterate(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.record(name, start, time.perf_counter())
                    return
                recorder.record(name, start, time.perf_counter())
                yield item
        return iterate

    def batch_wrapper(self, fn):
        """``ForecastEngine._answer``: the dispatcher's work for one batch.

        The span names the requests riding in the batch (``serves``) so
        their waiting time can be split from the work done for them.
        """

        @functools.wraps(fn)
        def answer(engine, batch):
            start = time.perf_counter()
            try:
                return fn(engine, batch)
            finally:
                serves = [self._window_rid.get(id(r.window)) for r in batch]
                self.record("engine.batch", start, time.perf_counter(),
                            serves=[r for r in serves if r is not None],
                            cross=True, cross_parent="engine.forecast")
        return answer

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": list(self.spans), "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _patch_everywhere(original, replacement) -> None:
    """Rebind a free function in every loaded module that imported it."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder, layers) -> None:
    """Swap timing wrappers in for each ``(module, attribute, name)``."""
    for module_name, qualname, name in layers:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, recorder.timed(vars(owner)[attr], name))
        else:
            original = getattr(module, attr)
            _patch_everywhere(original, recorder.timed(original, name))


def install_serving(recorder: SpanRecorder) -> None:
    install(recorder, SERVE_LAYERS)
    from repro.serve.engine import ForecastEngine

    ForecastEngine._answer = recorder.batch_wrapper(ForecastEngine._answer)
