"""Micro-batched online forecast engine.

The engine owns the full request path from a :class:`StateStore`
snapshot to a forecast in original units:

1. **cache** — forecasts are pure in ``(state version, horizon)``; an
   LRU in front of the model answers repeats between observations. A
   hit is looked up by the store's version alone (no window snapshot)
   and returns the entry's own :class:`Forecast`, whose JSON body is
   encoded on its first use and kept with the entry;
2. **micro-batching** — the dispatcher is work-conserving: it runs
   the head request at once, fused with every request already queued
   behind it (up to ``max_batch_size``), so under concurrency batches
   form from the requests that arrived during the previous forward and
   a lone request never waits. The fused ``(B, L, N, D)`` forward
   amortises per-call dispatch over the vectorised numpy kernels;
   identical state versions inside a batch are deduplicated and share
   one forward row. A positive ``max_wait_s`` additionally holds each
   batch open that long for followers;
3. **no-grad inference** — every forward runs under
   :func:`repro.autodiff.inference_mode`, so no backward graph or
   closures are allocated on the hot path.

Telemetry lands in a :class:`repro.telemetry.MetricRegistry`
(``serve/requests``, ``serve/cache_hits``, ``serve/forwards``,
``serve/batch_size``, ``serve/latency_ms``), which the HTTP
``/metrics`` endpoint snapshots.

Tracing follows each request across the micro-batcher's thread
boundary: the request's span context is captured at enqueue time, a
``queue`` span measures the wait, and the dispatcher opens one
``batch_forward`` span *parented to the head request's trace* with
links to every request trace it serves — so a single trace tree shows
HTTP → engine → queue → batch_forward → model_forward, and the batch
span names its co-riders.

Resilience (see ``docs/RELIABILITY.md``): every request carries a
:class:`~repro.reliability.Deadline` checked at batch boundaries, the
model forward sits behind a retry policy and a circuit breaker, the
request queue is bounded (load shedding instead of unbounded latency),
and failures walk a fallback ladder — last successful forecast served
stale, then a window-mean forecast computed purely from live state —
with the answering rung tagged in ``Forecast.degraded``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ..autodiff import default_dtype, inference_mode
from ..datasets import ZScoreScaler
from ..errors import CircuitOpen, DeadlineExceeded, Overloaded, ServeError
from ..models.base import NeuralForecaster
from ..reliability import Deadline, ResiliencePolicy, window_mean_forecast
from ..telemetry import MetricRegistry, Tracer, get_registry, get_tracer, label_block
from .cache import LRUCache
from .planner import PlanRuntime
from .state import StateStore, StateWindow

__all__ = ["Forecast", "ForecastEngine"]


@dataclass(frozen=True)
class Forecast:
    """One answered forecast request."""

    prediction: np.ndarray  # (horizon, N, D_out), original units
    horizon: int
    version: int  # state version the forecast was computed at
    newest_step: int  # absolute step of the last observed slot
    cached: bool  # answered from the LRU without a model forward
    degraded: str | None = None  # fallback rung that answered, None = fresh

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "version": self.version,
            "newest_step": self.newest_step,
            "cached": self.cached,
            "degraded": self.degraded,
            "prediction": self.prediction.tolist(),
        }

    @cached_property
    def encoded(self) -> bytes:
        """``json.dumps(self.to_json_dict())`` as bytes, encoded once and kept.

        Only a cache entry lives long enough for this to pay: the HTTP
        layer sends a hit's ``encoded`` as is, so the entry encodes on
        its first hit and eviction frees the bytes with the entry.
        """
        return json.dumps(self.to_json_dict()).encode("utf-8")


class _Request:
    __slots__ = ("window", "horizon", "future", "submitted", "ctx", "queue_span",
                 "deadline")

    def __init__(self, window: StateWindow, horizon: int, submitted: float,
                 ctx=None, queue_span=None, deadline: Deadline | None = None):
        self.window = window
        self.horizon = horizon
        self.future: "Future[Forecast]" = Future()
        self.submitted = submitted
        self.ctx = ctx  # SpanContext of the requesting trace (or None)
        self.queue_span = queue_span  # open "queue" span, ended by the dispatcher
        self.deadline = deadline  # per-request budget, checked at batch boundaries


class ForecastEngine:
    """Serves forecasts for one sensor network from streaming state.

    Parameters
    ----------
    model:
        A trained :class:`NeuralForecaster` (switched to eval mode).
    scaler:
        The fitted :class:`ZScoreScaler` from training — raw store
        values are transformed on the way in, predictions inverse-
        transformed on the way out, reproducing the offline pipeline.
    store:
        The live :class:`StateStore` (shared with the observation feed).
    max_batch_size:
        Upper bound on requests fused into one forward pass; 1 disables
        micro-batching (the sequential dispatch baseline).
    max_wait_s:
        How long the dispatcher holds the first request of a batch open
        for followers (the classic size-or-deadline queue). The default
        0 never holds: a batch is the head request plus whatever is
        already queued.
    cache_size:
        LRU capacity over ``(version, horizon)`` keys; 0 disables.
    policy:
        The :class:`~repro.reliability.ResiliencePolicy` governing
        deadlines, retries, the forward circuit breaker, the fallback
        ladder and queue bounding. ``ResiliencePolicy.disabled()``
        reproduces the pre-resilience engine bit for bit.
    labels:
        Extra Prometheus labels stamped on every serve metric this
        engine emits (the fleet passes ``{"tenant": name}``). Empty
        keeps the original unlabelled series names, so a single-engine
        deployment's exposition is unchanged.
    name:
        Identity for the engine's circuit breaker (gauge label and
        snapshot ``name`` field); the pool derives one per tenant.
    plan:
        Enable traced execution plans (:mod:`repro.autodiff.plan`) on
        the forward path. Models that do not implement
        ``plan_inputs``, and any request shape the tracer cannot
        faithfully compile, fall back to the eager forward
        transparently — ``plan=False`` only exists to force the eager
        baseline (benchmarks, debugging).
    cache_token:
        Opaque identity of the served weights (the bundle fingerprint).
        Mixed into every LRU cache key so two engines serving different
        bundle versions — or one engine across a hot-swap — can never
        alias each other's cached forecasts.
    """

    def __init__(
        self,
        model: NeuralForecaster,
        scaler: ZScoreScaler,
        store: StateStore,
        max_batch_size: int = 8,
        max_wait_s: float = 0.0,
        cache_size: int = 256,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        policy: ResiliencePolicy | None = None,
        labels: dict[str, str] | None = None,
        name: str = "model",
        plan: bool = True,
        cache_token: str | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if store.input_length != model.input_length:
            raise ValueError(
                f"store window length {store.input_length} != "
                f"model input length {model.input_length}"
            )
        self.model = model
        self.scaler = scaler
        self.store = store
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.cache = LRUCache(cache_size) if cache_size > 0 else None
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.labels = dict(labels) if labels else {}
        self.name = name
        self.cache_token = cache_token
        self.planner = (
            PlanRuntime(
                self.model, self.registry, self.tracer, labels=self.labels
            )
            if plan
            else None
        )
        self.breaker = self.policy.make_breaker(name, registry=self.registry)
        self.retry = self.policy.make_retry()
        # queue.Queue(maxsize=0) is unbounded, matching max_queue_depth=0.
        self._queue: "queue.Queue[_Request | None]" = queue.Queue(
            maxsize=self.policy.max_queue_depth
        )
        self._worker: threading.Thread | None = None
        self._forward_lock = threading.Lock()
        # Last successful full-horizon prediction, for the stale rung of
        # the fallback ladder: (version, newest_step, prediction array).
        # Written only under _forward_lock-free dispatcher code; reads
        # are racy-but-atomic tuple loads.
        self._last_good: tuple[int, int, np.ndarray] | None = None

    def _m(self, base: str, **extra: str) -> str:
        """Registry name for ``base`` with this engine's labels applied."""
        if not self.labels and not extra:
            return base
        return base + label_block({**self.labels, **extra})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ForecastEngine":
        """Spawn the batching dispatcher; requests then queue for fusion."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._dispatch_loop, name="forecast-engine", daemon=True
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Drain and join the dispatcher (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(None)
            self._worker.join()
        self._worker = None

    def __enter__(self) -> "ForecastEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    # ------------------------------------------------------------------
    # Resilience surface
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for batch formation (approximate)."""
        return self._queue.qsize()

    @property
    def saturated(self) -> bool:
        """True when the bounded request queue is at capacity.

        The observation path consults this to reject-with-backoff while
        the forecast path is drowning, instead of piling more state
        churn onto a struggling server.
        """
        depth = self.policy.max_queue_depth
        return depth > 0 and self._queue.qsize() >= depth

    def reliability_snapshot(self) -> dict:
        """JSON-ready resilience state for ``/healthz`` and operators."""

        def count(name: str, **extra: str) -> int:
            return int(self.registry.counter(self._m(name, **extra)).value)

        return {
            "policy": {
                "deadline_s": self.policy.deadline_s,
                "retry_attempts": self.policy.retry_attempts,
                "breaker": self.policy.breaker,
                "fallback": self.policy.fallback,
                "max_queue_depth": self.policy.max_queue_depth,
            },
            "breaker": self.breaker.snapshot() if self.breaker is not None else None,
            "queue_depth": self.queue_depth,
            "degraded_total": count("serve/degraded"),
            "fallback": {
                "stale": count("serve/fallback", rung="stale"),
                "window_mean": count("serve/fallback", rung="window_mean"),
            },
            "shed_total": count("serve/shed"),
            "deadline_expired_total": count("serve/deadline_expired"),
            "unavailable_total": count("serve/unavailable"),
            "plan": self.planner.snapshot() if self.planner is not None else None,
        }

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def forecast(
        self,
        horizon: int | None = None,
        timeout: float | None = 30.0,
        deadline: Deadline | None = None,
    ) -> Forecast:
        """Answer one forecast request (thread-safe).

        With the dispatcher running the request is queued for micro-
        batching; otherwise it is computed inline. ``horizon`` defaults
        to the model's full output length. ``deadline`` bounds the whole
        request (default: the policy's ``deadline_s`` budget); a fresh
        forecast that fails or times out degrades down the fallback
        ladder when the policy allows, with the answering rung recorded
        in ``Forecast.degraded``.
        """
        horizon = self.model.output_length if horizon is None else int(horizon)
        if not 1 <= horizon <= self.model.output_length:
            raise ValueError(
                f"horizon {horizon} out of range 1..{self.model.output_length}"
            )
        start = time.perf_counter()
        self.registry.counter(self._m("serve/requests")).inc()
        if deadline is None:
            deadline = self.policy.make_deadline()
        with self.tracer.span(
            "engine.forecast", attributes={"horizon": horizon}
        ) as span:
            # A hit needs only the version: the window is snapshotted on
            # a miss, for the forward.
            version = self.store.version
            cached = self._cache_lookup(version, horizon)
            if cached is not None:
                span.set_attribute("version", version)
                span.set_attribute("cache_hit", True)
                self.registry.counter(self._m("serve/cache_hits")).inc()
                self._observe_latency(start)
                return cached
            window = self.store.window()
            span.set_attribute("version", window.version)
            span.set_attribute("cache_hit", False)
            try:
                result = self._fresh(window, horizon, start, span, timeout, deadline)
            except Overloaded:
                raise  # shed load immediately; serving a fallback would hide it
            except Exception as error:
                if not self.policy.fallback:
                    raise
                result = self._degrade(window, horizon, error, span)
        self._observe_latency(start)
        return result

    def _fresh(
        self,
        window: StateWindow,
        horizon: int,
        start: float,
        span,
        timeout: float | None,
        deadline: Deadline | None,
    ) -> Forecast:
        """The fresh-forecast path: enqueue (or compute inline) and wait."""
        if deadline is not None:
            deadline.check("forecast admission")
        if self.running:
            # The dispatcher thread closes the queue span when it picks
            # the request up, measuring time spent waiting for batch
            # formation.
            queue_span = self.tracer.start_span("queue", parent=span.context)
            request = _Request(window, horizon, start, ctx=span.context,
                               queue_span=queue_span, deadline=deadline)
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self.tracer.end_span(queue_span)
                self.registry.counter(self._m("serve/shed")).inc()
                raise Overloaded(
                    f"forecast queue full ({self.policy.max_queue_depth} pending)"
                ) from None
            wait = timeout if deadline is None else deadline.clamp(
                timeout if timeout is not None else deadline.remaining()
            )
            try:
                return request.future.result(timeout=wait)
            except _FutureTimeout:
                raise DeadlineExceeded(
                    f"forecast not answered within {wait:.3f}s"
                ) from None
        request = _Request(window, horizon, start, ctx=span.context,
                           deadline=deadline)
        return self._answer([request])[0]

    # ------------------------------------------------------------------
    # Fallback ladder
    # ------------------------------------------------------------------
    def _stale_lookup(self, horizon: int) -> Forecast | None:
        """The last successful forecast, re-served and tagged stale."""
        last = self._last_good
        if last is None:
            return None
        version, newest_step, full = last
        return Forecast(
            prediction=full[:horizon].copy(),
            horizon=horizon,
            version=version,
            newest_step=newest_step,
            cached=True,
            degraded="stale",
        )

    def _degrade(
        self, window: StateWindow, horizon: int, error: Exception, span
    ) -> Forecast:
        """Walk the fallback ladder after a fresh forecast failed.

        Rungs: the last successful forecast served stale, then a window-
        mean forecast computed from the live state snapshot. Degraded
        results never enter the LRU cache (a recovered model must not be
        shadowed by them). When every rung is dry the *original* failure
        propagates, so callers see why the model path broke.
        """
        forecast = self._stale_lookup(horizon)
        if forecast is None:
            try:
                prediction = window_mean_forecast(window, horizon)
            except ServeError:
                self.registry.counter(self._m("serve/unavailable")).inc()
                span.set_attribute("degraded", "unavailable")
                raise error from None
            forecast = Forecast(
                prediction=prediction,
                horizon=horizon,
                version=window.version,
                newest_step=window.newest_step,
                cached=False,
                degraded="window_mean",
            )
        self.registry.counter(self._m("serve/degraded")).inc()
        self.registry.counter(self._m("serve/fallback", rung=forecast.degraded)).inc()
        span.set_attribute("degraded", forecast.degraded)
        span.set_attribute("degraded_cause", type(error).__name__)
        return forecast

    def _observe_latency(self, start: float) -> None:
        # Pin the sampled trace id as a bucket exemplar so a slow
        # histogram bucket on /metrics links straight to its trace.
        context = Tracer.current_context()
        exemplar = (
            context.trace_id if context is not None and context.sampled else None
        )
        self.registry.histogram(self._m("serve/latency_ms")).observe(
            (time.perf_counter() - start) * 1e3, exemplar=exemplar
        )

    def _cache_key(self, version: int, horizon: int) -> tuple:
        """LRU key for one forecast.

        Besides ``(version, horizon)`` the key pins the served weights
        (``cache_token``) and the active dtype policy: a hot-swapped
        bundle or a policy flip must miss, never serve the other
        configuration's numbers.
        """
        return (self.cache_token, default_dtype(), version, horizon)

    def _cache_lookup(self, version: int, horizon: int) -> Forecast | None:
        """The cached answer (``cached=True``) for one key, or None."""
        if self.cache is None:
            return None
        return self.cache.get(self._cache_key(version, horizon))

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                return
            batch = [head]
            # Take what is already queued without blocking; only a
            # positive max_wait_s waits (timed) for followers.
            deadline = time.perf_counter() + self.max_wait_s
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    item = self._queue.get(
                        timeout=max(remaining, 0.0) if remaining > 0 else None,
                        block=remaining > 0,
                    )
                except queue.Empty:
                    break
                if item is None:
                    # Answer what we have, then shut down.
                    self._finish(batch)
                    return
                batch.append(item)
            self._finish(batch)

    def _finish(self, batch: list[_Request]) -> None:
        # Batch boundary: requests whose deadline expired while queueing
        # are failed here instead of riding (and slowing) the forward.
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired:
                if request.queue_span is not None:
                    self.tracer.end_span(request.queue_span)
                self.registry.counter(self._m("serve/deadline_expired")).inc()
                request.future.set_exception(
                    DeadlineExceeded(
                        f"request spent its {request.deadline.budget_s:.3f}s "
                        "budget waiting for batch formation"
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        try:
            results = self._answer(live)
        except Exception as error:  # propagate to every waiter
            for request in live:
                request.future.set_exception(error)
            return
        for request, result in zip(live, results):
            request.future.set_result(result)

    def _answer(self, batch: list[_Request]) -> list[Forecast]:
        """Run one fused forward for the batch and fan results out."""
        # Queue time ends the moment the batch starts processing.
        for request in batch:
            if request.queue_span is not None:
                self.tracer.end_span(request.queue_span)
        # The batch span adopts the head request's trace (so that trace
        # shows the full HTTP → queue → batch_forward → model path) and
        # links every request trace it serves, co-riders included.
        head_ctx = next((r.ctx for r in batch if r.ctx is not None), None)
        links = [r.ctx for r in batch if r.ctx is not None]
        with self.tracer.span(
            "batch_forward",
            parent=head_ctx,
            links=links,
            attributes={"batch_size": len(batch)},
        ) as bspan:
            # Deduplicate identical state versions: concurrent requests
            # between two observations share one forward row.
            unique: dict[int, int] = {}
            windows: list[StateWindow] = []
            for request in batch:
                if request.window.version not in unique:
                    unique[request.window.version] = len(windows)
                    windows.append(request.window)
            bspan.set_attribute("unique_versions", len(windows))
            predictions = self._guarded_predict(windows, batch)  # (U, T_out, N, D_out)

            self.registry.counter(self._m("serve/batches")).inc()
            self.registry.histogram(self._m("serve/batch_size")).observe(len(batch))

            # Remember the freshest successful full-horizon prediction —
            # it is the stale rung of the fallback ladder.
            newest = max(windows, key=lambda w: w.version)
            self._last_good = (
                newest.version,
                newest.newest_step,
                predictions[unique[newest.version]].copy(),
            )

            results = []
            for request in batch:
                full = predictions[unique[request.window.version]]
                forecast = Forecast(
                    prediction=full[: request.horizon].copy(),
                    horizon=request.horizon,
                    version=request.window.version,
                    newest_step=request.window.newest_step,
                    cached=False,
                )
                if self.cache is not None:
                    # The entry is the answer every later hit returns.
                    self.cache.put(
                        self._cache_key(request.window.version, request.horizon),
                        replace(forecast, cached=True),
                    )
                results.append(forecast)
        return results

    def _guarded_predict(
        self, windows: list[StateWindow], batch: list[_Request]
    ) -> np.ndarray:
        """The model forward behind the breaker and the retry policy.

        One breaker outcome per *batch* — the fused forward either
        serves everyone or no one, so batch members must not multiply
        into the failure window.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise CircuitOpen(
                f"model circuit is {breaker.state}; failing fast"
            )
        # Retries must not sleep past the tightest waiting deadline.
        deadlines = [r.deadline for r in batch if r.deadline is not None]
        tightest = (
            min(deadlines, key=lambda d: d.remaining()) if deadlines else None
        )
        try:
            if self.retry is not None:
                predictions = self.retry.call(
                    self._predict, windows, deadline=tightest
                )
            else:
                predictions = self._predict(windows)
            if not np.all(np.isfinite(predictions)):
                raise ServeError("model produced non-finite predictions")
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return predictions

    def _predict(self, windows: list[StateWindow]) -> np.ndarray:
        """No-grad batched forward over window snapshots, original units."""
        x = np.stack([w.x for w in windows])  # (U, L, N, D) raw units
        m = np.stack([w.m for w in windows])
        steps = np.stack([w.steps_of_day for w in windows])
        x_scaled = self.scaler.transform(x, m)
        self.registry.counter(self._m("serve/forwards")).inc()
        with self.tracer.span(
            "model_forward",
            attributes={"rows": len(windows), "model": type(self.model).__name__},
        ) as span:
            with self._forward_lock:
                scaled = None
                if self.planner is not None:
                    # Plan replay hands back an arena alias (copy=False);
                    # inverse_transform consumes it into a fresh array
                    # before the lock — and thus the next replay — can
                    # clobber it.
                    scaled = self.planner.predict(x_scaled, m, steps)
                if scaled is None:
                    span.set_attribute("exec_mode", "eager")
                    with inference_mode():
                        scaled = self.model(x_scaled, m, steps).prediction.data
                else:
                    span.set_attribute("exec_mode", "planned")
                result = self.scaler.inverse_transform(scaled)
        return result
