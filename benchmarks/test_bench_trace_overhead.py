"""Telemetry-overhead benchmark: the observability plane must stay cheap.

The serve path records spans on every request; at the deployment
default of 1% sampling, 99% of requests pay only ID allocation and two
clock reads. This bench drives the same closed-loop workload through
four phases against a telemetry-off baseline and asserts each stays
within the 5% p50/mean latency budget, emitted as
``BENCH_trace_overhead.json``:

* ``sampled`` — in-process tracing at the 1% deployment default;
* ``distributed`` — 1% tracing plus the per-request cross-process hop
  (router-side span + ``traceparent`` inject, shard-side extract +
  joined span), i.e. what one cluster fan-out leg adds;
* ``contprof`` — tracing off, the continuous profiler sampling at its
  10Hz default in the background (the always-on claim is < 2%; the
  gate keeps the shared 5% budget against run-to-run noise).

Repeats are interleaved and each mode is scored by its *best* run, so a
background scheduling hiccup in one repeat cannot fake an overhead (or
hide one) — the minima compare like-for-like steady states.
"""

import pytest

from bench_config import SCALE, emit_bench_record, model_config, pems_data_config

from repro.experiments import build_model, prepare_context
from repro.serve import ServeApp, export_bundle, load_bundle
from repro.serve.loadgen import run_load
from repro.telemetry import (
    ContinuousProfiler,
    MetricRegistry,
    Tracer,
    extract_trace_context,
    inject_trace_context,
)

pytestmark = pytest.mark.bench

MISSING_RATE = 0.4
SAMPLE_RATE = 0.01
MAX_OVERHEAD = 1.05  # < 5% latency overhead per telemetry phase
PROFILE_INTERVAL_S = 0.1  # the continuous profiler's 10Hz default
CLIENTS = {"fast": 4, "small": 8, "full": 8}[SCALE]
REQUESTS = {"fast": 10, "small": 25, "full": 60}[SCALE]
REPEATS = 3


class PropagatingEngine:
    """Adds the cross-process propagation work one cluster hop pays.

    Per forecast: a caller-side span whose context is injected into a
    ``traceparent`` header (the router's fan-out leg), then the header
    is parsed back and a joined span wraps the actual forecast (the
    shard's extract). The engine underneath is untouched, so the delta
    vs plain 1% sampling is exactly the propagation tax.
    """

    def __init__(self, engine, tracer):
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def __enter__(self):
        self._engine.__enter__()
        return self

    def __exit__(self, *exc):
        return self._engine.__exit__(*exc)

    def forecast(self, horizon=None, timeout=None):
        with self._tracer.span("shard_call") as hop:
            headers = inject_trace_context({}, context=hop.context)
            parent = extract_trace_context(headers)
            with self._tracer.span("shard", parent=parent):
                return self._engine.forecast(horizon=horizon, timeout=timeout)


def _make_engine(bundle, tracer):
    return bundle.make_engine(
        store=bundle.make_store(),
        max_batch_size=8,
        max_wait_s=0.004,
        registry=MetricRegistry(),
        tracer=tracer,
    )


def _run(bundle, engine, seed):
    app = ServeApp(
        bundle, engine=engine, registry=engine.registry, tracer=engine.tracer
    )
    with engine:
        report = run_load(
            app.handle,
            num_nodes=bundle.num_nodes,
            num_features=bundle.num_features,
            start_step=engine.store.newest_step + 1,
            num_clients=CLIENTS,
            requests_per_client=REQUESTS,
            seed=seed,
        )
    assert report.ok == report.requests
    return report


def test_trace_overhead(tmp_path):
    ctx = prepare_context(pems_data_config(missing_rate=MISSING_RATE), model_config())
    model = build_model("RIHGCN", ctx)
    base = str(tmp_path / "rihgcn")
    export_bundle(model, "RIHGCN", ctx, base)
    bundle = load_bundle(base)

    def off_engine(repeat):
        return _make_engine(bundle, Tracer(sample_rate=0.0))

    def sampled_engine(repeat):
        return _make_engine(bundle, Tracer(sample_rate=SAMPLE_RATE, seed=repeat))

    def distributed_engine(repeat):
        tracer = Tracer(sample_rate=SAMPLE_RATE, seed=repeat)
        return PropagatingEngine(_make_engine(bundle, tracer), tracer)

    phases = {
        "off": off_engine,
        "sampled": sampled_engine,
        "distributed": distributed_engine,
        "contprof": off_engine,  # the profiler rides alongside, below
    }

    _run(bundle, off_engine(99), seed=99)  # warm caches/JIT paths

    means = {name: [] for name in phases}
    p50s = {name: [] for name in phases}
    for repeat in range(REPEATS):
        for name, make in phases.items():
            profiler = None
            if name == "contprof":
                profiler = ContinuousProfiler(
                    interval_s=PROFILE_INTERVAL_S, registry=MetricRegistry()
                ).start()
            try:
                report = _run(bundle, make(repeat), seed=repeat)
            finally:
                if profiler is not None:
                    profiler.stop()
            means[name].append(report.latency_ms_mean)
            p50s[name].append(report.latency_ms_p50)

    best_mean = {name: min(values) for name, values in means.items()}
    best_p50 = {name: min(values) for name, values in p50s.items()}
    ratios = {}

    print()
    print(f"telemetry off:  {best_mean['off']:.2f}ms mean / "
          f"{best_p50['off']:.2f}ms p50 (best of {REPEATS})")
    for name in ("sampled", "distributed", "contprof"):
        mean_ratio = best_mean[name] / best_mean["off"]
        p50_ratio = best_p50[name] / best_p50["off"]
        ratios[name] = {"mean": mean_ratio, "p50": p50_ratio}
        print(f"{name:<12} {best_mean[name]:.2f}ms mean ({mean_ratio - 1.0:+.1%}) / "
              f"{best_p50[name]:.2f}ms p50 ({p50_ratio - 1.0:+.1%})")
        # the gate is p50 (the distribution's body, robust to a stray
        # slow request inflating the mean on shared runners); the mean
        # ratios are recorded alongside for trend tracking
        assert p50_ratio < MAX_OVERHEAD, (
            f"{name} telemetry costs {p50_ratio - 1.0:+.1%} p50 forecast "
            f"latency (budget {MAX_OVERHEAD - 1.0:.0%}): "
            f"{best_p50[name]:.2f}ms vs {best_p50['off']:.2f}ms"
        )

    emit_bench_record("trace_overhead", {
        "model": "RIHGCN",
        "dataset": "pems",
        "missing_rate": MISSING_RATE,
        "num_clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "repeats": REPEATS,
        "sample_rate": SAMPLE_RATE,
        "profile_interval_s": PROFILE_INTERVAL_S,
        # legacy field names (pre-phase records) kept for comparability
        "latency_ms_mean_traced_off": best_mean["off"],
        "latency_ms_mean_sampled": best_mean["sampled"],
        "latency_ms_mean_traced_off_runs": means["off"],
        "latency_ms_mean_sampled_runs": means["sampled"],
        "overhead_ratio": ratios["sampled"]["mean"],
        "max_overhead_ratio": MAX_OVERHEAD,
        "phases": {
            name: {
                "latency_ms_mean": best_mean[name],
                "latency_ms_p50": best_p50[name],
                "latency_ms_mean_runs": means[name],
                "latency_ms_p50_runs": p50s[name],
                "overhead_ratio_mean": ratios.get(name, {}).get("mean"),
                "overhead_ratio_p50": ratios.get(name, {}).get("p50"),
            }
            for name in phases
        },
    })
