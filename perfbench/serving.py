"""The serving workloads: ``repro serve`` in a child process, driven over HTTP.

Set-up exports an untrained RIHGCN bundle from the small PEMS config
(the weights do not change the serving arithmetic), starts the server
and pipelines one simulated day into it (ring buffer filled, every plan
signature compiled). The run then drives an open-loop phase
(latencies), a closed-loop phase (throughput), scrapes ``/metrics`` and,
outside every timed window, recomputes each served forecast with the
eager model to check it. The traced ``stream-fresh`` run ends with a
traced training pass (``training.py``).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np

import loadgen
import spans as spanlib
import stats
import training

NODES, DAYS, MISSING_RATE, STRIDE = 10, 6, 0.4, 3
EMBED, HIDDEN, GRAPHS = 16, 32, 4
WINDOW = 12

#: stream-fresh: ticks (observe + forecast) per second, well under what two
#: connections carry while every forecast waits out the ~40 ms socket stall.
TICK_RATE = 12.0
#: stream-fresh starts this many steps before the first interval boundary
#: after midnight, so every run crosses the same interval boundaries.
LEAD = 20
#: poll-mixed: ops per second; each step is its sensors' POSTs then POLLS polls.
#: At 32 ops/s a connection's next request sometimes followed a response
#: within the client's delayed-ACK timeout, and whole runs flipped between
#: ~3 ms and ~45 ms responses; at 25 ops/s every run stayed in the fast mode.
POLL_RATE = 25.0
POLLS = 30
HORIZONS = (3, 6, 12)

#: Due times get a seeded offset in [0, JITTER) periods, so requests do not
#: all meet the kernel's timer ticks (and delayed-ACK expiries) in one phase.
JITTER = 0.5
#: an open-loop run whose generator's p99 lateness exceeds this is invalid.
LATE_BOUND_MS = 1000.0
#: a latency percentile this close (in points) to the hit/miss boundary is invalid.
BOUNDARY_POINTS = 3.0
#: float32 forward vs. the served answer.
RTOL, ATOL = 1e-4, 1e-3
#: the workload whose traced run also traces a training pass (``training.py``),
#: so the training layers are measured without a training workload.
TRAINING_TRACED_ON = "stream-fresh"


def phase_seconds(seconds: float) -> tuple[float, float]:
    """Split a run into its open-loop and closed-loop phases (5:1)."""
    return seconds * 5.0 / 6.0, seconds / 6.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def configs():
    """The small PEMS config every workload shares.

    The simulated network and its history are fixed (data seed 0), so
    the model build does the same work in every run; the workload seed
    picks what is drawn from them (days, start step, request timing,
    poll horizons, batch order).
    """
    from repro.experiments import DataConfig, ModelConfig

    data = DataConfig(dataset="pems", num_nodes=NODES, num_days=DAYS, stride=STRIDE,
                      seed=0, missing_rate=MISSING_RATE)
    model = ModelConfig(embed_dim=EMBED, hidden_dim=HIDDEN, num_graphs=GRAPHS, seed=0)
    return data, model


def export(path: str) -> dict:
    """Generate data, build the graphs and model, write the bundle."""
    from repro.experiments import build_model, prepare_context
    from repro.serve import export_bundle

    data_cfg, model_cfg = configs()
    began = time.perf_counter()
    ctx = prepare_context(data_cfg, model_cfg)
    built = time.perf_counter()
    model = build_model("RIHGCN", ctx)
    build_s = time.perf_counter() - built
    export_bundle(model, "RIHGCN", ctx, path)
    return {"ctx": ctx, "export_s": time.perf_counter() - began, "build_s": build_s}


class Server:
    """``repro serve`` (or its traced twin) in a child process."""

    def __init__(self, root: str, bundle: str, log_path: str, spans_path: str | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")])
        cli = ["serve", "--bundle", bundle, "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            argv = [sys.executable, os.path.join(root, "perfbench", "traced.py"),
                    spans_path, "--", *cli]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log,
                                     env=env, cwd=root)
        self.host, self.port = self._await_address(timeout=60.0)

    def _await_address(self, timeout: float):
        deadline = time.monotonic() + timeout
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
                    return host, int(port)
        self.stop()
        raise RuntimeError(f"server did not come up; output so far: {buffered!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# Workloads: seeded op sequences
# ----------------------------------------------------------------------
def _observation(ctx, step: int):
    data, mask = ctx.corrupted.data[step], ctx.corrupted.mask[step]
    return (np.where(mask > 0, data, 0.0).astype(np.float32).tolist(),
            mask.astype(np.float32).tolist())


def build_ops(workload: str, ctx, seed: int, seconds: float) -> dict:
    """Warm-up, open-loop (with due offsets) and closed-loop op lists."""
    rng = np.random.default_rng(seed)
    open_s, closed_s = phase_seconds(seconds)
    total = ctx.corrupted.num_steps
    steps_per_day = ctx.corrupted.steps_per_day
    if not np.array_equal(ctx.corrupted.steps_of_day, np.arange(total) % steps_per_day):
        raise ValueError("the stream maps dataset index to step; the dataset must start at midnight")
    # The closed loop stops early if it runs out of ops; these last
    # several times longer than today's server needs.
    if workload == "stream-fresh":
        n_open = int(round(TICK_RATE * open_s))
        n_closed = int(closed_s * 120)
        span = n_open + n_closed
    else:
        n_open = int(round(POLL_RATE * open_s))
        n_closed = int(closed_s * 450)
        span = (n_open + n_closed) // POLLS + 2
    # Anchor the step of day on the model's timeline partition, so each
    # run meets the same plan signatures; the seed picks the day.
    bounds = [int(b) for b in ctx.graphs().partition.boundaries] + [steps_per_day]
    if workload == "stream-fresh":
        first = bounds[1] - LEAD  # walk across the day's interval boundaries
    else:
        # Stay inside the longest interval: every miss replays one plan.
        _, opens = max((end - begin, begin) for begin, end in zip(bounds, bounds[1:]))
        first = opens + WINDOW
    days = (total - first - span - 2 * WINDOW) // steps_per_day
    start = int(rng.integers(1, days)) * steps_per_day + first
    # Set-up walks the simulated day before the run: it fills the ring
    # buffer and compiles every plan signature the day holds, once.
    warm = [("tick", step, *_observation(ctx, step))
            for step in range(start - steps_per_day, start)]
    if workload == "stream-fresh":
        ops = [("tick", start + i, *_observation(ctx, start + i)) for i in range(span)]
        dues = [(i + jitter) / TICK_RATE for i, jitter in
                enumerate(rng.uniform(0, JITTER, size=n_open))]
    else:
        ops = []
        step = start
        while len(ops) < n_open + n_closed:
            mask = ctx.corrupted.mask[step]
            # A sensor reports (all its lanes) when its average-speed entry survived MCAR.
            nodes = [int(n) for n in rng.permutation(NODES) if mask[n, 0] > 0]
            ops += [("sensor", step, n, ctx.corrupted.data[step, n].astype(np.float32).tolist())
                    for n in nodes]
            ops += [("poll", int(h)) for h in rng.choice(HORIZONS, size=POLLS)]
            step += 1
        dues = [(i + jitter) / POLL_RATE for i, jitter in
                enumerate(rng.uniform(0, JITTER, size=n_open))]
    return {"warm": warm, "open": ops[:n_open], "dues": dues, "closed": ops[n_open:],
            "closed_s": closed_s}


# ----------------------------------------------------------------------
# One phase: set up a server, drive it, scrape it, stop it
# ----------------------------------------------------------------------
def _scrape(server: Server) -> dict:
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/metrics?format=json")
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    return payload


def run_phase(root: str, bundle: str, ops: dict, workdir: str, traced: bool = False) -> dict:
    began = time.perf_counter()
    spans_path = os.path.join(workdir, "spans.json") if traced else None
    server = Server(root, bundle, os.path.join(workdir, "server.log"), spans_path)
    load = loadgen.LoadGenerator(server.host, server.port)
    try:
        load.pipeline(ops["warm"])
        set_up = time.perf_counter() - began
        after_warm = _scrape(server)
        load.open_loop(ops["open"], ops["dues"])
        after_open = _scrape(server)
        closed_elapsed = load.closed_loop(ops["closed"], ops["closed_s"])
        final = _scrape(server)
        peak_rss = server.peak_rss_mb()
    finally:
        load.close()
        server.stop()
    recorded = None
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    return {"log": load.log, "late": load.late, "after_warm": after_warm,
            "after_open": after_open,
            "final": final, "closed_elapsed": closed_elapsed, "set_up": set_up,
            "peak_rss_mb": peak_rss, "spans": recorded}


# ----------------------------------------------------------------------
# Correctness: recompute every served forecast from the observation log
# ----------------------------------------------------------------------
def _parse(log: list) -> list:
    for record in log:
        try:
            record["json"] = json.loads(record["body"]) if record["status"] == 200 else None
        except json.JSONDecodeError:
            record["json"] = None
    return log


def check_forecasts(bundle_path: str, log: list) -> dict:
    """Replay the observation log into a fresh store and re-forecast eagerly.

    With at most two connections, an observation's reported version is
    exact whenever a forecast could have run between it and the next,
    so the state a forecast saw is every observation reported at or
    below its version. Returns ``{rid: ok}`` for forecasts and the
    expected full-horizon predictions keyed by version.
    """
    from repro.autodiff import inference_mode
    from repro.serve import load_bundle
    from repro.telemetry import MetricRegistry

    bundle = load_bundle(bundle_path)
    store = bundle.make_store(registry=MetricRegistry())
    observes = sorted(
        (r for r in log if r["kind"] == "observe" and r["json"] is not None),
        key=lambda r: (r["json"]["version"], r["rid"]))
    forecasts = sorted(
        (r for r in log if r["kind"] == "forecast" and r["json"] is not None),
        key=lambda r: r["json"]["version"])
    windows: dict = {}
    cursor = 0
    for record in forecasts:
        version = record["json"]["version"]
        while cursor < len(observes) and observes[cursor]["json"]["version"] <= version:
            op = observes[cursor]["op"]
            if op[0] == "sensor":
                store.observe_sensor(op[1], op[2], np.asarray(op[3], dtype=np.float32))
            else:
                store.observe(op[1], np.asarray(op[2], dtype=np.float32),
                              np.asarray(op[3], dtype=np.float32))
            cursor += 1
        if version not in windows:
            windows[version] = store.window()
    versions = sorted(windows)
    expected: dict = {}
    for begin in range(0, len(versions), 16):
        chunk = [windows[v] for v in versions[begin:begin + 16]]
        x = np.stack([w.x for w in chunk])
        m = np.stack([w.m for w in chunk])
        steps = np.stack([w.steps_of_day for w in chunk])
        with inference_mode():
            scaled = bundle.model(bundle.scaler.transform(x, m), m, steps).prediction.data
        for version, prediction in zip(versions[begin:begin + 16],
                                       bundle.scaler.inverse_transform(scaled)):
            expected[version] = prediction
    verdict = {}
    for record in forecasts:
        body = record["json"]
        window = windows[body["version"]]
        served = np.asarray(body["prediction"], dtype=np.float64)
        reference = expected[body["version"]][: body["horizon"]]
        verdict[record["rid"]] = (
            window.version == body["version"]
            and window.newest_step == body["newest_step"]
            and served.shape == reference.shape
            and bool(np.allclose(served, reference, rtol=RTOL, atol=ATOL))
        )
    return verdict


def failure(record: dict, verdict: dict) -> str | None:
    """Why one request counts as failed, or ``None`` when it succeeded."""
    body = record["json"]
    if record["status"] != 200 or body is None:
        return f"{record['kind']} status {record['status']}"
    if record["degraded"] or body.get("degraded") is not None:
        return f"{record['kind']} degraded"
    if record["kind"] == "observe":
        return None if body.get("accepted") else "observe not accepted"
    return None if verdict.get(record["rid"], False) else "forecast mismatch"


def forecast_mae(log: list, truth: np.ndarray) -> float:
    """Mean absolute error of the distinct served forecasts against the simulator's truth.

    Each (version, horizon) counts once, and the set-up day's forecasts
    are included, so the figure covers every time of day whatever step
    the run starts at and however often a forecast was polled.
    """
    errors = []
    seen = set()
    for record in log:
        if record["kind"] != "forecast" or record["json"] is None:
            continue
        body = record["json"]
        if (body["version"], body["horizon"]) in seen:
            continue
        seen.add((body["version"], body["horizon"]))
        newest, horizon = body["newest_step"], body["horizon"]
        actual = truth[newest + 1: newest + 1 + horizon]
        errors.append(np.abs(np.asarray(body["prediction"]) - actual).ravel())
    return float(np.mean(np.concatenate(errors)))


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def _latencies(log: list, kind: str) -> list:
    """Open-loop latencies of one op type, in the order their requests fell due."""
    records = sorted((r for r in log if r["phase"] == "open" and r["kind"] == kind),
                     key=lambda r: r["due"])
    return [stats.due_latency_ms(r["due"], r["done"]) for r in records]


def _counters(scrape: dict) -> dict:
    return scrape.get("counters", {})


def count_layers(before: dict, after: dict) -> dict:
    """Count-type layer metrics over the open loop, from two ``/metrics?format=json`` scrapes.

    Plan compiles and fallbacks are counted from server start: the
    set-up day triggers them, once per signature.
    """
    start, end = _counters(before), _counters(after)

    def delta(name: str) -> float:
        return end.get(name, 0.0) - start.get(name, 0.0)

    requests, hits = delta("serve/requests"), delta("serve/cache_hits")
    modes = {mode: delta(f'serve/engine_exec_mode{{mode="{mode}"}}')
             for mode in ("planned", "traced", "eager")}
    forwards = sum(modes.values())
    batch_before = before.get("histograms", {}).get("serve/batch_size", {})
    batch_after = after.get("histograms", {}).get("serve/batch_size", {})
    batches = batch_after.get("count", 0) - batch_before.get("count", 0)
    return {
        "cache.hit_ratio": hits / requests if requests else 0.0,
        "engine.batch_size_mean": (
            (batch_after.get("sum", 0.0) - batch_before.get("sum", 0.0)) / batches
            if batches else 0.0),
        "engine.forwards_per_forecast": (
            delta("serve/forwards") / (requests - hits) if requests > hits else 0.0),
        "planner.compiles": end.get("serve/plan_cache_misses", 0.0),
        "planner.fallbacks": end.get("serve/plan_fallbacks", 0.0),
        "planner.planned_share": modes["planned"] / forwards if forwards else 0.0,
        "model.eager_calls": modes["eager"],
    }


#: span name -> per-request layer it is charged to (self time).
_LAYER_OF = {
    "http.handle": "http.self", "fleet": "fleet.self", "engine.forecast": "engine.queue",
    "engine.encode": "engine.encode", "state.observe": "state.observe",
    "state.window": "state.window", "engine.batch": "engine.dispatch",
    "planner.predict": "planner.overhead", "plan.replay": "plan.replay",
    "model.eager": "model.eager", "scaler": "scaler",
}


def request_layers(spans: list) -> dict:
    """Per request id: milliseconds of self time charged to each layer.

    Request-thread spans carry their request id; dispatcher spans are
    charged to every request riding in the enclosing batch.
    """
    timed = [s for s in spans if s["name"] in _LAYER_OF]
    batches = [s for s in timed if s["name"] == "engine.batch"]
    per_rid: dict = {}
    for span, self_s in stats.self_times(timed):
        if span.get("rid") is not None:
            rids = [span["rid"]]
        elif span["name"] == "engine.batch":
            rids = span["serves"]
        else:
            owner = next((b for b in batches if b["thread"] == span["thread"]
                          and b["start"] <= span["start"] and span["end"] <= b["end"]), None)
            rids = owner["serves"] if owner is not None else []
        for rid in rids:
            layers = per_rid.setdefault(rid, {})
            key = _LAYER_OF[span["name"]]
            layers[key] = layers.get(key, 0.0) + self_s * 1e3
    return per_rid


def trace_layers(log: list, recorded: dict, traced_p50: float) -> dict:
    """Median per-layer self times over the open-loop forecasts and observes."""
    spans = recorded["spans"]
    per_rid = request_layers(spans)
    handle = {s["rid"]: (s["end"] - s["start"]) * 1e3 for s in spans
              if s["name"] == "http.handle" and s.get("rid") is not None}
    rtt = {r["rid"]: (r["done"] - r["sent"]) * 1e3 for r in log}
    transport = stats.transport_ms(rtt, [s for s in spans if s["name"] == "http.handle"])
    out = {}

    def med(kind: str, key: str) -> float:
        values = [per_rid.get(r["rid"], {}).get(key, 0.0) for r in log
                  if r["phase"] == "open" and r["kind"] == kind and r["rid"] in handle]
        return stats.median(values) if values else 0.0

    def med_transport(kind: str) -> float:
        values = [transport[r["rid"]] for r in log
                  if r["phase"] == "open" and r["kind"] == kind and r["rid"] in transport]
        return stats.median(values) if values else 0.0

    out["http.transport_ms"] = med_transport("forecast")
    out["http.observe_transport_ms"] = med_transport("observe")
    out["http.handle_ms"] = med("observe", "http.self")
    out["http.handle_forecast_ms"] = med("forecast", "http.self")
    out["fleet.self_ms"] = stats.median(
        [per_rid.get(r["rid"], {}).get("fleet.self", 0.0) for r in log
         if r["phase"] == "open" and r["rid"] in handle] or [0.0])
    misses = [r for r in log if r["phase"] == "open" and r["kind"] == "forecast"
              and r["json"] is not None and not r["json"]["cached"] and r["rid"] in handle]
    out["engine.queue_ms"] = stats.median(
        [per_rid.get(r["rid"], {}).get("engine.queue", 0.0) for r in misses] or [0.0])
    for key, name in (("engine.dispatch", "engine.dispatch_ms"),
                      ("engine.encode", "engine.encode_ms"),
                      ("state.window", "state.window_ms"),
                      ("planner.overhead", "planner.overhead_ms"),
                      ("plan.replay", "plan.replay_ms"),
                      ("model.eager", "model.eager_ms"),
                      ("scaler", "scaler_ms")):
        out[name] = med("forecast", key)
    out["state.observe_ms"] = med("observe", "state.observe")
    # Does the sum of the forecast layers' medians reproduce the traced p50?
    total = out["http.transport_ms"] + sum(
        med("forecast", key) for key in set(_LAYER_OF.values()) if key != "state.observe")
    out["trace.accounted_share"] = total / traced_p50 if traced_p50 else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str) -> dict:
    bundle = os.path.join(workdir, "bundle")
    recorder = None
    if trace:
        import repro.experiments  # noqa: F401  (bind every module before patching)

        recorder = spanlib.SpanRecorder()
        spanlib.install(recorder, spanlib.BUILD_LAYERS)
    exported = export(bundle)
    ctx = exported["ctx"]
    ops = build_ops(workload, ctx, seed, seconds)
    phases = {"plain": run_phase(root, bundle, ops, workdir)}
    if trace:
        phases["traced"] = run_phase(root, bundle, ops, workdir, traced=True)

    report = {"attempted": 0, "failed": 0, "valid": True, "notes": []}
    truth = ctx.raw.data
    for name, phase in phases.items():
        log = _parse(phase["log"])
        verdict = check_forecasts(bundle, log)
        counted = [r for r in log if r["phase"] != "warm"]
        reasons: dict = {}
        for record in counted:
            reason = failure(record, verdict)
            if reason is not None:
                key = f"{name} {record['phase']}: {reason}"
                reasons[key] = reasons.get(key, 0) + 1
        report["attempted"] += len(counted)
        report["failed"] += sum(reasons.values())
        report["notes"] += [f"{count} x {key}" for key, count in sorted(reasons.items())]
        served = sum(1 for r in log if r["kind"] == "forecast" and r["status"] in (200, 503))
        engine_requests = _counters(phase["final"]).get("serve/requests", -1)
        if engine_requests != served:
            report["valid"] = False
            report["notes"].append(
                f"{name}: serve/requests {engine_requests:g} != {served} forecasts sent")
        phase["forecast"] = stats.summarize(_latencies(log, "forecast"))
        phase["observe"] = stats.summarize(_latencies(log, "observe"))
        phase["late_p99_ms"] = stats.percentile(phase["late"], 99.0) * 1e3
        if phase["late_p99_ms"] > LATE_BOUND_MS:
            report["valid"] = False
            report["notes"].append(
                f"{name}: generator ran {phase['late_p99_ms']:.1f} ms late at p99 "
                f"(bound {LATE_BOUND_MS:g} ms)")
        opened = [r for r in log if r["phase"] == "open" and r["kind"] == "forecast"
                  and r["json"] is not None]
        phase["miss_share"] = sum(not r["json"]["cached"] for r in opened) / max(len(opened), 1)
        if workload == "poll-mixed":
            for q in (50.0, phase["forecast"]["tail_q"]):
                if stats.boundary_distance(q, phase["miss_share"]) < BOUNDARY_POINTS:
                    report["valid"] = False
                    report["notes"].append(
                        f"{name}: forecast p{q:g} sits within {BOUNDARY_POINTS:g} points of "
                        f"the hit/miss boundary (miss share {phase['miss_share']:.3f})")
        closed = sum(1 for r in log if r["phase"] == "closed" and r["kind"] == "forecast")
        phase["throughput_rps"] = closed / phase["closed_elapsed"]
        phase["mae"] = forecast_mae(log, truth)

    plain = phases["plain"]
    report["summary"] = {
        "forecast": plain["forecast"], "observe": plain["observe"],
        "miss_share": plain["miss_share"], "late_p99_ms": plain["late_p99_ms"],
        "server_set_up_s": plain["set_up"],
    }
    success = 1.0 - report["failed"] / report["attempted"]
    report["metrics"] = {
        "setup_s": exported["export_s"] + plain["set_up"],
        "forecast_p50_ms": plain["forecast"]["p50"],
        "forecast_tail_ms": plain["forecast"]["tail"],
        "observe_p50_ms": plain["observe"]["p50"],
        "throughput_rps": plain["throughput_rps"],
        "success_ratio": success,
        "peak_rss_mb": plain["peak_rss_mb"],
        "forecast_mae": plain["mae"],
    }
    if trace:
        traced = phases["traced"]
        layers = count_layers(traced["after_warm"], traced["after_open"])
        layers.update(trace_layers(traced["log"], traced["spans"], traced["forecast"]["p50"]))
        build_spans = [s for s in recorder.spans if s["name"] == "partition.fit"]
        layers["partition.fit_s"] = sum(s["end"] - s["start"] for s in build_spans)
        layers["dtw.calls"] = float(recorder.counts.get("dtw", 0))
        layers["model.build_s"] = exported["build_s"]
        layers["loadgen.late_p99_ms"] = traced["late_p99_ms"]
        layers["trace.overhead_ratio"] = traced["forecast"]["p50"] / plain["forecast"]["p50"]
        if workload == TRAINING_TRACED_ON:
            trained = training.traced(root, seed, workdir)
            layers.update(trained["layers"])
            losses = trained["val_loss"]
            if not losses[-1] < losses[0]:
                report["valid"] = False
                report["notes"].append(f"training did not improve validation loss: {losses}")
        report["layers"] = layers
        report["summary"]["traced_forecast"] = traced["forecast"]
    return report
