"""Command-line interface for the reproduction experiments.

Usage::

    python -m repro.cli table1-missing --rates 0.4 0.8 --epochs 10
    python -m repro.cli table1-horizon --missing-rate 0.8
    python -m repro.cli table2
    python -m repro.cli imputation --rates 0.4
    python -m repro.cli fig4 --graphs 2 4 8
    python -m repro.cli fig5 --lambdas 0.001 1 20
    python -m repro.cli --scale full table1-missing   # paper-closer scale
    python -m repro.cli export --model RIHGCN --output artifacts/rihgcn
    python -m repro.cli plan --bundle artifacts/rihgcn --verify
    python -m repro.cli quantize --bundle artifacts/rihgcn --mode int8 --gate 1
    python -m repro.cli serve --bundle artifacts/rihgcn --port 8787 --trace-sample 0.1
    python -m repro.cli chaos --bundle artifacts/rihgcn --error-rate 0.05
    python -m repro.cli traces http://127.0.0.1:8787 --limit 5 --critical-path
    python -m repro.cli slo http://127.0.0.1:8787
    python -m repro.cli cluster --bundle artifacts/gcnlstm --shards 2
    python -m repro.cli --scale fast smoke cluster --report smoke.json

Every subcommand prints the corresponding paper table/figure rows. The
``--scale`` flag trades fidelity for speed (fast/small/full); individual
knobs (nodes, days, epochs, models) can override it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    ALL_MODEL_NAMES,
    REPORT_SPECS,
    DataConfig,
    ModelConfig,
    default_trainer_config,
    fig4,
    fig5,
    gauntlet,
    rq2,
    run_grid,
    table1_horizon,
    table1_missing,
    table2,
)

#: the keys of :data:`repro.smoke.SMOKES`, kept here so the parser stays import-light
SMOKE_NAMES = ("serve", "chaos", "fleet", "slo", "cluster", "gauntlet")

_SCALES = {
    "fast": dict(num_nodes=6, num_days=4, stride=6, embed=8, hidden=16,
                 graphs=3, epochs=4),
    "small": dict(num_nodes=10, num_days=6, stride=3, embed=16, hidden=32,
                  graphs=4, epochs=10),
    "full": dict(num_nodes=16, num_days=10, stride=1, embed=32, hidden=64,
                 graphs=4, epochs=30),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RIHGCN reproduction experiments"
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="small",
                        help="preset size/epoch budget")
    parser.add_argument("--nodes", type=int, help="override sensor count")
    parser.add_argument("--days", type=int, help="override day count")
    parser.add_argument("--epochs", type=int, help="override training epochs")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_models_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--models", nargs="+", metavar="NAME", default=None,
            help=f"model subset (default: all of {ALL_MODEL_NAMES})",
        )

    p = sub.add_parser("table1-missing", help="Table I upper: error vs missing rate")
    p.add_argument("--rates", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8])
    add_models_flag(p)

    p = sub.add_parser("table1-horizon", help="Table I lower: error vs horizon")
    p.add_argument("--missing-rate", type=float, default=0.8)
    add_models_flag(p)

    p = sub.add_parser("table2", help="Table II: Stampede roving sensors")
    add_models_flag(p)

    p = sub.add_parser("imputation", help="RQ2: imputation comparison")
    p.add_argument("--rates", type=float, nargs="+", default=[0.4, 0.8])

    p = sub.add_parser("fig4", help="Figure 4: number of temporal graphs")
    p.add_argument("--graphs", type=int, nargs="+", default=[2, 4, 8, 16])

    p = sub.add_parser("fig5", help="Figure 5: imputation-loss weight")
    p.add_argument("--lambdas", type=float, nargs="+",
                   default=[0.0001, 0.01, 1.0, 5.0, 20.0])

    p = sub.add_parser(
        "gauntlet",
        help="missing-pattern gauntlet: model x scenario x rate grid "
             "(see docs/MISSING.md)",
    )
    add_models_flag(p)
    p.add_argument("--rates", type=float, nargs="+", default=None,
                   help="target missing rates (default: 0.3 0.6)")
    p.add_argument("--emit", type=str, default=None,
                   help="write the grid as a JSON record to this path")

    p = sub.add_parser(
        "profile",
        help="train one model briefly; print op hotspots, write a JSONL run record",
    )
    p.add_argument("--model", default="RIHGCN", help="registered neural model name")
    p.add_argument("--missing-rate", type=float, default=0.4)
    p.add_argument("--profile-epoch", type=int, default=1,
                   help="epoch to run the op profiler on (default: second epoch)")
    p.add_argument("--top", type=int, default=15, help="hotspot rows to print")
    p.add_argument("--run-record", type=str, default="runs/profile.jsonl",
                   help="JSONL run-record path")

    p = sub.add_parser(
        "export",
        help="train a model and write a serving bundle (.npz + .json header)",
    )
    p.add_argument("--model", default="RIHGCN", help="registered neural model name")
    p.add_argument("--missing-rate", type=float, default=0.4)
    p.add_argument("--output", type=str, default=None,
                   help="bundle base path (default: artifacts/<model>-<scale>)")
    p.add_argument("--skip-training", action="store_true",
                   help="export with freshly initialised weights (smoke tests)")

    p = sub.add_parser(
        "plan",
        help="trace a bundle's forward into an execution plan; print "
             "compile stats (see docs/PERFORMANCE.md)",
    )
    p.add_argument("--bundle", required=True, help="bundle base path from 'export'")
    p.add_argument("--batch", type=int, default=1,
                   help="batch rows to trace the plan for")
    p.add_argument("--verify", action="store_true",
                   help="compile every plan signature of the bundle's day, "
                        "replay each at a different start step and require "
                        "bitwise equality with the eager forward (exit 1 on "
                        "mismatch)")

    p = sub.add_parser(
        "quantize",
        help="re-write a bundle with int8/float16 weights "
             "(see docs/PERFORMANCE.md)",
    )
    p.add_argument("--bundle", required=True,
                   help="float bundle base path from 'export'")
    p.add_argument("--output", type=str, default=None,
                   help="quantized bundle base path (default: <bundle>-<mode>)")
    p.add_argument("--mode", choices=["int8", "float16"], default="int8")
    p.add_argument("--gate", type=float, default=1.0,
                   help="max relative MAE drift vs the float bundle, in "
                        "percent (negative disables the gate)")

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--deadline-s", type=float, default=None,
                       help="per-request time budget in seconds")
        p.add_argument("--retry-attempts", type=int, default=None,
                       help="model-forward attempts incl. the first (1 = off)")
        p.add_argument("--no-breaker", action="store_true",
                       help="disable the model-forward circuit breaker")
        p.add_argument("--no-fallback", action="store_true",
                       help="turn degraded answers into plain errors")
        p.add_argument("--max-queue-depth", type=int, default=None,
                       help="bound on queued forecasts (0 = unbounded)")

    def add_observability_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-slo", action="store_true",
                       help="disable the SLO burn-rate engine and /slo")
        p.add_argument("--slo-latency-ms", type=float, default=None,
                       help="latency objective threshold (default 250ms)")
        p.add_argument("--profile-hz", type=float, default=None,
                       help="continuous-profiler sample rate (0 = off)")
        p.add_argument("--exemplars", action="store_true",
                       help="attach trace-id exemplars to /metrics buckets")

    p = sub.add_parser(
        "serve",
        help="serve forecasts from a bundle over HTTP (see docs/SERVING.md)",
    )
    p.add_argument("--bundle", required=True, help="bundle base path from 'export'")
    p.add_argument("--host", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port; 0 picks an ephemeral port (printed on start)")
    p.add_argument("--max-batch-size", type=int,
                   help="requests fused per forward pass (default 8; "
                        "1 = sequential)")
    p.add_argument("--max-wait-ms", type=float,
                   help="how long a forming batch waits for followers "
                        "(default 0)")
    p.add_argument("--trace-sample", type=float,
                   help="request-trace sampling rate in [0, 1] (default 0 = off)")
    p.add_argument("--trace-export", type=str, default=None,
                   help="append finished spans to this JSONL file")
    p.add_argument("--no-plan", action="store_true",
                   help="disable traced execution plans (eager forwards only)")
    add_resilience_flags(p)
    add_observability_flags(p)

    p = sub.add_parser(
        "chaos",
        help="soak a bundle's serving path under seeded fault injection "
             "(see docs/RELIABILITY.md)",
    )
    p.add_argument("--bundle", required=True, help="bundle base path from 'export'")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent closed-loop clients")
    p.add_argument("--requests", type=int, default=50,
                   help="observe+forecast rounds per client")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="fault-stream seed (same seed = same faults)")
    p.add_argument("--latency-rate", type=float, default=0.1,
                   help="share of model forwards hit by a latency spike")
    p.add_argument("--latency-ms", type=float, default=50.0,
                   help="injected latency per spike")
    p.add_argument("--error-rate", type=float, default=0.05,
                   help="share of model forwards that throw")
    p.add_argument("--corrupt-rate", type=float, default=0.0,
                   help="share of forwards with NaN-poisoned output")
    p.add_argument("--drop-sensors", type=int, nargs="*", default=[],
                   help="sensor ids whose readings vanish in flight")
    p.add_argument("--drop-scenario", type=str, default=None,
                   help="named MissingPattern scenario JSON (inline string or "
                        "a file path) driving the sensor drops — the same "
                        "vocabulary as 'repro gauntlet' (see docs/MISSING.md); "
                        "overrides --drop-sensors")
    p.add_argument("--availability-target", type=float, default=0.99,
                   help="minimum non-5xx share; below this exits non-zero")
    add_resilience_flags(p)

    p = sub.add_parser(
        "fleet",
        help="serve a multi-tenant fleet from a JSON manifest "
             "(see docs/FLEET.md)",
    )
    p.add_argument("--manifest", required=True,
                   help="fleet manifest path from save_fleet_manifest")
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="request-trace sampling rate in [0, 1] (0 = off)")
    p.add_argument("--trace-export", type=str, default=None,
                   help="append finished spans to this JSONL file")

    p = sub.add_parser(
        "cluster",
        help="serve a bundle from an N-worker sharded cluster "
             "(see docs/CLUSTER.md)",
    )
    p.add_argument("--bundle", required=True, help="bundle base path from 'export'")
    p.add_argument("--shards", type=int, default=2, help="worker process count")
    p.add_argument("--halo-hops", type=int, default=None,
                   help="halo ring depth (default: the model's receptive field)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="router TCP port; 0 picks an ephemeral port")
    p.add_argument("--shard-deadline-s", type=float, default=2.0,
                   help="per-shard scatter-gather deadline in seconds")
    p.add_argument("--salt", default="",
                   help="consistent-hash ring salt (changes region placement)")

    p = sub.add_parser(
        "traces",
        help="pretty-print traces from a running server or a JSONL export",
    )
    p.add_argument("source",
                   help="http(s)://host:port of a server, or a JSONL span file")
    p.add_argument("--limit", type=int, default=None,
                   help="only the most recent N traces")
    p.add_argument("--critical-path", action="store_true",
                   help="append per-trace critical-path phase attribution")

    p = sub.add_parser(
        "slo",
        help="print SLO budget/burn status from a server's /slo endpoint",
    )
    p.add_argument("source", help="http(s)://host:port of a server or router")
    p.add_argument("--json", action="store_true",
                   help="dump the raw /slo payload instead of the table")

    p = sub.add_parser(
        "smoke",
        help="run one end-to-end smoke and gate on its checks "
             "(CI runs each; see docs/SMOKES.md)",
    )
    p.add_argument("name", choices=SMOKE_NAMES)
    p.add_argument("--report", type=str, default=None,
                   help="also write the JSON report to this path")

    p = sub.add_parser("report", help="run everything, emit a Markdown report")
    p.add_argument("--output", type=str, default="-",
                   help="output file path, or '-' for stdout")
    p.add_argument("--skip", nargs="+", default=[], choices=REPORT_SPECS,
                   help="experiments to leave out")
    add_models_flag(p)
    return parser


def _configs(args) -> tuple[DataConfig, ModelConfig, object]:
    preset = _SCALES[args.scale]
    data = DataConfig(
        dataset="pems",
        num_nodes=args.nodes or preset["num_nodes"],
        num_days=args.days or preset["num_days"],
        stride=preset["stride"],
        seed=args.seed,
    )
    model = ModelConfig(
        embed_dim=preset["embed"],
        hidden_dim=preset["hidden"],
        num_graphs=preset["graphs"],
        seed=args.seed,
    )
    trainer = default_trainer_config(max_epochs=args.epochs or preset["epochs"])
    return data, model, trainer


#: ``--no-*`` switches of ``serve``/``chaos`` and the field each turns off
_OFF_SWITCHES = {
    "no_plan": "plan_enabled",
    "no_slo": "slo_enabled",
    "no_breaker": "breaker",
    "no_fallback": "fallback",
}


def _serve_config(args):
    """The ``ServeConfig`` the ``serve``/``chaos`` flags ask for.

    Flags left unset keep the config's defaults. Every other flag is
    named after the field it sets, so the set flags are sorted into the
    codec's nested shape: ``ServeConfig`` fields at the top, resilience
    fields under ``resilience``.
    """
    from dataclasses import fields

    from .codec import from_dict
    from .reliability import ResiliencePolicy
    from .serve import ServeConfig

    given = {name: value for name, value in vars(args).items() if value is not None}
    if "max_wait_ms" in given:
        given["max_wait_s"] = given.pop("max_wait_ms") / 1e3
    for switch, name in _OFF_SWITCHES.items():
        if given.pop(switch, False):
            given[name] = False

    def section(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return from_dict(
        ServeConfig, {**section(ServeConfig), "resilience": section(ResiliencePolicy)}
    )


def _fetch_json(source: str, route: str) -> dict:
    import json
    from urllib.request import urlopen

    with urlopen(source.rstrip("/") + route) as response:
        return json.load(response)


def _render_slo(payload: dict) -> str:
    """Render a ``GET /slo`` payload as the operator-facing table."""
    snapshot = payload.get("slo", payload)
    lines = []
    burning = snapshot.get("burning", [])
    lines.append(
        "SLO status: "
        + (f"BURNING ({', '.join(burning)})" if burning else "all budgets ok")
    )
    for name, entry in snapshot.get("objectives", {}).items():
        objective = entry["objective"]
        left = entry["budget_remaining"]
        total = entry["good_total"] + entry["bad_total"]
        rule_bits = []
        for rule in entry["rules"]:
            flag = "!" if rule["burning"] else ""
            rule_bits.append(
                f"{rule['rule']} {rule['burn_short']:.1f}x/"
                f"{rule['burn_long']:.1f}x{flag}"
            )
        lines.append(
            f"  {name:<16} target {objective['target']:.2%}  "
            f"budget left {left:7.1%}  events {total}  "
            f"burn {'; '.join(rule_bits)}"
        )
        for event in entry.get("active_burns", []):
            lines.append(
                f"    firing: rule {event['rule']} at "
                f"{event['burn_short']:.1f}x (threshold {event['threshold']:g}x)"
            )
    canaries = payload.get("canaries", {})
    if canaries:
        lines.append("canary rollouts:")
        for tenant, entry in canaries.items():
            reason = f" — {entry['reason']}" if entry.get("reason") else ""
            lines.append(f"  {tenant}: {entry['state']}{reason}")
            slo = entry.get("slo") or {}
            fired = slo.get("burn_events_total", 0)
            if fired:
                lines.append(f"    burn events fired: {fired}")
    return "\n".join(lines)


_GRID_COMMANDS = ("table1-missing", "table1-horizon", "table2", "imputation",
                  "fig4", "fig5", "gauntlet")


def _grid_command(args, data_cfg: DataConfig):
    """(spec, table title) for one experiment subcommand."""
    models = getattr(args, "models", None)
    if args.command == "table1-missing":
        return (table1_missing(models, args.rates),
                "Table I (upper): PeMS by missing rate")
    if args.command == "table1-horizon":
        return (table1_horizon(models, args.missing_rate),
                f"Table I (lower): PeMS @ {args.missing_rate:.0%} missing by horizon")
    if args.command == "table2":
        return (table2(models, num_days=max(data_cfg.num_days, 10)),
                "Table II: Stampede by horizon")
    if args.command == "imputation":
        return rq2(args.rates), None
    if args.command == "fig4":
        return fig4(args.graphs), None
    if args.command == "fig5":
        return fig5(args.lambdas), None
    return gauntlet(models, args.rates, seed=data_cfg.seed), None


def _emit_gauntlet(grid, args) -> None:
    import json
    import platform
    import time

    from .experiments import gauntlet_payload

    record = {
        "bench": "missing_gauntlet",
        "scale": args.scale,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    record.update(gauntlet_payload(grid))
    out_dir = os.path.dirname(args.emit)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.emit, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"record written to {args.emit}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    data_cfg, model_cfg, trainer_cfg = _configs(args)
    models = getattr(args, "models", None)

    if args.command in _GRID_COMMANDS:
        spec, title = _grid_command(args, data_cfg)
        grid = run_grid(spec, data_cfg, model_cfg, trainer_cfg, verbose=True)
        print()
        print(grid.render(title))
        if args.command == "gauntlet" and args.emit:
            _emit_gauntlet(grid, args)
    elif args.command == "profile":
        from dataclasses import replace

        from .experiments import build_model, is_statistical, prepare_context
        from .telemetry import EpochLogger, JSONLRunRecorder, Profiler
        from .training import Trainer

        if is_statistical(args.model):
            print(f"{args.model} is a closed-form baseline; nothing to profile",
                  file=sys.stderr)
            return 2
        ctx = prepare_context(
            replace(data_cfg, missing_rate=args.missing_rate), model_cfg
        )
        model = build_model(args.model, ctx)
        trainer = Trainer(model, trainer_cfg)
        profiler = Profiler(epoch=args.profile_epoch, top=args.top)
        recorder = JSONLRunRecorder(
            args.run_record,
            extra={"dataset": data_cfg.dataset, "missing_rate": args.missing_rate,
                   "command": "profile"},
        )
        print(f"profiling {args.model}: {trainer_cfg.max_epochs} epochs, "
              f"{ctx.train_windows.num_windows} train windows, "
              f"missing rate {args.missing_rate:.0%}")
        history = trainer.fit(
            ctx.train_windows, ctx.val_windows,
            callbacks=[EpochLogger(), recorder, profiler],
        )
        print()
        print(f"op hotspots (epoch {min(args.profile_epoch, history.num_epochs - 1)}, "
              f"sorted by total seconds):")
        print(profiler.report_text or "(no ops recorded)")
        print()
        print(f"run record appended to {args.run_record} "
              f"(run_id={recorder.run_id}, {history.num_epochs} epochs)")
    elif args.command == "export":
        from dataclasses import replace

        from .experiments import is_statistical
        from .serve import export_model

        if is_statistical(args.model):
            print(f"{args.model} is a closed-form baseline; bundles cover the "
                  f"neural registry", file=sys.stderr)
            return 2
        if args.skip_training:
            print(f"exporting {args.model} with untrained weights (--skip-training)")
        else:
            print(f"training {args.model}: {trainer_cfg.max_epochs} epochs")
        output = args.output or f"artifacts/{args.model.replace(' ', '-')}-{args.scale}"
        header_path, history = export_model(
            args.model, replace(data_cfg, missing_rate=args.missing_rate),
            model_cfg, output,
            trainer_config=None if args.skip_training else trainer_cfg,
        )
        if history is not None:
            print(f"trained {history.num_epochs} epochs, "
                  f"final val loss {history.val_loss[-1]:.4f}")
        print(f"bundle written to {header_path} "
              f"(+ {os.path.basename(output)}.npz)")
    elif args.command == "plan":
        from .serve import check_plan, load_bundle

        bundle = load_bundle(args.bundle)
        result = check_plan(
            bundle, batch=args.batch, seed=args.seed, verify=args.verify
        )
        if not result["compiled"]:
            print(f"{result['reason']}; serving stays on the eager path")
            return 2
        signature = result["signature"]
        print(f"{bundle.model_name}: plan compiled for batch {args.batch}"
              + (f", signature {signature}" if signature else ""))
        for key, value in result["stats"].items():
            print(f"  {key:<20} {value}")
        print(f"  {'trace_seconds sum':<20} {result['trace_seconds']:.4f} "
              f"(every plan traced)")
        print(f"  {'compile_seconds sum':<20} {result['compile_seconds']:.4f} "
              f"(every plan lowered)")
        print(f"  {'shared arena_bytes':<20} {result['arena_bytes']} "
              f"(one arena, every plan)")
        if result["verified"] is True:
            print("verify: PASS (replay bitwise-equal to the eager forward)")
        elif result["verified"] is False:
            reason = result["reason"] or f"max |diff| {result['max_abs_diff']:.3e}"
            print(f"verify: FAIL ({reason})")
            return 1
    elif args.command == "quantize":
        from .errors import QuantizationError
        from .serve import quantization_mae_drift, quantize_bundle

        output = args.output or f"{args.bundle}-{args.mode}"
        gate = None if args.gate < 0 else args.gate / 100.0
        try:
            header_path = quantize_bundle(
                args.bundle, output, mode=args.mode, gate=gate, seed=args.seed
            )
        except QuantizationError as error:
            print(f"quantization failed: {error}", file=sys.stderr)
            return 1
        src_npz = args.bundle if args.bundle.endswith(".npz") else args.bundle + ".npz"
        out_npz = output if output.endswith(".npz") else output + ".npz"
        shrink = os.path.getsize(src_npz) / max(os.path.getsize(out_npz), 1)
        print(f"quantized bundle written to {header_path} "
              f"({args.mode}, {shrink:.2f}x smaller arrays)")
        if gate is not None:
            drift = quantization_mae_drift(args.bundle, output, seed=args.seed)
            print(f"relative MAE drift vs float32: {drift:.4%} "
                  f"(gate {gate:.2%})")
    elif args.command == "serve":
        from .serve import ServeApp, load_bundle, run_server
        from .telemetry import Tracer, set_tracer

        config = _serve_config(args)
        bundle = load_bundle(args.bundle)
        print(f"loaded {bundle.model_name} bundle: {bundle.num_nodes} nodes, "
              f"{bundle.num_features} features, window {bundle.input_length} "
              f"-> horizon {bundle.output_length}")
        tracer = Tracer(
            sample_rate=config.trace_sample, export_path=config.trace_export
        )
        set_tracer(tracer)  # callbacks and helpers share the server's tracer
        if config.trace_sample > 0:
            print(f"tracing {config.trace_sample:.0%} of requests"
                  + (f", exporting to {config.trace_export}"
                     if config.trace_export else ""))
        app = ServeApp(bundle, tracer=tracer, config=config)
        run_server(app)
    elif args.command == "chaos":
        import json

        from .reliability import FaultPlan
        from .serve import load_bundle
        from .smoke import chaos_soak, finish

        config = _serve_config(args)
        bundle = load_bundle(args.bundle)
        if args.drop_scenario:
            source = args.drop_scenario
            if os.path.exists(source):
                with open(source, encoding="utf-8") as handle:
                    source = handle.read()
            dropped = json.loads(source)
        else:
            dropped = tuple(args.drop_sensors)
        plan = FaultPlan(
            seed=args.chaos_seed,
            latency_rate=args.latency_rate,
            latency_s=args.latency_ms / 1e3,
            error_rate=args.error_rate,
            corrupt_rate=args.corrupt_rate,
            dropped_sensors=dropped,
        )
        return finish(chaos_soak(
            bundle, plan, clients=args.clients, requests=args.requests,
            seed=args.seed, target=args.availability_target, config=config,
        ))
    elif args.command == "fleet":
        from .serve import ServeApp, build_pool, load_fleet_manifest, run_server
        from .telemetry import Tracer, set_tracer

        fleet_cfg, base_dir = load_fleet_manifest(args.manifest)
        tracer = Tracer(
            sample_rate=args.trace_sample, export_path=args.trace_export
        )
        set_tracer(tracer)
        pool = build_pool(fleet_cfg, base_dir=base_dir, tracer=tracer)
        for name in pool.tenants():
            runtime = pool.runtime(name)
            print(f"tenant {name}: {runtime.bundle.model_name} "
                  f"({runtime.bundle_ref}), "
                  f"quota {'off' if runtime.quota is None else runtime.quota.snapshot()['rate_per_s']}")
        app = ServeApp(pool=pool, config=fleet_cfg.default)
        run_server(app)
    elif args.command == "cluster":
        from .serve import bind_http, load_bundle
        from .serve.cluster import (
            ClusterConfig,
            ClusterSupervisor,
            build_plan,
            coupling_adjacency,
            shard_quality,
        )

        config = ClusterConfig(
            num_shards=args.shards,
            halo_hops=args.halo_hops,
            host=args.host,
            port=args.port,
            shard_deadline_s=args.shard_deadline_s,
            salt=args.salt,
        )
        bundle = load_bundle(args.bundle)
        plan = build_plan(bundle, config)
        quality = shard_quality(plan, coupling_adjacency(bundle))
        print(f"loaded {bundle.model_name} bundle: {bundle.num_nodes} nodes "
              f"-> {plan.num_shards} shards, halo {plan.halo_hops} hops")
        print(f"  owned per shard {quality['owned_sizes']}, "
              f"edge cut {quality['edge_cut']:.2%}, "
              f"replication x{quality['replication_factor']:.2f}")
        supervisor = ClusterSupervisor(args.bundle, plan, config=config)
        supervisor.start()
        try:
            for shard, port in enumerate(supervisor.ports):
                print(f"  shard {shard}: http://127.0.0.1:{port}")
            server = bind_http(supervisor.router, args.host, args.port)
            host, port = server.server_address[:2]
            print(f"cluster router listening on http://{host}:{port} "
                  f"(Ctrl-C to stop)")
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            supervisor.stop()
    elif args.command == "traces":
        from .telemetry import format_trace, load_traces

        for trace in load_traces(args.source, args.limit):
            print(format_trace(trace, critical_path=args.critical_path))
            print()
    elif args.command == "slo":
        import json

        payload = _fetch_json(args.source, "/slo")
        if args.json:
            print(json.dumps(payload, indent=2, default=str))
        else:
            print(_render_slo(payload))
        burning = payload.get("slo", payload).get("burning", [])
        if burning:
            return 1
    elif args.command == "smoke":
        from .smoke import SMOKES, finish

        report = SMOKES[args.name](data_cfg, model_cfg, trainer_cfg)
        return finish(report, args.report)
    elif args.command == "report":
        from .experiments import ReportConfig, generate_report

        report_cfg = ReportConfig(
            specs=tuple(n for n in REPORT_SPECS if n not in args.skip),
            models=models,
            data=data_cfg,
            model=model_cfg,
            trainer=trainer_cfg,
        )
        text = generate_report(report_cfg)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"report written to {args.output}")
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
