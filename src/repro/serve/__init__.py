"""Online serving: model bundles, streaming state, micro-batched engine,
HTTP front-end and load benchmarking.

The offline story (train → evaluate on windowed arrays) gets a
deployment counterpart::

    from repro.serve import (
        ServeApp, ServeConfig, export_bundle, load_bundle, run_server,
    )

    export_bundle(model, "RIHGCN", ctx, "artifacts/rihgcn-demo")
    bundle = load_bundle("artifacts/rihgcn-demo")
    run_server(ServeApp(bundle, config=ServeConfig(port=8787)))

See ``docs/SERVING.md`` for the full walk-through and
``examples/serve_quickstart.py`` for a runnable end-to-end script.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".artifact": (
        "FLEET_FORMAT_VERSION", "FORMAT_VERSION", "ModelBundle", "export_bundle",
        "export_model", "load_bundle", "load_fleet_manifest", "quantization_mae_drift",
        "quantize_bundle", "QUANT_MODES", "save_fleet_manifest",
    ),
    ".cache": ("LRUCache",),
    ".planner": ("PlanRuntime", "check_plan"),
    ".config": (
        "DEFAULT_TENANT", "CanaryConfig", "FleetConfig", "ServeConfig", "ShadowConfig",
        "TenantConfig",
    ),
    ".engine": ("Forecast", "ForecastEngine"),
    ".fleet": ("EnginePool", "TenantQuota", "build_pool"),
    ".http": ("PlainText", "Response", "ServeApp", "bind_http", "make_server", "run_server"),
    ".loadgen": (
        "LoadReport", "run_load", "compare_batched_sequential", "make_chaos_app",
        "zipf_node_sampler",
    ),
    ".cluster": (
        "ClusterConfig", "ClusterRouter", "ClusterSupervisor", "LocalCluster", "ShardApp",
        "build_plan", "corridor_adjacency", "make_demo_bundle", "make_shard_bundle",
        "run_cluster_smoke", "spatial_hops",
    ),
    ".state": ("StateStore", "StateWindow"),
})
