"""Tests for ServeConfig (repro.serve.config) and the retired call styles."""

import argparse
from dataclasses import replace

import pytest

from repro.cli import _build_parser, _serve_config
from repro.errors import ConfigError, ReproError
from repro.reliability import ResiliencePolicy
from repro.serve import Response, ServeApp, ServeConfig, make_server, run_server
from repro.telemetry import MetricRegistry
from repro.training import TrainerConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.max_batch_size == 8
        assert config.resilience == ResiliencePolicy()

    def test_bad_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            ServeConfig(port=99999)
        with pytest.raises(ConfigError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ConfigError):
            ServeConfig(max_wait_s=-1.0)
        with pytest.raises(ConfigError):
            ServeConfig(trace_sample=1.5)
        with pytest.raises(ConfigError):
            ServeConfig(resilience="nope")

    def test_config_error_is_repro_error_only(self):
        """The stdlib ``ValueError`` base was removed with the other
        transitional shims; callers catch :class:`ConfigError` (or
        :class:`ReproError`)."""
        with pytest.raises(ConfigError):
            ServeConfig(port=-1)
        with pytest.raises(ReproError):
            ServeConfig(port=-1)
        assert not issubclass(ConfigError, ValueError)

    def test_nested_policy_validated(self):
        with pytest.raises(ConfigError):
            ServeConfig(resilience=ResiliencePolicy(retry_attempts=0))

    def test_with_overrides_revalidates(self):
        config = ServeConfig()
        assert replace(config, port=9000).port == 9000
        with pytest.raises(ConfigError):
            replace(config, port=-2)

    def test_frozen(self):
        with pytest.raises(Exception):
            ServeConfig().port = 1234


class TestFromArgs:
    def test_namespace_without_flags_gives_defaults(self):
        assert _serve_config(argparse.Namespace()) == ServeConfig()

    def test_cli_flags_map(self):
        ns = argparse.Namespace(
            host="10.0.0.1", port=8787, max_batch_size=2, max_wait_ms=1.0,
            trace_sample=0.5, trace_export="spans.jsonl",
            deadline_s=3.0, retry_attempts=4, no_breaker=True,
            no_fallback=False, max_queue_depth=32,
        )
        config = _serve_config(ns)
        assert config.host == "10.0.0.1" and config.port == 8787
        assert config.max_wait_s == pytest.approx(0.001)
        assert config.trace_sample == 0.5
        assert config.trace_export == "spans.jsonl"
        assert config.resilience.deadline_s == 3.0
        assert config.resilience.retry_attempts == 4
        assert config.resilience.breaker is False
        assert config.resilience.fallback is True
        assert config.resilience.max_queue_depth == 32


def _cli_config(*argv: str) -> ServeConfig:
    return _serve_config(_build_parser().parse_args(list(argv)))


class TestCliServeConfig:
    """Fixed ``serve``/``chaos`` argv against literal expected configs."""

    def test_serve_bundle_and_ephemeral_port(self):
        assert _cli_config("serve", "--bundle", "B", "--port", "0") == ServeConfig()

    def test_serve_without_port_uses_the_cli_default(self):
        assert _cli_config("serve", "--bundle", "B") == ServeConfig(port=8787)

    def test_every_serve_flag_once(self):
        config = _cli_config(
            "serve", "--bundle", "B",
            "--host", "0.0.0.0", "--port", "9000",
            "--max-batch-size", "4", "--max-wait-ms", "5",
            "--trace-sample", "0.25", "--trace-export", "spans.jsonl",
            "--no-plan",
            "--deadline-s", "3", "--retry-attempts", "4",
            "--no-breaker", "--no-fallback", "--max-queue-depth", "16",
            "--no-slo", "--slo-latency-ms", "100",
            "--profile-hz", "50", "--exemplars",
        )
        assert config == ServeConfig(
            host="0.0.0.0",
            port=9000,
            max_batch_size=4,
            max_wait_s=0.005,
            trace_sample=0.25,
            trace_export="spans.jsonl",
            plan_enabled=False,
            slo_enabled=False,
            slo_latency_ms=100.0,
            profile_hz=50.0,
            exemplars=True,
            resilience=ResiliencePolicy(
                deadline_s=3.0,
                retry_attempts=4,
                breaker=False,
                fallback=False,
                max_queue_depth=16,
            ),
        )

    def test_chaos_defaults(self):
        assert _cli_config("chaos", "--bundle", "B") == ServeConfig()

    def test_every_chaos_flag_once(self):
        config = _cli_config(
            "chaos", "--bundle", "B",
            "--clients", "2", "--requests", "10", "--chaos-seed", "3",
            "--latency-rate", "0.2", "--latency-ms", "10",
            "--error-rate", "0.1", "--corrupt-rate", "0.05",
            "--drop-sensors", "0", "1", "--availability-target", "0.9",
            "--deadline-s", "1.5", "--retry-attempts", "1",
            "--no-breaker", "--no-fallback", "--max-queue-depth", "0",
        )
        assert config == ServeConfig(
            resilience=ResiliencePolicy(
                deadline_s=1.5,
                retry_attempts=1,
                breaker=False,
                fallback=False,
                max_queue_depth=0,
            ),
        )

    def test_invalid_flag_value_is_config_error(self):
        with pytest.raises(ConfigError):
            _cli_config("serve", "--bundle", "B", "--trace-sample", "2")


def _unpack_response(bundle):
    status, body = Response(200, {})


#: retired call styles, each now an ordinary signature mismatch
_OLD_CALLS = {
    "serve-app-kwargs": lambda bundle: ServeApp(
        bundle, max_batch_size=2, cache_size=16
    ),
    "make-server-port": lambda bundle: make_server(
        ServeApp(bundle, registry=MetricRegistry()), host="127.0.0.1", port=0
    ),
    "run-server-port": lambda bundle: run_server(
        ServeApp(bundle, registry=MetricRegistry()), port=8787
    ),
    "response-unpacking": _unpack_response,
}


class TestRemovedShims:
    """The retired call styles fail like any other bad call."""

    @pytest.fixture()
    def app_bundle(self, tiny_ctx, tmp_path):
        from repro.experiments import build_model
        from repro.serve import export_bundle, load_bundle

        model = build_model("FC-LSTM-I", tiny_ctx)
        base = str(tmp_path / "bundle")
        export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
        return load_bundle(base)

    @pytest.mark.parametrize("old_call", sorted(_OLD_CALLS))
    def test_old_call_style_is_type_error(self, app_bundle, old_call):
        """Each retired call style fails with Python's own ``TypeError``."""
        with pytest.raises(TypeError):
            _OLD_CALLS[old_call](app_bundle)

    def test_trainer_verbose_removed(self):
        """``verbose=`` is no longer a ``TrainerConfig`` field."""
        with pytest.raises(TypeError, match="verbose"):
            TrainerConfig(verbose=True)

    def test_unknown_kwargs_still_type_error(self, app_bundle):
        from repro.serve import ServeApp

        with pytest.raises(TypeError, match="unexpected keyword"):
            ServeApp(app_bundle, turbo_mode=True)

    def test_config_drives_engine(self, app_bundle):
        from repro.serve import ServeApp
        from repro.telemetry import MetricRegistry

        config = ServeConfig(
            max_batch_size=3,
            resilience=ResiliencePolicy(max_queue_depth=7),
        )
        app = ServeApp(app_bundle, registry=MetricRegistry(), config=config)
        assert app.engine.max_batch_size == 3
        assert app.engine.policy.max_queue_depth == 7

    def test_make_server_binds_from_config(self, app_bundle):
        from repro.serve import ServeApp, make_server
        from repro.telemetry import MetricRegistry

        app = ServeApp(app_bundle, registry=MetricRegistry())
        server = make_server(app)
        try:
            assert server.server_address[0] == app.config.host
        finally:
            server.server_close()
            app.pool.stop()

