"""Tests for the callback-based Trainer API, EvalReport, and run records."""

import io
import json

import numpy as np
import pytest

from repro.autodiff import dtype_policy
from repro.datasets import MCARPattern, ZScoreScaler, make_pems_dataset, make_windows
from repro.experiments import build_model
from repro.graphs import gaussian_kernel_adjacency
from repro.models import gcn_lstm
from repro.telemetry import Callback, EpochLogger, JSONLRunRecorder, Profiler
from repro.training import EvalReport, Trainer, TrainerConfig


@pytest.fixture(scope="module")
def env():
    ds = make_pems_dataset(num_nodes=4, num_days=3, steps_per_day=96, seed=0)
    rng = np.random.default_rng(1)
    masked = ds.with_mask(MCARPattern(rate=0.3).mask(ds.data.shape, rng=rng))
    scaler = ZScoreScaler().fit(masked.data, masked.mask)
    from dataclasses import replace

    scaled = replace(
        masked,
        data=scaler.transform(masked.data, masked.mask),
        truth=scaler.transform(masked.truth),
    )
    train, val, _test = scaled.chronological_split()
    wtr = make_windows(train, 6, 4, stride=4)
    wva = make_windows(val, 6, 4, stride=4)
    adjacency = gaussian_kernel_adjacency(ds.network.distances)
    return wtr, wva, adjacency, scaler


def small_model(adjacency):
    return gcn_lstm(
        input_length=6, output_length=4, num_nodes=4, num_features=4,
        adjacency=adjacency, embed_dim=6, hidden_dim=8, seed=0,
    )


class RecordingCallback(Callback):
    """Logs every hook invocation as (event, tag) tuples into a shared list."""

    def __init__(self, tag: str, log: list):
        self.tag = tag
        self.log = log

    def on_fit_start(self, trainer):
        self.log.append(("fit_start", self.tag))

    def on_epoch_start(self, trainer, epoch):
        self.log.append(("epoch_start", self.tag, epoch))

    def on_batch_end(self, trainer, epoch, batch_index, loss, grad_norm):
        self.log.append(("batch_end", self.tag, epoch, batch_index))

    def on_epoch_end(self, trainer, epoch, logs):
        self.log.append(("epoch_end", self.tag, epoch))

    def on_fit_end(self, trainer, history):
        self.log.append(("fit_end", self.tag))


class TestCallbackDispatch:
    def test_invocation_counts(self, env):
        wtr, wva, adjacency, _ = env
        log = []
        cb = RecordingCallback("a", log)
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=2, batch_size=32))
        trainer.fit(wtr, wva, callbacks=[cb])
        events = [e[0] for e in log]
        assert events.count("fit_start") == 1
        assert events.count("fit_end") == 1
        assert events.count("epoch_start") == 2
        assert events.count("epoch_end") == 2
        num_batches = int(np.ceil(wtr.num_windows / 32))
        assert events.count("batch_end") == 2 * num_batches

    def test_list_order_preserved_per_event(self, env):
        wtr, _, adjacency, _ = env
        log = []
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=1, batch_size=64))
        trainer.fit(wtr, None, callbacks=[
            RecordingCallback("first", log), RecordingCallback("second", log),
        ])
        for i in range(0, len(log), 2):
            assert log[i][1] == "first"
            assert log[i + 1][1] == "second"
            assert log[i][0] == log[i + 1][0]

    def test_epoch_end_logs_fields(self, env):
        wtr, wva, adjacency, _ = env
        seen = {}

        class Grab(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                seen.update(logs)

        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=1, batch_size=32))
        trainer.fit(wtr, wva, callbacks=[Grab()])
        assert set(seen) >= {"train_loss", "val_loss", "grad_norm", "seconds",
                             "monitored", "best", "improved"}
        assert seen["val_loss"] is not None
        assert seen["seconds"] > 0

    def test_history_unchanged_without_callbacks(self, env):
        wtr, wva, adjacency, _ = env
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=2, batch_size=32))
        history = trainer.fit(wtr, wva)
        assert history.num_epochs == 2
        assert history.train_loss[-1] < history.train_loss[0]


class TestEpochLogger:
    def test_writes_one_line_per_epoch(self, env):
        wtr, wva, adjacency, _ = env
        stream = io.StringIO()
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=3, batch_size=32))
        trainer.fit(wtr, wva, callbacks=[EpochLogger(stream=stream)])
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 3
        assert "train=" in lines[0] and "val=" in lines[0]

    def test_every_skips_epochs(self, env):
        wtr, _, adjacency, _ = env
        stream = io.StringIO()
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=3, batch_size=64))
        trainer.fit(wtr, None, callbacks=[EpochLogger(every=2, stream=stream)])
        assert len(stream.getvalue().splitlines()) == 2  # epochs 0 and 2

    def test_every_validated(self):
        with pytest.raises(ValueError):
            EpochLogger(every=0)


class TestVerboseRemoved:
    def test_default_construction_is_clean(self, env, recwarn):
        wtr, _, adjacency, _ = env
        config = TrainerConfig(max_epochs=1, batch_size=64)
        assert "verbose" not in config.__dict__
        trainer = Trainer(small_model(adjacency), config)
        trainer.fit(wtr, None)
        assert not any(issubclass(w.category, DeprecationWarning)
                       for w in recwarn.list)

    def test_explicit_logger_still_prints(self, env):
        wtr, _, adjacency, _ = env
        stream = io.StringIO()
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=1, batch_size=64))
        trainer.fit(wtr, None, callbacks=[EpochLogger(stream=stream)])
        assert len(stream.getvalue().splitlines()) == 1

    def test_verbose_raises_config_error_with_hint(self):
        """The ``ConfigError`` hint is gone: ``verbose=`` now fails like any
        unknown argument, with a ``TypeError`` that names it."""
        from repro.errors import ConfigError

        with pytest.raises(TypeError, match="verbose") as excinfo:
            TrainerConfig(max_epochs=1, verbose=True)
        assert not isinstance(excinfo.value, ConfigError)


class TestJSONLRunRecorder:
    def test_round_trip(self, env, tmp_path):
        wtr, wva, adjacency, _ = env
        path = tmp_path / "run.jsonl"
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=2, batch_size=32))
        recorder = JSONLRunRecorder(str(path), run_id="test-run",
                                    extra={"dataset": "pems"})
        history = trainer.fit(wtr, wva, callbacks=[recorder])

        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds == ["run_start", "epoch", "epoch", "run_end"]
        assert all(r["run_id"] == "test-run" for r in records)
        start, epoch0, epoch1, end = records
        assert start["dataset"] == "pems"
        assert start["model"] == "GCNLSTMForecaster" or start["model"]
        assert epoch0["epoch"] == 0 and epoch1["epoch"] == 1
        assert epoch0["train_loss"] == pytest.approx(history.train_loss[0])
        assert epoch1["val_loss"] == pytest.approx(history.val_loss[1])
        assert epoch0["seconds"] > 0
        assert "metrics" in epoch0
        assert end["epochs"] == 2
        assert end["final_train_loss"] == pytest.approx(history.train_loss[-1])

    def test_appends_across_runs(self, env, tmp_path):
        wtr, _, adjacency, _ = env
        path = tmp_path / "run.jsonl"
        for run_id in ("r1", "r2"):
            trainer = Trainer(small_model(adjacency),
                              TrainerConfig(max_epochs=1, batch_size=64))
            trainer.fit(wtr, None,
                        callbacks=[JSONLRunRecorder(str(path), run_id=run_id)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["run_id"] for r in records} == {"r1", "r2"}


class TestProfilerCallback:
    def test_profiles_chosen_epoch(self, env, tmp_path):
        wtr, _, adjacency, _ = env
        report_path = tmp_path / "hotspots.txt"
        profiler = Profiler(epoch=1, top=5, path=str(report_path))
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=2, batch_size=32))
        trainer.fit(wtr, None, callbacks=[profiler])
        assert profiler.report_text is not None
        assert "matmul" in profiler.report_text
        assert report_path.read_text().strip() == profiler.report_text.strip()
        assert profiler.profiler.stats["matmul"].backward_calls > 0

    def test_every_rihgcn_op_gets_forward_time(self, tiny_ctx):
        model = build_model("RIHGCN", tiny_ctx)
        profiler = Profiler(epoch=1, top=None)
        history = Trainer(model, TrainerConfig(max_epochs=2, batch_size=8)).fit(
            tiny_ctx.train_windows, tiny_ctx.val_windows, callbacks=[profiler]
        )
        stats = profiler.profiler.stats.values()
        # Ops made outside Tensor's methods (fused ChebConv, the imputation
        # path's select/concat_in_time, the LSTM gate sigmoid) included.
        assert {"cheb_propagate", "select", "concat_in_time", "sigmoid"} <= {
            s.op for s in stats
        }
        assert all(s.calls > 0 and s.forward_seconds > 0 for s in stats)
        assert sum(s.total_seconds for s in stats) <= history.epoch_seconds[1]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_profiled_fit_is_bitwise_unprofiled(self, tiny_ctx, dtype):
        def fit(callbacks):
            with dtype_policy(dtype):
                model = build_model("RIHGCN", tiny_ctx)
                history = Trainer(model, TrainerConfig(max_epochs=2, batch_size=8)).fit(
                    tiny_ctx.train_windows, tiny_ctx.val_windows, callbacks=callbacks
                )
            return history, model.state_dict()

        plain_history, plain_state = fit([])
        profiled_history, profiled_state = fit([Profiler(epoch=1)])
        assert profiled_history.train_loss == plain_history.train_loss
        assert profiled_history.val_loss == plain_history.val_loss
        assert next(iter(plain_state.values())).dtype == np.dtype(dtype)
        for name, value in plain_state.items():
            np.testing.assert_array_equal(profiled_state[name], value, err_msg=name)

    def test_epoch_clamped_to_short_runs(self, env):
        wtr, _, adjacency, _ = env
        profiler = Profiler(epoch=10)
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=1, batch_size=64))
        trainer.fit(wtr, None, callbacks=[profiler])
        assert profiler.report_text is not None  # fell back to epoch 0


class TestEvalReport:
    def test_evaluate_returns_report(self, env):
        wtr, wva, adjacency, scaler = env
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        trainer.fit(wtr, None)
        report = trainer.evaluate(wva, scaler=scaler, target_feature=0)
        assert isinstance(report, EvalReport)
        assert report.rmse >= report.mae > 0
        assert report.mape > 0
        assert report.num_observed > 0
        assert report.horizon == 4

    def test_as_dict(self):
        report = EvalReport(mae=1.0, rmse=2.0, mape=3.0, num_observed=4, horizon=5)
        assert report.as_dict() == {
            "mae": 1.0, "rmse": 2.0, "mape": 3.0, "num_observed": 4, "horizon": 5,
        }


class TestZeroBatchGuard:
    def test_fit_rejects_empty_windows(self, env):
        wtr, _, adjacency, _ = env
        empty = wtr.subset(np.array([], dtype=int))
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        with pytest.raises(ValueError, match="0 windows"):
            trainer.fit(empty)

    def test_evaluate_loss_rejects_empty_windows(self, env):
        wtr, _, adjacency, _ = env
        empty = wtr.subset(np.array([], dtype=int))
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        with pytest.raises(ValueError, match="0 windows"):
            trainer.evaluate_loss(empty)

    def test_no_runtime_warning_raised(self, env):
        wtr, _, adjacency, _ = env
        empty = wtr.subset(np.array([], dtype=int))
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError):
                trainer.evaluate_loss(empty)


class TestForwardBatch:
    def test_base_contract_used_by_trainer(self, env):
        wtr, _, adjacency, _ = env
        model = small_model(adjacency)
        calls = []
        original = model.forward_batch

        def spy(batch):
            calls.append(batch.num_windows)
            return original(batch)

        model.forward_batch = spy
        trainer = Trainer(model, TrainerConfig(max_epochs=1, batch_size=64))
        trainer.fit(wtr, None)
        assert calls  # trainer went through forward_batch

    def test_astgcn_declares_periodic_consumption(self):
        from repro.models.astgcn import ASTGCN
        from repro.models.base import NeuralForecaster

        assert ASTGCN.forward_batch is not NeuralForecaster.forward_batch
