"""Trainer event bus: callback protocol and built-in observers.

:class:`repro.training.Trainer` dispatches five lifecycle events to the
callbacks passed to ``fit``; each callback receives the trainer itself
plus event-specific context. Callbacks are invoked in list order at
every event, so earlier callbacks can populate state later ones read.

Built-ins:

* :class:`EpochLogger` — human-readable per-epoch progress line (the
  replacement for the removed ``TrainerConfig.verbose`` print);
* :class:`JSONLRunRecorder` — machine-readable run file, one JSON object
  per line (run header, one record per epoch, final summary);
* :class:`Profiler` — activates the autodiff op profiler for one chosen
  epoch and keeps the hotspot report.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import IO, TYPE_CHECKING

from .profiler import OpProfiler
from .registry import MetricRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..training.trainer import Trainer, TrainingHistory

__all__ = ["Callback", "CallbackList", "EpochLogger", "JSONLRunRecorder", "Profiler"]


class Callback:
    """Base class for trainer observers; override any subset of hooks.

    Every hook receives the :class:`~repro.training.Trainer` first, so
    callbacks can read ``trainer.model``, ``trainer.config`` and
    ``trainer.history`` without holding references of their own.
    """

    def on_fit_start(self, trainer: "Trainer") -> None:
        """Called once before the first epoch."""

    def on_epoch_start(self, trainer: "Trainer", epoch: int) -> None:
        """Called at the top of every epoch."""

    def on_batch_end(self, trainer: "Trainer", epoch: int, batch_index: int,
                     loss: float, grad_norm: float) -> None:
        """Called after each optimizer step with that batch's loss/norm."""

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None:
        """Called after each epoch.

        ``logs`` carries ``train_loss``, ``val_loss`` (``None`` without a
        validation split), ``grad_norm``, ``seconds``, ``monitored``,
        ``best`` and ``improved``.
        """

    def on_fit_end(self, trainer: "Trainer", history: "TrainingHistory") -> None:
        """Called once after training (before best-weight restoration)."""


class CallbackList:
    """Dispatch helper that fans one event out to an ordered list."""

    def __init__(self, callbacks: list[Callback] | None = None):
        self.callbacks: list[Callback] = list(callbacks or [])

    def __len__(self) -> int:
        return len(self.callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def fit_start(self, trainer) -> None:
        for cb in self.callbacks:
            cb.on_fit_start(trainer)

    def epoch_start(self, trainer, epoch) -> None:
        for cb in self.callbacks:
            cb.on_epoch_start(trainer, epoch)

    def batch_end(self, trainer, epoch, batch_index, loss, grad_norm) -> None:
        for cb in self.callbacks:
            cb.on_batch_end(trainer, epoch, batch_index, loss, grad_norm)

    def epoch_end(self, trainer, epoch, logs) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(trainer, epoch, logs)

    def fit_end(self, trainer, history) -> None:
        for cb in self.callbacks:
            cb.on_fit_end(trainer, history)


class EpochLogger(Callback):
    """Print one progress line per epoch (every ``every`` epochs)."""

    def __init__(self, every: int = 1, stream: IO[str] | None = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.stream = stream

    def _print(self, text: str) -> None:
        print(text, file=self.stream if self.stream is not None else sys.stdout)

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        if epoch % self.every:
            return
        val = logs["val_loss"]
        val_text = f"val={val:.4f}" if val is not None else "val=n/a"
        marker = " *" if logs.get("improved") else ""
        self._print(
            f"epoch {epoch:3d} train={logs['train_loss']:.4f} {val_text} "
            f"best={logs['best']:.4f} "
            f"grad={logs['grad_norm']:.3f} ({logs['seconds']:.2f}s){marker}"
        )


class JSONLRunRecorder(Callback):
    """Append structured run records to a JSON-lines file.

    Record kinds (``record`` field): ``run_start`` (model/config header),
    ``epoch`` (loss, grad norm, seconds, and a snapshot of the metric
    registry), ``run_end`` (summary). The file is append-mode, so several
    runs can share one trajectory file; ``run_id`` disambiguates them.
    """

    def __init__(
        self,
        path: str,
        run_id: str | None = None,
        registry: MetricRegistry | None = None,
        extra: dict | None = None,
    ):
        self.path = path
        self.run_id = run_id or f"run-{os.getpid()}-{int(time.time())}"
        self.registry = registry
        self.extra = dict(extra or {})
        self._started = 0.0

    def _write(self, record: dict) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def _base(self, kind: str) -> dict:
        return {"record": kind, "run_id": self.run_id, "time": time.time()}

    def on_fit_start(self, trainer) -> None:
        self._started = time.perf_counter()
        record = self._base("run_start")
        record["model"] = type(trainer.model).__name__
        record["num_parameters"] = trainer.model.num_parameters()
        record["config"] = {
            "learning_rate": trainer.config.learning_rate,
            "batch_size": trainer.config.batch_size,
            "max_epochs": trainer.config.max_epochs,
            "patience": trainer.config.patience,
            "grad_clip": trainer.config.grad_clip,
            "imputation_weight": trainer.config.imputation_weight,
            "seed": trainer.config.seed,
        }
        record.update(self.extra)
        self._write(record)

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        record = self._base("epoch")
        record["epoch"] = epoch
        record["train_loss"] = logs["train_loss"]
        record["val_loss"] = logs["val_loss"]
        record["grad_norm"] = logs["grad_norm"]
        record["seconds"] = logs["seconds"]
        registry = self.registry if self.registry is not None else get_registry()
        record["metrics"] = registry.snapshot()
        self._write(record)

    def on_fit_end(self, trainer, history) -> None:
        record = self._base("run_end")
        record["epochs"] = history.num_epochs
        record["best_epoch"] = history.best_epoch
        record["stopped_early"] = history.stopped_early
        record["total_seconds"] = time.perf_counter() - self._started
        if history.train_loss:
            record["final_train_loss"] = history.train_loss[-1]
        if history.val_loss:
            record["final_val_loss"] = history.val_loss[-1]
        self._write(record)


class Profiler(Callback):
    """Run the autodiff op profiler for one epoch of training.

    Profiling every epoch would distort wall times, so the callback
    activates the hook only for ``epoch`` (default: the second epoch,
    skipping epoch 0's cache-warming noise, falling back to 0 on 1-epoch
    runs). After the profiled epoch the hotspot table is available as
    :attr:`report_text` and optionally written to ``path``.
    """

    def __init__(self, epoch: int = 1, top: int | None = 15,
                 path: str | None = None):
        self.epoch = epoch
        self.top = top
        self.path = path
        self.profiler = OpProfiler()
        self.report_text: str | None = None

    def _target_epoch(self, trainer) -> int:
        return min(self.epoch, trainer.config.max_epochs - 1)

    def on_epoch_start(self, trainer, epoch) -> None:
        if epoch == self._target_epoch(trainer):
            self.profiler.activate()

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        if epoch != self._target_epoch(trainer):
            return
        self.profiler.deactivate()
        self.report_text = self.profiler.report(top=self.top)
        if self.path:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "w") as handle:
                handle.write(self.report_text + "\n")

    def on_fit_end(self, trainer, history) -> None:
        # Ends the window even if training stopped early mid-profile.
        self.profiler.deactivate()
        if self.report_text is None and self.profiler.stats:
            self.report_text = self.profiler.report(top=self.top)
