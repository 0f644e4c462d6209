"""Training loop for neural forecasters.

Implements the paper's protocol: Adam (lr 1e-3), gradient clipping,
batch size 64, early stopping with patience 6 on validation loss, joint
objective ``L = L_c + lambda * L_m`` for imputation-based models.

Run-time observability is callback-based: ``fit`` accepts a list of
:class:`repro.telemetry.Callback` objects and dispatches
``on_fit_start`` / ``on_epoch_start`` / ``on_batch_end`` /
``on_epoch_end`` / ``on_fit_end`` events. With no callbacks the loop
does no extra work beyond what the history records always cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..autodiff import no_grad
from ..datasets import BatchLoader, WindowSet
from ..nn import JointLoss
from ..optim import Adam, EarlyStopping, clip_grad_norm
from ..models.base import ForecastOutput, NeuralForecaster
from ..telemetry.callbacks import Callback, CallbackList
from .metrics import masked_mae, masked_mape, masked_rmse

__all__ = ["TrainerConfig", "TrainingHistory", "EvalReport", "Trainer"]


@dataclass
class TrainerConfig:
    """Hyper-parameters for a training run (defaults per the paper).

    Epoch logging is a callback: pass ``callbacks=[EpochLogger()]`` to
    :meth:`Trainer.fit`.
    """

    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 6
    grad_clip: float = 5.0
    imputation_weight: float = 1.0  # the paper's lambda
    weight_decay: float = 0.0
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class TrainingHistory:
    """Per-epoch records of one run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


@dataclass(frozen=True)
class EvalReport:
    """Structured result of :meth:`Trainer.evaluate`."""

    mae: float
    rmse: float
    mape: float
    num_observed: int
    horizon: int

    def as_dict(self) -> dict:
        return {
            "mae": self.mae,
            "rmse": self.rmse,
            "mape": self.mape,
            "num_observed": self.num_observed,
            "horizon": self.horizon,
        }


class Trainer:
    """Fits a :class:`NeuralForecaster` on window sets.

    The trainer owns loss construction (prediction loss for all models,
    plus the Eq. 6 imputation loss when the model produces estimates),
    validation-based early stopping, and best-weight restoration.
    Model-specific batch-field consumption lives in
    :meth:`NeuralForecaster.forward_batch`, not here.
    """

    def __init__(self, model: NeuralForecaster, config: TrainerConfig | None = None):
        self.model = model
        self.config = config or TrainerConfig()
        self.loss_fn = JointLoss(imputation_weight=self.config.imputation_weight)
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def _forward(self, batch: WindowSet) -> ForecastOutput:
        """Model forward via the model's own batch-field contract."""
        return self.model.forward_batch(batch)

    def _batch_loss(self, batch: WindowSet):
        out: ForecastOutput = self._forward(batch)
        kwargs = {}
        if self.model.produces_estimates and out.estimates_fwd is not None:
            validity = out.estimate_validity
            history_mask = batch.m
            if validity is not None:
                history_mask = history_mask * validity[None, :, None, None]
            kwargs = dict(
                estimates_fwd=out.estimates_fwd,
                estimates_bwd=out.estimates_bwd,
                history=batch.x,
                history_mask=history_mask,
            )
        return self.loss_fn(out.prediction, batch.y, batch.y_mask, **kwargs)

    def _resolve_callbacks(
        self, callbacks: Sequence[Callback] | None
    ) -> CallbackList:
        return CallbackList(list(callbacks or []))

    def fit(
        self,
        train: WindowSet,
        val: WindowSet | None = None,
        callbacks: Sequence[Callback] | None = None,
    ) -> TrainingHistory:
        """Train with early stopping; restores the best validation weights.

        ``callbacks`` observe the run (see :mod:`repro.telemetry`); they
        are dispatched in list order at every lifecycle event.
        """
        cfg = self.config
        if train.num_windows == 0:
            raise ValueError(
                "Trainer.fit received an empty training WindowSet (0 windows); "
                "check the split sizes / stride (a loader over it would yield "
                "zero batches and an undefined mean loss)"
            )
        cbs = self._resolve_callbacks(callbacks)
        loader = BatchLoader(
            train, batch_size=cfg.batch_size, shuffle=cfg.shuffle, seed=cfg.seed
        )
        stopper = EarlyStopping(patience=cfg.patience)
        best_state = None
        params = list(self.model.parameters())

        cbs.fit_start(self)
        for epoch in range(cfg.max_epochs):
            start = time.perf_counter()
            cbs.epoch_start(self, epoch)
            epoch_losses = []
            epoch_norms = []
            for batch_index, batch in enumerate(loader):
                self.optimizer.zero_grad()
                loss = self._batch_loss(batch)
                loss.backward()
                norm = clip_grad_norm(params, cfg.grad_clip)
                epoch_norms.append(norm)
                self.optimizer.step()
                loss_value = loss.item()
                epoch_losses.append(loss_value)
                if cbs.callbacks:
                    cbs.batch_end(self, epoch, batch_index, loss_value, norm)
            train_loss = float(np.mean(epoch_losses))
            grad_norm = float(np.mean(epoch_norms))
            self.history.train_loss.append(train_loss)
            self.history.grad_norms.append(grad_norm)

            if val is not None and val.num_windows > 0:
                val_loss = self.evaluate_loss(val)
                self.history.val_loss.append(val_loss)
                monitored = val_loss
            else:
                val_loss = None
                monitored = train_loss
            improved = stopper.step(monitored, epoch)
            if improved:
                best_state = self.model.state_dict()
                self.history.best_epoch = epoch
            seconds = time.perf_counter() - start
            self.history.epoch_seconds.append(seconds)
            if cbs.callbacks:
                cbs.epoch_end(self, epoch, {
                    "train_loss": train_loss,
                    "val_loss": val_loss,
                    "grad_norm": grad_norm,
                    "seconds": seconds,
                    "monitored": monitored,
                    "best": stopper.best,
                    "improved": improved,
                })
            if stopper.should_stop:
                self.history.stopped_early = True
                break

        cbs.fit_end(self, self.history)
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self.history

    # ------------------------------------------------------------------
    def evaluate_loss(self, windows: WindowSet) -> float:
        """Mean loss over a window set without building the graph."""
        if windows.num_windows == 0:
            raise ValueError(
                "Trainer.evaluate_loss received an empty WindowSet (0 windows); "
                "the mean loss over zero batches is undefined"
            )
        loader = BatchLoader(
            windows, batch_size=self.config.batch_size, shuffle=False
        )
        losses = []
        with no_grad():
            for batch in loader:
                losses.append(self._batch_loss(batch).item())
        return float(np.mean(losses))

    def predict(self, windows: WindowSet) -> np.ndarray:
        """Batched inference: stacked predictions ``(B, T_out, N, D_out)``."""
        loader = BatchLoader(
            windows, batch_size=self.config.batch_size, shuffle=False
        )
        chunks = []
        with no_grad():
            for batch in loader:
                out: ForecastOutput = self._forward(batch)
                chunks.append(out.prediction.data)
        return np.concatenate(chunks, axis=0)

    def evaluate(
        self, windows: WindowSet, scaler=None, target_feature: int | None = None
    ) -> EvalReport:
        """Score a window set; returns an :class:`EvalReport`.

        The report carries ``mae``, ``rmse``, ``mape`` (percent, observed
        near-zero targets excluded), ``num_observed`` (scored entries) and
        ``horizon`` (output steps).
        ``scaler`` is a fitted :class:`~repro.datasets.ZScoreScaler`; when
        given, predictions and targets are inverse-transformed first.
        ``target_feature`` restricts metrics to one channel (e.g. average
        speed) — ``None`` scores all channels.
        """
        pred = self.predict(windows)
        target = windows.y
        mask = windows.y_mask
        if scaler is not None:
            pred = scaler.inverse_transform(pred)
            target = scaler.inverse_transform(target)
        if target_feature is not None:
            pred = pred[..., target_feature : target_feature + 1]
            target = target[..., target_feature : target_feature + 1]
            mask = mask[..., target_feature : target_feature + 1]
        return EvalReport(
            mae=masked_mae(pred, target, mask),
            rmse=masked_rmse(pred, target, mask),
            mape=masked_mape(pred, target, mask),
            num_observed=int(np.asarray(mask, dtype=bool).sum()),
            horizon=windows.output_length,
        )
