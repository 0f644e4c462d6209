"""Model interfaces.

Two families share the experiment harness:

* **Neural forecasters** (:class:`NeuralForecaster`) — autodiff Modules
  trained by :class:`repro.training.Trainer`. Their forward pass takes a
  window batch and returns a :class:`ForecastOutput` (prediction plus,
  for imputation-based models, the step-ahead estimates the joint loss
  needs).
* **Statistical forecasters** (:class:`StatisticalForecaster`) — HA and
  VAR, fit in closed form on the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor
from ..nn import Module

__all__ = ["ForecastOutput", "NeuralForecaster", "StatisticalForecaster"]


@dataclass
class ForecastOutput:
    """Forward-pass result of a neural forecaster.

    Attributes
    ----------
    prediction:
        ``(B, T_out, N, D_out)`` forecast in the model's (scaled) units.
    estimates_fwd / estimates_bwd:
        ``(B, T_in, N, D)`` step-ahead history estimates from the forward
        and backward recurrent passes (``None`` for models without the
        recurrent imputation mechanism).
    estimate_validity:
        ``(T_in,)`` 0/1 weights marking history steps where both passes
        produced an estimate (the first forward and last backward steps
        start from zero state and are excluded from Eq. 6).
    """

    prediction: Tensor
    estimates_fwd: Tensor | None = None
    estimates_bwd: Tensor | None = None
    estimate_validity: np.ndarray | None = None


class NeuralForecaster(Module):
    """Base class for trainable forecasters.

    Subclasses implement ``forward(x, m, steps_of_day) -> ForecastOutput``
    where ``x``/``m`` are ``(B, T_in, N, D)`` arrays (``x`` zero-filled at
    missing entries) and ``steps_of_day`` is ``(B, T_in)``.

    Models consuming additional window fields (e.g. ASTGCN's periodic
    segments) override :meth:`forward_batch`, which is the entry point
    the training harness uses — each model declares its own batch-field
    contract instead of the trainer special-casing model families.
    """

    #: whether the model consumes the observation mask (imputation models)
    uses_mask: bool = False
    #: whether forward() returns history estimates for the joint loss
    produces_estimates: bool = False
    #: whether forward() takes x_daily/m_daily periodic segments (ASTGCN)
    uses_periodic: bool = False

    def __init__(self, input_length: int, output_length: int, num_nodes: int,
                 num_features: int, output_features: int | None = None):
        super().__init__()
        self.input_length = input_length
        self.output_length = output_length
        self.num_nodes = num_nodes
        self.num_features = num_features
        self.output_features = output_features if output_features is not None else num_features

    def forward(self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray) -> ForecastOutput:
        raise NotImplementedError

    def forward_batch(self, batch) -> ForecastOutput:
        """Forward pass from a :class:`~repro.datasets.WindowSet` batch.

        The default consumes the universal fields (``x``, ``m``,
        ``steps_of_day``); models that read extra window fields override
        this to pick them off the batch themselves.
        """
        return self(batch.x, batch.m, batch.steps_of_day)

    # ------------------------------------------------------------------
    # Traced execution plans (repro.autodiff.plan)
    # ------------------------------------------------------------------
    def plan_inputs(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> tuple[dict[str, np.ndarray], tuple] | None:
        """Split a request into a traceable core input set and a guard.

        Returns ``(inputs, signature)`` or ``None`` when the model does
        not support traced execution (the default — serving then stays
        on the eager path).

        ``inputs`` maps :meth:`plan_forward` keyword names to
        policy-dtype arrays; anything data-dependent that the tracer
        cannot follow (step-of-day lookups, graph-interval weights) must
        be computed *here*, eagerly, and passed in as a plan input.
        ``signature`` is a hashable fingerprint of every value that
        steers control flow inside :meth:`plan_forward` (``()`` when
        nothing does, as for every model here): plans are cached per
        ``(shape, signature)`` so a branch taken differently forces a
        fresh trace instead of replaying a stale one.
        """
        return None

    def plan_forward(self, **inputs) -> np.ndarray:
        """The traceable forward core over :meth:`plan_inputs` arrays.

        Must be pure array math of its inputs (given a fixed signature)
        and return the scaled prediction as an ndarray. Only models that
        override :meth:`plan_inputs` need to implement this.
        """
        raise NotImplementedError


class StatisticalForecaster:
    """Base class for closed-form baselines (HA, VAR).

    ``fit`` consumes the raw training series; ``predict`` maps a window
    batch to forecasts, all in numpy.
    """

    def fit(self, data: np.ndarray, mask: np.ndarray) -> "StatisticalForecaster":
        """Fit on training history ``(T, N, D)`` with observation mask."""
        raise NotImplementedError

    def predict(
        self, x: np.ndarray, m: np.ndarray, output_length: int
    ) -> np.ndarray:
        """Forecast ``(B, T_out, N, D)`` from window batches ``(B, T_in, N, D)``."""
        raise NotImplementedError
