"""Loss modules used by the training pipeline.

The paper's total objective (Section III-F) is::

    L = L_c + lambda * L_m

where ``L_c`` is the forecast MAE (Eq. 7) and ``L_m`` the imputation loss
(Eq. 6): MAE of step-ahead estimates on *observed* entries plus a
forward/backward consistency penalty on *missing* entries.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, as_tensor, masked_mae
from .module import Module

__all__ = ["MaskedMAELoss", "ImputationConsistencyLoss", "JointLoss"]


class MaskedMAELoss(Module):
    """MAE restricted to entries where ``mask == 1``."""

    def forward(self, pred: Tensor, target, mask) -> Tensor:
        return masked_mae(pred, target, mask)


class ImputationConsistencyLoss(Module):
    """The paper's Eq. (6).

    ``estimates_fwd`` / ``estimates_bwd`` are the step-ahead estimates
    X̂ from the forward and backward recurrent passes; ``target`` is the raw
    (incomplete) data; ``mask`` is 1 where observed.

    * On observed entries: MAE between the bidirectional mean estimate and
      the observation.
    * On missing entries: MAE between the two directions (consistency).
    """

    def forward(
        self,
        estimates_fwd: Tensor,
        estimates_bwd: Tensor,
        target,
        mask,
    ) -> Tensor:
        target_t = as_tensor(target)
        mask_t = as_tensor(mask)
        mean_estimate = (estimates_fwd + estimates_bwd) * 0.5
        observed_err = masked_mae(mean_estimate, target_t, mask_t)
        inverse = Tensor(1.0 - mask_t.data)
        consistency = masked_mae(estimates_fwd, estimates_bwd, inverse)
        return observed_err + consistency


class JointLoss(Module):
    """Total objective ``L = L_c + lambda * L_m``.

    Parameters
    ----------
    imputation_weight:
        The paper's λ hyper-parameter (Fig. 5 sweeps it; good basin
        (0.001, 5), default 1.0).
    """

    def __init__(self, imputation_weight: float = 1.0):
        super().__init__()
        if imputation_weight < 0:
            raise ValueError(f"imputation weight must be >= 0, got {imputation_weight}")
        self.imputation_weight = imputation_weight
        self.prediction_loss = MaskedMAELoss()
        self.imputation_loss = ImputationConsistencyLoss()

    def forward(
        self,
        prediction: Tensor,
        target,
        target_mask,
        estimates_fwd: Tensor | None = None,
        estimates_bwd: Tensor | None = None,
        history: np.ndarray | None = None,
        history_mask: np.ndarray | None = None,
    ) -> Tensor:
        loss = self.prediction_loss(prediction, target, target_mask)
        if (
            self.imputation_weight > 0
            and estimates_fwd is not None
            and estimates_bwd is not None
            and history is not None
            and history_mask is not None
        ):
            loss = loss + self.imputation_loss(
                estimates_fwd, estimates_bwd, history, history_mask
            ) * self.imputation_weight
        return loss
