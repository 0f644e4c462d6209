"""Reverse-mode autodiff substrate (numpy-backed)."""

from .dtype import default_dtype, dtype_policy, set_default_dtype
from .functional import mae, masked_mae, masked_mse, mse, softmax
from .fused import ChebBasis, cheb_propagate
from .gradcheck import gradcheck, numerical_gradient
from .plan import ExecutionPlan, PlanStats, PlanUnsupported, TraceArray, trace
from .tensor import (
    SliceGrad,
    Tensor,
    as_tensor,
    concat,
    enable_grad,
    inference_mode,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    sigmoid_split,
    split,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "SliceGrad",
    "as_tensor",
    "concat",
    "split",
    "sigmoid_split",
    "stack",
    "where",
    "maximum",
    "minimum",
    "default_dtype",
    "set_default_dtype",
    "dtype_policy",
    "ChebBasis",
    "cheb_propagate",
    "no_grad",
    "inference_mode",
    "enable_grad",
    "is_grad_enabled",
    "softmax",
    "mse",
    "mae",
    "masked_mae",
    "masked_mse",
    "gradcheck",
    "numerical_gradient",
    "ExecutionPlan",
    "PlanStats",
    "PlanUnsupported",
    "TraceArray",
    "trace",
]
