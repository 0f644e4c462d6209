"""Reverse-mode autodiff substrate (numpy-backed)."""

from .dtype import default_dtype, dtype_policy, set_default_dtype
from .functional import masked_mae, softmax
from .fused import ChebBasis, cheb_propagate
from .gradcheck import gradcheck, numerical_gradient
from .plan import ExecutionPlan, PlanArena, PlanUnsupported, trace
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    inference_mode,
    is_grad_enabled,
    no_grad,
    sigmoid_split,
    split,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "split",
    "sigmoid_split",
    "stack",
    "where",
    "default_dtype",
    "set_default_dtype",
    "dtype_policy",
    "ChebBasis",
    "cheb_propagate",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "softmax",
    "masked_mae",
    "gradcheck",
    "numerical_gradient",
    "ExecutionPlan",
    "PlanArena",
    "PlanUnsupported",
    "trace",
]
