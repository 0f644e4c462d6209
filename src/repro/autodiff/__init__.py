"""Reverse-mode autodiff substrate (numpy-backed)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".tensor": (
        "Tensor", "as_tensor", "concat", "inference_mode", "is_grad_enabled", "no_grad",
        "sigmoid_split", "split", "stack", "where",
    ),
    ".dtype": ("default_dtype", "dtype_policy", "set_default_dtype"),
    ".functional": ("masked_mae", "softmax"),
    ".fused": ("ChebBasis", "cheb_propagate"),
    ".gradcheck": ("gradcheck", "numerical_gradient"),
    ".plan": ("ExecutionPlan", "PlanArena", "PlanUnsupported", "trace"),
})
