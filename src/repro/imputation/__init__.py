"""Standalone imputation baselines (RQ2 comparison)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".base": ("Imputer", "check_inputs"),
    ".simple": ("LastObservedImputer", "LinearInterpolationImputer", "MeanImputer"),
    ".knn": ("KNNImputer",),
    ".matrix_factorization": ("MatrixFactorizationImputer",),
    ".tensor_decomposition": ("TensorDecompositionImputer",),
})
