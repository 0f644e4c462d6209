"""Weight initializers, and the one place models get their generators.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the reproduction is seedable end-to-end (the experiment harness
fixes seeds per run). Models get that generator from :func:`generator`.

Inside :func:`no_draw` (per thread) :func:`generator` returns ``None``
and every drawing initializer returns zeros: a model rebuilt only to
receive a strict ``load_state_dict`` draws nothing, and the process
never imports ``numpy.random``.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from ..autodiff import default_dtype

__all__ = [
    "generator",
    "no_draw",
    "uniform",
    "normal",
    "zeros",
    "ones",
    "xavier_uniform",
    "orthogonal",
]


_scope = threading.local()


def _drawing() -> bool:
    return not getattr(_scope, "no_draw", False)


def generator(seed: int | None = None) -> np.random.Generator | None:
    """``np.random.default_rng(seed)``; ``None`` inside :func:`no_draw`."""
    return np.random.default_rng(seed) if _drawing() else None


@contextlib.contextmanager
def no_draw():
    """Build modules on this thread without drawing: initializers return zeros."""
    outer = _drawing()
    _scope.no_draw = True
    try:
        yield
    finally:
        _scope.no_draw = not outer


def uniform(shape, rng: np.random.Generator, low: float = -0.1, high: float = 0.1) -> np.ndarray:
    """Uniform initialization in ``[low, high)``."""
    if not _drawing():
        return zeros(shape)
    return rng.uniform(low, high, size=shape).astype(default_dtype(), copy=False)


def normal(shape, rng: np.random.Generator, mean: float = 0.0, std: float = 0.01) -> np.ndarray:
    """Gaussian initialization."""
    if not _drawing():
        return zeros(shape)
    return rng.normal(mean, std, size=shape).astype(default_dtype(), copy=False)


def zeros(shape) -> np.ndarray:
    """All-zeros initialization (biases)."""
    return np.zeros(shape, dtype=default_dtype())


def ones(shape) -> np.ndarray:
    """All-ones initialization (gates that should start open)."""
    return np.ones(shape, dtype=default_dtype())


def _fans(shape) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor.

    For 2-D weights this is ``(rows, cols)``; for conv-style kernels the
    receptive-field size multiplies both fans.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation requires >=2 dims, got shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: keeps forward/backward variance balanced."""
    fan_in, fan_out = _fans(shape)
    if not _drawing():
        return zeros(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype(), copy=False)


def orthogonal(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialization (recurrent weight matrices).

    Keeps the spectrum of the recurrent map near 1, which stabilizes the
    long imputation recurrences in RIHGCN.
    """
    if len(shape) != 2:
        raise ValueError("orthogonal init only supports 2-D shapes")
    if not _drawing():
        return zeros(shape)
    rows, cols = shape
    flat = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # make the decomposition unique
    q = q[:rows, :cols] if rows >= cols else q.T[:rows, :cols]
    return (gain * q).astype(default_dtype(), copy=False)
