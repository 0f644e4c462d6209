"""Module/Parameter abstractions mirroring the familiar torch.nn API surface.

The paper's models (RIHGCN and all learned baselines) are expressed as
compositions of Modules so that parameter collection and state
(de)serialization work uniformly across the whole model zoo.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Sequence
import warnings

import numpy as np

from ..autodiff import Tensor, default_dtype, stack
from ..errors import MissingParameterError, ShapeMismatchError

__all__ = ["Parameter", "Module", "stack_modules"]


def _and_more(found: list) -> str:
    return f" (and {len(found) - 1} more)" if len(found) > 1 else ""


class Parameter(Tensor):
    """A Tensor registered as a trainable parameter of a Module.

    Parameters are always stored in the policy dtype
    (:func:`repro.autodiff.default_dtype`) — the guarantee that makes
    "no silent float64 upcasts in the training loop" auditable at one
    place instead of every initializer call site.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        want = default_dtype()
        if self.data.dtype.kind == "f" and self.data.dtype != want:
            self.data = self.data.astype(want)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for :meth:`parameters`
    and :meth:`state_dict`. Modules hold no train/eval mode: no layer
    behaves differently at inference, and gradient recording is switched
    by :func:`repro.autodiff.no_grad` instead.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter exactly once (depth-first)."""
        seen: set[int] = set()
        for _name, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # State (de)serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter's data, keyed by dotted name."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        Every entry is checked before any parameter changes, so a failed
        load leaves the model as it was. A missing entry raises
        :class:`~repro.errors.MissingParameterError` and a wrong shape
        :class:`~repro.errors.ShapeMismatchError`; each names the first
        offending parameter and how many more are affected. Values whose
        float dtype differs from the parameter's (e.g. a float64 state
        loaded under the float32 policy) are cast, with a single warning
        naming the conversion.
        """
        expected = list(self.named_parameters())
        missing = [name for name, _param in expected if name not in state]
        if missing:
            raise MissingParameterError(
                f"state_dict is missing parameter {missing[0]!r}" + _and_more(missing)
            )
        values = {name: np.asarray(state[name]) for name, _param in expected}
        mismatched = [
            (name, param.shape, values[name].shape)
            for name, param in expected
            if values[name].shape != param.shape
        ]
        if mismatched:
            name, want, got = mismatched[0]
            raise ShapeMismatchError(
                f"shape mismatch for {name!r}: expected {want}, got {got}"
                + _and_more(mismatched)
            )
        cast_from: set[str] = set()
        for name, param in expected:
            value = values[name]
            if value.dtype.kind == "f" and value.dtype != param.data.dtype:
                cast_from.add(f"{value.dtype}->{param.data.dtype}")
            param.data = value.astype(param.data.dtype).copy()
        if cast_from:
            warnings.warn(
                "load_state_dict cast parameter dtypes "
                f"({', '.join(sorted(cast_from))}); the weights were "
                "saved under a different dtype policy — re-export them to "
                "silence this",
                UserWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {repr(module).replace(chr(10), chr(10) + '  ')}"
            for name, module in self._modules.items()
        ]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


def stack_modules(modules: Sequence[Module], rank: int) -> Module:
    """Run structurally identical modules as one module on a leading axis.

    Returns a shallow copy of ``modules[0]`` whose every parameter is the
    :func:`~repro.autodiff.stack` of the matching parameters of all
    ``D = len(modules)`` modules, shaped ``(D, 1, ..., 1, *shape)`` with
    ``rank`` axes so it broadcasts against rank-``rank`` inputs whose
    leading axis is ``D``. Children are stacked the same way, so the
    copy's unchanged ``forward`` maps ``(D, ...)`` inputs to ``(D, ...)``
    outputs, slice ``d`` computed with ``modules[d]``'s parameters —
    every per-slice matmul and elementwise op is the one ``modules[d]``
    would run on its own. Gradients flow back through the stack to each
    module's own parameters; the copy owns no parameters itself.

    Non-parameter state (e.g. a ``ChebConv``'s Chebyshev basis) comes
    from ``modules[0]``: stack only modules built from the same config.
    """
    first = modules[0]
    count = len(modules)
    copy = object.__new__(type(first))
    copy.__dict__.update(first.__dict__)
    copy.__dict__["_parameters"] = OrderedDict()
    for name, param in first._parameters.items():
        stacked = stack([module._parameters[name] for module in modules])
        ones = rank - 1 - param.ndim
        if ones > 0:
            stacked = stacked.reshape((count,) + (1,) * ones + param.shape)
        copy.__dict__[name] = stacked
    children = OrderedDict(
        (name, stack_modules([module._modules[name] for module in modules], rank))
        for name in first._modules
    )
    copy.__dict__["_modules"] = children
    copy.__dict__.update(children)
    return copy
