"""Reverse-mode automatic differentiation on top of numpy.

This module is the lowest-level substrate of the reproduction: the paper's
model is trained with backpropagation through a recurrent imputation path
(imputed values are *trainable nodes* of the computation graph), so we need a
real autodiff engine, not a collection of hand-derived gradients.

The design follows the classic tape-free dynamic graph approach:

* :class:`Tensor` wraps a ``numpy.ndarray`` and, when produced by a
  differentiable operation, records its parent tensors together with a
  closure that maps the output gradient to per-parent gradients.
* :meth:`Tensor.backward` topologically sorts the reachable graph and
  accumulates gradients into ``.grad`` of every leaf with
  ``requires_grad=True``.

All operations support full numpy broadcasting; gradients are automatically
"unbroadcast" (summed over broadcast axes) on the way back.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .dtype import default_dtype

__all__ = [
    "Tensor",
    "SliceGrad",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "as_tensor",
    "concat",
    "split",
    "sigmoid_split",
    "stack",
    "where",
]


class _GradMode(threading.local):
    """Per-thread grad-mode flag.

    The flag must be thread-local: the serving stack runs no-grad
    forwards on engine/router worker threads while training code may be
    mid-backward on another thread. With a process-global flag, two
    overlapping ``no_grad`` contexts on different threads restore their
    saved values out of order and can leave grad recording disabled for
    every thread — permanently.
    """

    enabled = True  # class attribute = per-thread default


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (this thread).

    Inside the context every op takes a fast dispatch path: no backward
    closure is allocated, no auxiliary arrays (masks, permutations, slice
    tables) are materialised for the backward pass, and the result tensor
    carries no parents. Forward values are bitwise-identical to grad-mode
    outputs — only the tape is skipped. Used during evaluation/prediction
    and by the serving stack so memory stays flat and per-op overhead is
    minimal. The mode is per-thread, so a serving forward on a worker
    thread never disables grad for a concurrent training thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


#: Alias for :func:`no_grad` — the serving stack calls it ``inference_mode``
#: to mirror the torch naming; both take the same fast dispatch path.
inference_mode = no_grad


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or broadcast to match ``shape``.

    When an operand of shape ``shape`` was broadcast up to the shape of
    ``grad`` during the forward pass, the chain rule requires summing the
    incoming gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the original dimension was 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class SliceGrad:
    """A gradient confined to a basic-indexed region of its parent.

    Backward closures of slicing ops (``__getitem__`` with basic indices,
    :func:`split`) return this instead of a dense zero-padded array. The
    backward engine scatters it into the parent's accumulation buffer in
    place — so the four gate slices of an LSTM step share *one* dense
    gradient buffer instead of allocating (and then summing) four
    full-size arrays through ``np.add.at``.
    """

    __slots__ = ("index", "grad")

    def __init__(self, index, grad: np.ndarray):
        self.index = index
        self.grad = grad

    def to_dense(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        buffer = np.zeros(shape, dtype=dtype)
        buffer[self.index] = self.grad
        return buffer


def _is_basic_index(index) -> bool:
    """True when ``index`` triggers numpy basic (view) indexing only."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, (int, np.integer, slice))
        for item in items
    )


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts. Non-float input (ints, bools,
        python lists of ints) is cast to the policy dtype
        (:func:`repro.autodiff.default_dtype`, float32 unless overridden);
        arrays that already have a float dtype keep it.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor when :meth:`backward` is called on a downstream result.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    # Make numpy defer binary operators (ndarray + Tensor, ndarray @ Tensor)
    # to this class's reflected methods instead of elementwise-iterating.
    __array_priority__ = 1000

    def __init__(self, data, requires_grad: bool = False):
        # asanyarray, not asarray: ndarray subclasses must survive the
        # wrap so execution-plan tracing (repro.autodiff.plan) can follow
        # values through Tensor ops.
        arr = np.asanyarray(data)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(default_dtype())
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str = ""

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(data) -> "Tensor":
        """Fast constructor for no-grad op results.

        Every no-grad dispatch used to route through ``__init__`` —
        coercion, dtype-policy check, flag bookkeeping — per op. Callers
        guarantee ``data`` is the result of a numpy op on policy-typed
        operands, so all of that is skipped: the hot serving path
        allocates exactly one Tensor shell per op and nothing else.
        """
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asanyarray(data)
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._op = ""
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op: str,
    ) -> "Tensor":
        """Create the result of a differentiable op, wiring the graph."""
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor. Defaults to
            ones (only sensible for scalar outputs, which is the common case
            for losses).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (recursion would overflow on
        # long recurrent chains such as the bidirectional imputation loop).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Accumulation buffers per pending node. ``owned`` marks buffers
        # this pass allocated itself — those are accumulated into
        # *in place*; anything handed back by a backward closure may
        # alias the closure's saved arrays (or a sibling's gradient), so
        # it is copied on the first accumulation instead of mutated.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        for node in reversed(topo):
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            node_owned = key in owned
            owned.discard(key)
            if node._backward is None:
                # Leaf: accumulate, taking ownership of our own buffers.
                if node.grad is None:
                    node.grad = node_grad if node_owned else node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pkey = id(parent)
                existing = grads.get(pkey)
                if type(pgrad) is SliceGrad:
                    if existing is None:
                        grads[pkey] = pgrad.to_dense(
                            parent.data.shape, parent.data.dtype
                        )
                        owned.add(pkey)
                        continue
                    if pkey not in owned:
                        existing = existing.copy()
                        grads[pkey] = existing
                        owned.add(pkey)
                    existing[pgrad.index] += pgrad.grad
                elif existing is None:
                    grads[pkey] = pgrad
                elif pkey in owned:
                    existing += pgrad
                else:
                    grads[pkey] = existing + pgrad
                    owned.add(pkey)
            # Release this node's saved parents and closure immediately:
            # intermediate activations captured for the backward become
            # collectable as soon as their gradients have been routed,
            # instead of living until the whole pass finishes.
            if node is not self:
                node._parents = ()
                node._backward = None
        # Nodes whose gradient never arrived (dead branches) still hold
        # their tape entries — free those too.
        for node in topo:
            if node is not self:
                node._parents = ()
                node._backward = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data + other.data)
        data = self.data + other.data

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return Tensor._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data - other.data)
        data = self.data - other.data

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data * other.data)
        data = self.data * other.data

        def backward(g, a=self, b=other):
            return (
                _unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape),
            )

        return Tensor._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data / other.data)
        data = self.data / other.data

        def backward(g, a=self, b=other):
            return (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(-self.data)

        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data ** exponent)
        data = self.data ** exponent

        def backward(g, a=self, n=exponent):
            return (g * n * a.data ** (n - 1),)

        return Tensor._make(data, (self,), backward, "pow")

    # Comparison operators return plain boolean arrays (non-differentiable).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.exp(self.data))
        data = np.exp(self.data)

        def backward(g, out=data):
            return (g * out,)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.log(self.data))

        def backward(g, a=self):
            return (g / a.data,)

        return Tensor._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.sqrt(self.data))
        data = np.sqrt(self.data)

        def backward(g, out=data):
            return (g / (2.0 * out),)

        return Tensor._make(data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.tanh(self.data))
        data = np.tanh(self.data)

        def backward(g, out=data):
            return (g * (1.0 - out * out),)

        return Tensor._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = _sigmoid(self.data)
        if not _grad_mode.enabled:
            return Tensor._wrap(data)
        return Tensor._make(data, (self,), _sigmoid_backward(data), "sigmoid")

    def relu(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.where(self.data > 0, self.data, 0.0))
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(g, m=mask):
            return (g * m,)

        return Tensor._make(data, (self,), backward, "relu")

    def __abs__(self) -> "Tensor":
        return self.abs()

    def abs(self) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.abs(self.data))
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(g, s=sign):
            return (g * s,)

        return Tensor._make(data, (self,), backward, "abs")

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        data = np.clip(self.data, low, high)
        if not _grad_mode.enabled:
            return Tensor._wrap(data)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward(g, m=mask):
            return (g * m,)

        return Tensor._make(data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data.sum(axis=axis, keepdims=keepdims))
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, ax=axis, kd=keepdims):
            if ax is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            g_expanded = g if kd else np.expand_dims(g, ax)
            return (np.broadcast_to(g_expanded, a.shape).copy(),)

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data.mean(axis=axis, keepdims=keepdims))
        data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))

        def backward(g, a=self, ax=axis, kd=keepdims, n=count):
            if ax is None:
                return (np.broadcast_to(g / n, a.shape).copy(),)
            g_expanded = g if kd else np.expand_dims(g, ax)
            return (np.broadcast_to(g_expanded / n, a.shape).copy(),)

        return Tensor._make(data, (self,), backward, "mean")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data.max(axis=axis, keepdims=keepdims))
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g, a=self, ax=axis, kd=keepdims, out=data):
            if ax is None:
                mask = (a.data == out).astype(a.data.dtype)
                mask /= mask.sum()
                return (mask * g,)
            out_expanded = out if kd else np.expand_dims(out, ax)
            g_expanded = g if kd else np.expand_dims(g, ax)
            mask = (a.data == out_expanded).astype(a.data.dtype)
            mask /= mask.sum(axis=ax, keepdims=True)
            return (mask * g_expanded,)

        return Tensor._make(data, (self,), backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return (-((-self).max(axis=axis, keepdims=keepdims)))

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = as_tensor(other)
        if not _grad_mode.enabled:
            return Tensor._wrap(np.matmul(self.data, other.data))
        data = np.matmul(self.data, other.data)

        def backward(g, a=self, b=other):
            a_data, b_data = a.data, b.data
            # Promote vectors so the generic batched rules apply, then strip.
            a_vec = a_data.ndim == 1
            b_vec = b_data.ndim == 1
            a2 = a_data[None, :] if a_vec else a_data
            b2 = b_data[:, None] if b_vec else b_data
            g2 = g
            if a_vec and not b_vec:
                g2 = np.expand_dims(g, -2)
            elif b_vec and not a_vec:
                g2 = np.expand_dims(g, -1)
            elif a_vec and b_vec:
                g2 = g.reshape((1, 1))
            grad_a = np.matmul(g2, np.swapaxes(b2, -1, -2))
            grad_b = np.matmul(np.swapaxes(a2, -1, -2), g2)
            if a_vec:
                grad_a = grad_a.reshape(a_data.shape) if grad_a.ndim <= 2 else _unbroadcast(grad_a, (1,) + a_data.shape).reshape(a_data.shape)
            else:
                grad_a = _unbroadcast(grad_a, a_data.shape)
            if b_vec:
                grad_b = grad_b.reshape(b_data.shape) if grad_b.ndim <= 2 else _unbroadcast(grad_b, b_data.shape + (1,)).reshape(b_data.shape)
            else:
                grad_b = _unbroadcast(grad_b, b_data.shape)
            return (grad_a, grad_b)

        return Tensor._make(data, (self, other), backward, "matmul")

    __matmul__ = matmul

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).matmul(self)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data.reshape(shape))
        data = self.data.reshape(shape)

        def backward(g, orig=self.data.shape):
            return (g.reshape(orig),)

        return Tensor._make(data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data.transpose(axes))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g, inv=inverse):
            return (g.transpose(inv),)

        return Tensor._make(data, (self,), backward, "transpose")

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def squeeze(self, axis: int) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.squeeze(self.data, axis=axis))
        data = np.squeeze(self.data, axis=axis)

        def backward(g, ax=axis):
            return (np.expand_dims(g, ax),)

        return Tensor._make(data, (self,), backward, "squeeze")

    def unsqueeze(self, axis: int) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(np.expand_dims(self.data, axis))
        data = np.expand_dims(self.data, axis)

        def backward(g, ax=axis):
            return (np.squeeze(g, axis=ax),)

        return Tensor._make(data, (self,), backward, "unsqueeze")

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        data = np.broadcast_to(self.data, shape)
        if not _grad_mode.enabled:
            return Tensor._wrap(data.copy())

        def backward(g, orig=self.data.shape):
            return (_unbroadcast(g, orig),)

        return Tensor._make(data.copy(), (self,), backward, "broadcast_to")

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows ``numpy.pad`` conventions."""
        data = np.pad(self.data, pad_width)
        if not _grad_mode.enabled:
            return Tensor._wrap(data)
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.data.shape)
        )

        def backward(g, sl=slices):
            return (g[sl],)

        return Tensor._make(data, (self,), backward, "pad")

    def __getitem__(self, index) -> "Tensor":
        if not _grad_mode.enabled:
            return Tensor._wrap(self.data[index])
        data = self.data[index]

        if _is_basic_index(index):
            # Basic indices hit each source element at most once, so the
            # gradient is a plain scatter — return a SliceGrad and let
            # the backward engine write into a shared parent buffer
            # instead of allocating a dense zero array per slice.
            def backward(g, idx=index):
                return (SliceGrad(idx, g),)
        else:
            # Fancy indices may repeat elements; np.add.at handles the
            # required accumulation.
            def backward(g, a=self, idx=index):
                grad = np.zeros_like(a.data)
                np.add.at(grad, idx, g)
                return (grad,)

        return Tensor._make(data, (self,), backward, "getitem")


# ----------------------------------------------------------------------
# Multi-tensor free functions
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    if not _grad_mode.enabled:
        return Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g, offs=offsets, ax=axis, n=len(tensors)):
        grads = []
        for i in range(n):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(int(offs[i]), int(offs[i + 1]))
            grads.append(g[tuple(sl)])
        return grads

    return Tensor._make(data, tuple(tensors), backward, "concat")


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Numerically stable logistic of an array.

    exp(-|x|) is in (0, 1], so one exp call covers both branches without
    clipping.
    """
    t = np.exp(-np.abs(a))
    t += 1.0
    pos = np.divide(1.0, t, out=t)  # 1 / (1 + exp(-|x|)), buffer reused
    return np.where(a >= 0, pos, 1.0 - pos)


def _sigmoid_backward(out: np.ndarray):
    def backward(g, out=out):
        return (g * out * (1.0 - out),)

    return backward


def _split_indices(x: Tensor, sections: int | Sequence[int], axis: int) -> list[tuple]:
    """Basic indices of the chunks :func:`split` cuts ``x`` into."""
    ndim = x.data.ndim
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % ndim
    length = x.data.shape[axis]
    if isinstance(sections, (int, np.integer)):
        if sections < 1 or length % sections != 0:
            raise ValueError(
                f"cannot split axis of length {length} into {sections} equal chunks"
            )
        sizes = [length // sections] * int(sections)
    else:
        sizes = [int(s) for s in sections]
        if any(s < 1 for s in sizes) or sum(sizes) != length:
            raise ValueError(
                f"section sizes {sizes} must be positive and sum to {length}"
            )
    head = (slice(None),) * axis
    offsets = np.cumsum([0] + sizes)
    return [head + (slice(int(a), int(b)),) for a, b in zip(offsets[:-1], offsets[1:])]


def split(x: Tensor, sections: int | Sequence[int], axis: int = -1) -> tuple[Tensor, ...]:
    """Split ``x`` into chunks along ``axis`` — the inverse of :func:`concat`.

    ``sections`` is either a chunk count (the axis must divide evenly,
    like ``numpy.split``) or an explicit sequence of chunk sizes summing
    to the axis length. The forward pass returns zero-copy views; each
    chunk's backward is a :class:`SliceGrad`, so all chunks accumulate
    into one shared parent buffer — this replaces the sliced-``getitem``
    gate reads in :class:`~repro.nn.LSTMCell` (4 dense ``np.add.at``
    scatters per step) with in-place writes into a single buffer.
    """
    x = as_tensor(x)
    outs = []
    for index in _split_indices(x, sections, axis):
        if not _grad_mode.enabled:
            outs.append(Tensor._wrap(x.data[index]))
            continue

        def backward(g, idx=index):
            return (SliceGrad(idx, g),)

        outs.append(Tensor._make(x.data[index], (x,), backward, "split"))
    return tuple(outs)


def sigmoid_split(
    x: Tensor, sections: int | Sequence[int], axis: int = -1
) -> tuple[Tensor, ...]:
    """``tuple(c.sigmoid() for c in split(x, sections, axis))`` with one
    sigmoid evaluation over the whole of ``x``.

    The LSTM gate nonlinearity: one elementwise pass over the ``(B, 4H)``
    pre-activation instead of one per gate block. Each chunk keeps its
    own split-then-sigmoid backward, so values *and* gradients are
    bitwise those of the per-chunk form — the sigmoid derivative is
    taken per chunk in the upstream gradient's dtype, before the split
    scatters it into ``x``'s buffer.
    """
    x = as_tensor(x)
    indices = _split_indices(x, sections, axis)
    if not _grad_mode.enabled:
        data = _sigmoid(x.data)
        return tuple(Tensor._wrap(data[index]) for index in indices)
    # The chunks are made before the sigmoid runs, so a profiler's lap
    # charges the sigmoid to ``sigmoid`` rather than to ``split``.
    chunks = split(x, sections, axis)
    data = _sigmoid(x.data)
    return tuple(
        Tensor._make(data[index], (chunk,), _sigmoid_backward(data[index]), "sigmoid")
        for index, chunk in zip(indices, chunks)
    )


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    if not _grad_mode.enabled:
        return Tensor._wrap(np.stack([t.data for t in tensors], axis=axis))
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g, ax=axis, n=len(tensors)):
        # Views, not copies: the engine only materialises a parent's
        # slice if that parent actually needs gradient accumulation.
        rolled = np.moveaxis(g, ax, 0)
        return [rolled[i] for i in range(n)]

    return Tensor._make(data, tuple(tensors), backward, "stack")


def where(condition, a, b) -> Tensor:
    """Differentiable elementwise select; ``condition`` is a constant mask."""
    cond = condition.data if isinstance(condition, Tensor) else np.asanyarray(condition)
    if cond.dtype != np.bool_:
        # Skip the cast when the caller already passes a boolean mask
        # (the common ``m > 0`` case): ``astype`` always copies, and the
        # copy would both cost an allocation per call on the serving hot
        # path and strip tracing provenance from the mask.
        cond = cond.astype(bool)
    a = as_tensor(a)
    b = as_tensor(b)
    if not _grad_mode.enabled:
        return Tensor._wrap(np.where(cond, a.data, b.data))
    data = np.where(cond, a.data, b.data)

    def backward(g, c=cond, ta=a, tb=b):
        return (
            _unbroadcast(np.where(c, g, 0.0), ta.shape),
            _unbroadcast(np.where(c, 0.0, g), tb.shape),
        )

    return Tensor._make(data, (a, b), backward, "where")

