"""Traced execution plans for the serving hot path.

The no-grad forward of a serving model is pure numpy with *static*
shapes: the same ~1.5k small array ops run for every request, and the
per-op Python dispatch (Tensor wrapping, ufunc dispatch, view
bookkeeping, allocator churn) dominates wall time at serving scale.
This module removes that overhead by recording the forward **once** and
compiling it into a replayable :class:`ExecutionPlan`:

* :func:`trace` runs a callable over :class:`TraceArray` inputs — an
  ``ndarray`` subclass that intercepts every ufunc call,
  ``__array_function__`` dispatch and shape method, computes on the base
  arrays (so the traced run returns bitwise-normal results) and records
  a flat, topologically ordered op list on a per-trace :class:`_Tape`.
* :meth:`_Tape.compile` lowers the tape into the plan: dead code behind
  the requested output is eliminated, weight-only subexpressions are
  already folded (they ran eagerly during tracing and enter the plan as
  baked constants), views are materialised **once** against arena
  buffers, and every remaining compute step becomes a prebound numpy
  call writing into a liveness-managed buffer arena. A ufunc step takes
  its ``out`` buffer as its last positional argument, so steps share
  one empty kwargs mapping instead of keeping a dict each.
* A :class:`PlanArena` pools those buffers by ``(shape, dtype)`` and
  can be shared by many plans: the k-th fresh buffer a plan needs for a
  key is the arena's k-th buffer for that key, so plans replayed one at
  a time (the serving engine keeps one plan per input shape and
  signature) hold the buffers of their largest member, not the sum.
  The arena also holds the one lock that serialises their replays.
  :func:`trace` without an arena gives the plan a private one.
* :meth:`ExecutionPlan.replay` copies fresh inputs into the arena and
  runs the prebound steps — zero graph construction, zero Tensor
  allocation, and near-zero Python overhead per op.

Safety model: anything the tracer cannot prove it captured — an
unsupported ufunc method, a write into an aliased buffer, an array of
unknown provenance flowing back into traced math — *poisons* the tape
and compilation fails with :class:`PlanUnsupported`; callers fall back
to the eager path. Compilation additionally dry-runs the plan against
the trace inputs and requires bitwise equality with the traced result.
Data-dependent *control flow* (e.g. branching on a mask) is invisible
to any tracer; callers guard it by keying plans on a model-provided
signature (see ``NeuralForecaster.plan_inputs``) and by validating a
warm replay against the eager forward before trusting a plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .tensor import no_grad

__all__ = [
    "ExecutionPlan",
    "PlanArena",
    "PlanStats",
    "PlanUnsupported",
    "TraceArray",
    "trace",
    "taint",
]


class PlanUnsupported(RuntimeError):
    """The traced program cannot be compiled into an execution plan."""


#: the kwargs of every step that needs none; never mutated
_NO_KWARGS: dict = {}


class PlanArena:
    """Replay buffers pooled by ``(shape, dtype)``, and the replay lock.

    Every plan compiled into one arena draws its buffers from the same
    pools: a plan's k-th fresh buffer of a key is the arena's k-th
    buffer of that key, allocated only the first time any plan asks for
    it. Plans sharing an arena therefore overwrite each other's
    buffers, which is safe because :meth:`ExecutionPlan.replay` holds
    :attr:`lock` and a ``copy=False`` output is consumed before the
    next replay.
    """

    def __init__(self):
        self._pools: dict[tuple, list[np.ndarray]] = {}
        self.lock = threading.Lock()
        self.nbytes = 0  # every buffer the arena holds

    def buffer(self, shape, dtype, index: int) -> np.ndarray:
        """The ``index``-th buffer of ``(shape, dtype)``, made if missing."""
        pool = self._pools.setdefault((tuple(shape), np.dtype(dtype)), [])
        while len(pool) <= index:
            pool.append(np.empty(shape, dtype=dtype))
            self.nbytes += pool[-1].nbytes
        return pool[index]


class _Ref:
    """A reference to a tape slot inside a recorded argument tree."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"%{self.slot}"


class _Slot:
    """One SSA value produced during the trace."""

    __slots__ = ("index", "shape", "dtype", "kind", "name", "root", "has_view")

    def __init__(self, index: int, shape, dtype, kind: str, name: str = "",
                 root: int | None = None):
        self.index = index
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.kind = kind  # "input" | "op" | "view" | "inplace"
        self.name = name
        self.root = index if root is None else root
        self.has_view = False


class _Step:
    """One recorded operation: ``out = fn(*args, **kwargs)``."""

    __slots__ = ("fnspec", "args", "kwargs", "out", "view_src", "inplace", "label")

    def __init__(self, fnspec, args, kwargs, out: int, *,
                 view_src: int | None = None, inplace: bool = False,
                 label: str = ""):
        self.fnspec = fnspec      # ("ufunc", uf, method) | ("func", f) | ("method", name)
        self.args = args          # tree of _Ref / literals
        self.kwargs = kwargs
        self.out = out
        self.view_src = view_src  # slot the output is a view of (else None)
        self.inplace = inplace    # output aliases the buffer of args' slot
        self.label = label


@dataclass
class PlanStats:
    """Compile-time facts about a plan, surfaced by ``repro plan``.

    A plan's cold cost is ``trace_seconds`` (the recorded forward through
    :class:`TraceArray` dispatch) plus ``compile_seconds`` (lowering the
    tape and the replay check).
    """

    ops_recorded: int = 0
    steps: int = 0
    view_steps: int = 0
    inplace_steps: int = 0
    dce_removed: int = 0
    folded_constants: int = 0
    constant_bytes: int = 0
    scalar_escapes: int = 0
    buffers: int = 0
    arena_bytes: int = 0
    naive_bytes: int = 0
    compile_seconds: float = 0.0
    trace_seconds: float = 0.0
    input_shapes: dict = field(default_factory=dict)
    output_shape: tuple = ()
    output_dtype: str = ""

    def as_dict(self) -> dict:
        return {
            "ops_recorded": self.ops_recorded,
            "steps": self.steps,
            "view_steps": self.view_steps,
            "inplace_steps": self.inplace_steps,
            "dce_removed": self.dce_removed,
            "folded_constants": self.folded_constants,
            "constant_bytes": self.constant_bytes,
            "scalar_escapes": self.scalar_escapes,
            "buffers": self.buffers,
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "compile_seconds": self.compile_seconds,
            "trace_seconds": self.trace_seconds,
            "input_shapes": {k: list(v) for k, v in self.input_shapes.items()},
            "output_shape": list(self.output_shape),
            "output_dtype": self.output_dtype,
        }


# ----------------------------------------------------------------------
# Tape
# ----------------------------------------------------------------------
class _Tape:
    """Recording of one forward pass at numpy granularity."""

    def __init__(self):
        self.slots: list[_Slot] = []
        self.steps: list[_Step] = []
        self.inputs: dict[str, int] = {}
        self.poisoned: str | None = None
        self.scalar_escapes = 0

    # -- recording -----------------------------------------------------
    def poison(self, reason: str) -> None:
        if self.poisoned is None:
            self.poisoned = reason

    def new_slot(self, arr: np.ndarray, kind: str, name: str = "",
                 root: int | None = None) -> _Slot:
        slot = _Slot(len(self.slots), arr.shape, arr.dtype, kind, name, root)
        self.slots.append(slot)
        return slot

    def add_input(self, name: str, value: np.ndarray) -> "TraceArray":
        arr = np.array(value, copy=True)  # trace must not mutate caller data
        slot = self.new_slot(arr, "input", name=name)
        self.inputs[name] = slot.index
        return _wrap(arr, self, slot.index)

    def record(self, fnspec, args, kwargs, result: np.ndarray, *,
               view_src: int | None = None, inplace_slot: int | None = None,
               label: str = "") -> int:
        """Append a step; returns the output slot index."""
        if inplace_slot is not None:
            target = self.slots[inplace_slot]
            # In-place writes are only safe when the target owns its whole
            # buffer (not a view) and nothing else aliases that buffer.
            if (target.kind == "view" or target.has_view
                    or self.slots[target.root].has_view):
                self.poison("in-place write into an aliased buffer")
            slot = self.new_slot(result, "inplace", root=target.root)
            step = _Step(fnspec, args, kwargs, slot.index, inplace=True,
                         label=label)
        elif view_src is not None:
            src = self.slots[view_src]
            slot = self.new_slot(result, "view", root=src.root)
            self.slots[src.root].has_view = True
            step = _Step(fnspec, args, kwargs, slot.index, view_src=view_src,
                         label=label)
        else:
            slot = self.new_slot(result, "op")
            step = _Step(fnspec, args, kwargs, slot.index, label=label)
        self.steps.append(step)
        return slot.index

    # -- compilation ---------------------------------------------------
    def compile(self, output_slot: int,
                trace_inputs: dict[str, np.ndarray],
                trace_output: np.ndarray,
                arena: PlanArena) -> "ExecutionPlan":
        started = time.perf_counter()
        if self.poisoned:
            raise PlanUnsupported(f"trace poisoned: {self.poisoned}")
        stats = PlanStats(ops_recorded=len(self.steps),
                          scalar_escapes=self.scalar_escapes)

        # Dead code elimination: walk back from the output.
        needed: set[int] = {output_slot}
        keep: list[_Step] = []
        producer = {step.out: step for step in self.steps}
        # Resolve transitive needs in reverse program order.
        for step in reversed(self.steps):
            if step.out not in needed:
                continue
            keep.append(step)
            for ref in _iter_refs((step.args, step.kwargs)):
                needed.add(ref.slot)
        keep.reverse()
        stats.dce_removed = len(self.steps) - len(keep)

        # A view/inplace output keeps its source's *whole root group*
        # alive: extend `needed` with roots so liveness is computed per
        # arena buffer, not per SSA name.
        root_of = {s.index: s.root for s in self.slots}

        # Liveness per root: last step index (in `keep` order) at which
        # any slot of the group is consumed.
        last_use: dict[int, int] = {}
        for i, step in enumerate(keep):
            for ref in _iter_refs((step.args, step.kwargs)):
                last_use[root_of[ref.slot]] = i
            if step.inplace or step.view_src is not None:
                last_use[root_of[step.out]] = max(
                    last_use.get(root_of[step.out], i), i)
        out_root = root_of[output_slot]
        last_use[out_root] = len(keep) + 1  # never recycled
        for name, idx in self.inputs.items():
            last_use.setdefault(root_of[idx], -1)
        # Roots whose last use is each step, in `last_use` insertion
        # order: the order freed buffers join the pool decides which one
        # a later allocation pops, so the arena layout depends on it.
        dying: dict[int, list[int]] = {}
        for root, last in last_use.items():
            dying.setdefault(last, []).append(root)

        # Arena assignment: exact (shape, dtype) buffer pooling. A buffer
        # this plan has not used yet is the arena's next one for its key.
        buffers: dict[int, np.ndarray] = {}       # root -> buffer
        pool: dict[tuple, list[np.ndarray]] = {}  # (shape, dtype) -> free
        fresh: dict[tuple, int] = {}             # (shape, dtype) -> taken
        allocated: dict[int, np.ndarray] = {}    # id -> every arena buffer

        def take(shape, dtype) -> np.ndarray:
            key = (tuple(shape), np.dtype(dtype))
            index = fresh.get(key, 0)
            fresh[key] = index + 1
            buf = arena.buffer(shape, dtype, index)
            allocated[id(buf)] = buf
            return buf

        def alloc(shape, dtype, root: int) -> np.ndarray:
            free = pool.get((tuple(shape), np.dtype(dtype)))
            buf = free.pop() if free else take(shape, dtype)
            buffers[root] = buf
            return buf

        def release(step_index: int) -> None:
            for root in dying.pop(step_index, ()):
                if root in buffers:
                    buf = buffers[root]
                    if self.slots[root].kind != "view":
                        pool.setdefault(
                            (buf.shape, np.dtype(buf.dtype)), []).append(buf)

        input_buffers: dict[str, np.ndarray] = {}
        for name, idx in self.inputs.items():
            slot = self.slots[idx]
            buf = alloc(slot.shape, slot.dtype, idx)
            input_buffers[name] = buf

        # Resolve each slot to its concrete arena array (buffer or view).
        arrays: dict[int, np.ndarray] = dict(buffers)
        constants: dict[int, int] = {}

        def resolve(tree):
            if isinstance(tree, _Ref):
                return arrays[tree.slot]
            if isinstance(tree, tuple):
                return tuple(resolve(t) for t in tree)
            if isinstance(tree, list):
                return [resolve(t) for t in tree]
            if isinstance(tree, dict):
                return {k: resolve(v) for k, v in tree.items()}
            if isinstance(tree, np.ndarray):
                if id(tree) not in constants:
                    constants[id(tree)] = tree.nbytes
            return tree

        exec_steps: list[tuple[Callable, tuple, dict]] = []
        for i, step in enumerate(keep):
            slot = self.slots[step.out]
            args = resolve(step.args)
            kwargs = resolve(step.kwargs)
            fn = _resolve_callable(step.fnspec, args)
            if step.view_src is not None:
                # Materialise the view once, against arena buffers. If the
                # same call no longer yields a view (e.g. reshape of a
                # non-contiguous buffer), demote to a per-replay copy.
                src = arrays[step.view_src]
                result = fn(*args, **kwargs)
                if result.base is not None and np.may_share_memory(result, src):
                    arrays[step.out] = result
                    stats.view_steps += 1
                    release(i)
                    continue
                # Demoted buffers are never pooled: the original liveness
                # pass charged this slot's uses to the old root group, so
                # holding the buffer for the whole replay is the safe
                # (merely conservative) choice.
                out = take(slot.shape, slot.dtype)
                arrays[step.out] = out
                exec_steps.append(
                    (_make_copy_step(out, fn, args, kwargs), (), _NO_KWARGS))
                stats.naive_bytes += out.nbytes
                release(i)
                continue
            if step.inplace:
                target = buffers[root_of[step.out]]
                arrays[step.out] = target
                exec_steps.append(_out_step(step.fnspec, fn, args, kwargs, target))
                stats.inplace_steps += 1
                release(i)
                continue
            out = alloc(slot.shape, slot.dtype, step.out)
            arrays[step.out] = out
            stats.naive_bytes += out.nbytes
            if _supports_out(step.fnspec):
                exec_steps.append(_out_step(step.fnspec, fn, args, kwargs, out))
            else:
                exec_steps.append(
                    (_make_copy_step(out, fn, args, kwargs), (), _NO_KWARGS))
            release(i)

        output_array = arrays.get(output_slot)
        if output_array is None:
            raise PlanUnsupported("output slot was never materialised")

        stats.steps = len(exec_steps)
        stats.folded_constants = len(constants)
        stats.constant_bytes = sum(constants.values())
        stats.buffers = len(allocated)
        stats.arena_bytes = sum(b.nbytes for b in allocated.values())
        stats.input_shapes = {
            name: self.slots[idx].shape for name, idx in self.inputs.items()
        }
        stats.output_shape = tuple(output_array.shape)
        stats.output_dtype = str(output_array.dtype)

        plan = ExecutionPlan(input_buffers, exec_steps, output_array, stats,
                             arena)
        # Compile-time proof: replaying the trace inputs must reproduce
        # the traced output bit for bit, otherwise the lowering is wrong.
        # The copy keeps the check valid if a plan sharing the arena
        # replays before the comparison.
        check = plan.replay(trace_inputs)
        if not _bitwise_equal(check, trace_output):
            raise PlanUnsupported("compiled plan diverged from traced forward")
        stats.compile_seconds = time.perf_counter() - started
        return plan


def _iter_refs(tree):
    if isinstance(tree, _Ref):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _iter_refs(item)
    elif isinstance(tree, dict):
        for item in tree.values():
            yield from _iter_refs(item)


def _resolve_callable(fnspec, args) -> Callable:
    kind = fnspec[0]
    if kind == "ufunc":
        ufunc, method = fnspec[1], fnspec[2]
        return ufunc if method == "__call__" else getattr(ufunc, method)
    if kind == "func":
        return fnspec[1]
    if kind == "method":
        # args[0] is the bound array; close over its method.
        return _MethodCall(fnspec[1])
    raise PlanUnsupported(f"unknown step kind {kind!r}")


class _MethodCall:
    """Replayable ``arr.<name>(*args)`` step (arr arrives as args[0])."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, arr, *args, **kwargs):
        return getattr(arr, self.name)(*args, **kwargs)


def _supports_out(fnspec) -> bool:
    kind = fnspec[0]
    if kind == "ufunc":
        return fnspec[2] in ("__call__", "reduce")
    if kind == "func":
        return fnspec[1] in (np.concatenate, np.stack)
    return False


def _out_step(fnspec, fn: Callable, args: tuple, kwargs: dict,
              out: np.ndarray) -> tuple[Callable, tuple, dict]:
    """A step writing into ``out``: positionally for a ufunc call."""
    if fnspec[0] == "ufunc" and fnspec[2] == "__call__":
        return fn, args + (out,), kwargs or _NO_KWARGS
    return fn, args, {**kwargs, "out": out}


def _make_copy_step(out: np.ndarray, fn: Callable, args: tuple, kwargs: dict):
    def run(_out=out, _fn=fn, _args=args, _kwargs=kwargs):
        np.copyto(_out, _fn(*_args, **_kwargs), casting="no")

    return run


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a, b, equal_nan=True))


# ----------------------------------------------------------------------
# Execution plan
# ----------------------------------------------------------------------
class ExecutionPlan:
    """A compiled forward pass: prebound numpy steps over a buffer arena.

    ``replay`` is not reentrant — the arena is shared state, possibly
    with other plans — so the arena's lock serialises the replays of
    every plan compiled into it. Callers that already serialise forwards
    (the serving engine holds its own forward lock) pay one uncontended
    acquire.
    """

    def __init__(self, input_buffers: dict[str, np.ndarray],
                 steps: list[tuple[Callable, tuple, dict]],
                 output: np.ndarray, stats: PlanStats, arena: PlanArena):
        self._inputs = input_buffers
        self._steps = steps
        self._output = output
        self.stats = stats
        self.arena = arena

    def replay(self, inputs: dict[str, np.ndarray], *, copy: bool = True) -> np.ndarray:
        """Execute the plan on fresh inputs.

        With ``copy=False`` the returned array aliases the arena and is
        only valid until the next replay of any plan sharing the arena;
        the serving engine consumes it immediately under its forward lock
        and opts in to skip the copy.
        """
        with self.arena.lock:
            for name, buf in self._inputs.items():
                value = inputs[name]
                if value.shape != buf.shape:
                    raise ValueError(
                        f"plan input {name!r} expects shape {buf.shape}, "
                        f"got {value.shape}"
                    )
                np.copyto(buf, value, casting="no")
            for fn, args, kwargs in self._steps:
                fn(*args, **kwargs)
            return self._output.copy() if copy else self._output


# ----------------------------------------------------------------------
# TraceArray
# ----------------------------------------------------------------------
def _wrap(arr: np.ndarray, tape: _Tape, slot: int) -> "TraceArray":
    view = arr.view(TraceArray)
    view._tape = tape
    view._slot = slot
    return view


def _find_tape(*trees) -> _Tape | None:
    for tree in trees:
        for item in _iter_trace_arrays(tree):
            if item._tape is not None:
                return item._tape
    return None


def _iter_trace_arrays(tree):
    if isinstance(tree, TraceArray):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _iter_trace_arrays(item)
    elif isinstance(tree, dict):
        for item in tree.values():
            yield from _iter_trace_arrays(item)


def taint(value, reason: str) -> None:
    """Poison the trace owning ``value`` (if any).

    Called from code paths the tracer cannot capture (e.g. scipy sparse
    products) so the plan fails closed instead of baking stale data.
    """
    for item in _iter_trace_arrays(value):
        if item._tape is not None:
            item._tape.poison(reason)
            return


class TraceArray(np.ndarray):
    """An ndarray that records every operation consuming it on a tape.

    Results of intercepted operations carry the tape forward; arrays
    that acquire the subclass through an uninstrumented path (C-level
    casts, templates) have ``_slot is None`` and poison the tape when
    consumed — the plan then fails closed and callers run eagerly.
    """

    def __array_finalize__(self, obj):
        self._tape = getattr(obj, "_tape", None)
        self._slot = None  # unknown provenance unless set by the tracer

    # -- spec building -------------------------------------------------
    def _spec(self, tape: _Tape, tree):
        """Base-array tree + recorded spec; poisons on unknown arrays."""
        if isinstance(tree, TraceArray):
            base = tree.view(np.ndarray)
            if tree._tape is not tape or tree._slot is None:
                tape.poison("array of unknown provenance consumed by trace")
                return base, base
            return base, _Ref(tree._slot)
        if isinstance(tree, (tuple, list)):
            pairs = [self._spec(tape, item) for item in tree]
            cls = type(tree)
            return cls(p[0] for p in pairs), cls(p[1] for p in pairs)
        if isinstance(tree, dict):
            pairs = {k: self._spec(tape, v) for k, v in tree.items()}
            return ({k: v[0] for k, v in pairs.items()},
                    {k: v[1] for k, v in pairs.items()})
        return tree, tree

    # -- ufunc interception --------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if out is not None:
            out = tuple(out)
            if all(o is None for o in out):
                out = None
        tape = self._tape if self._tape is not None else _find_tape(
            inputs, out, kwargs)
        # Every traced operand (a ``where=`` mask too) must reach numpy as
        # a base array, or the call dispatches back here without end.
        base_inputs, spec_inputs = self._spec(tape or _Tape(), tuple(inputs))
        base_kwargs, spec_kwargs = self._spec(tape or _Tape(), kwargs)
        if out is not None:
            base_kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, TraceArray) else o
                for o in out
            )
        result = getattr(ufunc, method)(*base_inputs, **base_kwargs)
        if tape is None or tape.poisoned:
            return result
        if method not in ("__call__", "reduce"):
            tape.poison(f"unsupported ufunc method {ufunc.__name__}.{method}")
            return result
        if ufunc.nout != 1 or isinstance(result, tuple):
            tape.poison(f"multi-output ufunc {ufunc.__name__}")
            return result
        if method == "__call__" and out is None \
                and kwargs.get("where", True) is not True:
            # numpy leaves the unselected entries of a fresh output unset.
            tape.poison(f"{ufunc.__name__} with where= but no out=")
            return result
        if out is not None:
            if len(out) != 1 or not isinstance(out[0], TraceArray) \
                    or out[0]._slot is None or out[0]._tape is not tape:
                tape.poison("ufunc out= targets an untraced buffer")
                return result
            target = out[0]
            slot = tape.record(
                ("ufunc", ufunc, method), spec_inputs, spec_kwargs,
                np.asarray(result), inplace_slot=target._slot,
                label=ufunc.__name__,
            )
            target._slot = slot  # SSA rebind of the mutated name
            return target
        if not isinstance(result, np.ndarray):
            result = np.asarray(result)  # 0-d reduce: keep it traceable
        slot = tape.record(
            ("ufunc", ufunc, method), spec_inputs, spec_kwargs, result,
            label=ufunc.__name__,
        )
        return _wrap(np.asarray(result), tape, slot)

    # -- array-function interception -----------------------------------
    def __array_function__(self, func, types, args, kwargs):
        tape = self._tape if self._tape is not None else _find_tape(args, kwargs)
        if tape is None or tape.poisoned:
            base_args, _ = self._spec(_Tape(), args)
            base_kwargs, _ = self._spec(_Tape(), kwargs)
            return func(*base_args, **base_kwargs)
        base_args, spec_args = self._spec(tape, args)
        base_kwargs, spec_kwargs = self._spec(tape, kwargs)
        result = func(*base_args, **base_kwargs)
        if tape.poisoned:
            return result
        if not isinstance(result, np.ndarray):
            tape.poison(f"{func.__name__} returned a non-array result")
            return result
        traced_inputs = [t for t in _iter_trace_arrays((args, kwargs))
                         if t._slot is not None]
        view_src = None
        if len(traced_inputs) == 1 and result.base is not None and \
                np.may_share_memory(result, traced_inputs[0].view(np.ndarray)):
            view_src = traced_inputs[0]._slot
        slot = tape.record(("func", func), spec_args, spec_kwargs, result,
                           view_src=view_src, label=func.__name__)
        return _wrap(np.asarray(result), tape, slot)

    # -- method interception -------------------------------------------
    def _record_method(self, name: str, args, kwargs):
        tape = self._tape
        base = self.view(np.ndarray)
        if tape is None or tape.poisoned:
            return getattr(base, name)(*args, **kwargs)
        if self._slot is None:
            tape.poison(f"method {name} on array of unknown provenance")
            return getattr(base, name)(*args, **kwargs)
        base_args, spec_args = self._spec(tape, tuple(args))
        base_kwargs, spec_kwargs = self._spec(tape, kwargs)
        result = getattr(base, name)(*base_args, **base_kwargs)
        if not isinstance(result, np.ndarray):
            tape.poison(f"method {name} returned a non-array result")
            return result
        view_src = None
        if result.base is not None and np.may_share_memory(result, base):
            view_src = self._slot
        slot = tape.record(
            ("method", name), (_Ref(self._slot),) + spec_args, spec_kwargs,
            result, view_src=view_src, label=name,
        )
        return _wrap(np.asarray(result), tape, slot)

    def reshape(self, *shape, **kwargs):
        return self._record_method("reshape", shape, kwargs)

    def transpose(self, *axes):
        return self._record_method("transpose", axes, {})

    @property
    def T(self):
        return self.transpose()

    def swapaxes(self, axis1, axis2):
        return self._record_method("swapaxes", (axis1, axis2), {})

    def astype(self, dtype, **kwargs):
        return self._record_method("astype", (dtype,), kwargs)

    def copy(self, order="C"):
        return self._record_method("copy", (order,), {})

    def ravel(self, order="C"):
        return self._record_method("ravel", (order,), {})

    def __getitem__(self, index):
        if self._tape is None or self._tape.poisoned or self._slot is None:
            return self.view(np.ndarray)[index]
        for item in _iter_trace_arrays(
                index if isinstance(index, tuple) else (index,)):
            self._tape.poison("data-dependent (traced) index")
            return self.view(np.ndarray)[index]
        return self._record_method("__getitem__", (index,), {})

    # -- scalar escapes ------------------------------------------------
    def _escape(self):
        if self._tape is not None:
            self._tape.scalar_escapes += 1

    def __bool__(self):
        self._escape()
        return bool(self.view(np.ndarray))

    def __float__(self):
        self._escape()
        return float(self.view(np.ndarray))

    def __int__(self):
        self._escape()
        return int(self.view(np.ndarray))

    def __index__(self):
        self._escape()
        return self.view(np.ndarray).__index__()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def trace(fn: Callable[..., Any], inputs: dict[str, np.ndarray],
          arena: PlanArena | None = None) -> tuple[ExecutionPlan, np.ndarray]:
    """Record ``fn(**inputs)`` once and compile it into a plan.

    Returns ``(plan, output)`` where ``output`` is the (eagerly computed,
    bitwise-normal) result of the traced run — callers can serve it
    directly, so compiling costs one ordinary forward plus lowering.
    The plan's buffers come from ``arena``, shared with every other plan
    compiled into it, or from a private arena when none is given.

    Raises :class:`PlanUnsupported` when the forward does anything the
    tracer cannot faithfully replay. The plan's ``stats.trace_seconds``
    times the recorded forward; ``stats.compile_seconds`` the lowering.
    """
    started = time.perf_counter()
    tape = _Tape()
    traced = {name: tape.add_input(name, np.asarray(value))
              for name, value in inputs.items()}
    with no_grad():
        result = fn(**traced)
    if not isinstance(result, np.ndarray) and hasattr(result, "data"):
        result = result.data  # accept Tensor-like results
    if not isinstance(result, TraceArray) or result._slot is None:
        raise PlanUnsupported(
            tape.poisoned or "output is not a traced array"
        )
    if tape.poisoned:
        raise PlanUnsupported(f"trace poisoned: {tape.poisoned}")
    output = np.array(result.view(np.ndarray), copy=True)
    trace_seconds = time.perf_counter() - started
    plan = tape.compile(result._slot, inputs, output,
                        PlanArena() if arena is None else arena)
    plan.stats.trace_seconds = trace_seconds
    return plan, output
