"""Tests for traced execution plans (repro.autodiff.plan).

The load-bearing property is **bitwise replay fidelity**: a compiled
plan fed fresh inputs must produce exactly the bytes the eager forward
would — any divergence makes the serving engine's planned hot path a
silent numerics fork. The property tests below drive that over random
expression pipelines, random shapes and random seeds; the unit tests
pin the compile-pass behaviours (DCE, constant folding, arena reuse)
and the fail-closed poisoning model.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import (
    ExecutionPlan,
    PlanArena,
    PlanUnsupported,
    Tensor,
    no_grad,
    trace,
)
from repro.models.spatiotemporal import gcn_lstm


# ----------------------------------------------------------------------
# Random numpy pipelines: replay must be bitwise-equal to eager.
# ----------------------------------------------------------------------

# Pure-numpy stages over one array; together they cover ufunc __call__,
# reductions, __array_function__ dispatch, views and in-place writes —
# every recording path the tracer has.
_STAGES = [
    ("affine", lambda a: a * 1.7 + 0.3),
    ("tanh", lambda a: np.tanh(a)),
    ("relu", lambda a: np.maximum(a, 0.0)),
    ("square", lambda a: a * a),
    ("sum_keep", lambda a: a + a.sum(axis=0, keepdims=True)),
    ("mean_keep", lambda a: a - a.mean(axis=-1, keepdims=True)),
    ("reshape_roundtrip", lambda a: a.reshape(-1).reshape(a.shape)),
    ("transpose_back", lambda a: a.T.copy().T + 1.0),
    ("slice_pad", lambda a: np.concatenate([a[:1], a], axis=0)[1:]),
    ("stack_mix", lambda a: np.stack([a, -a], axis=0).sum(axis=0) + a),
    ("where", lambda a: np.where(a > 0, a, 0.5 * a)),
    ("clip", lambda a: np.clip(a, -2.0, 2.0)),
    ("exp_scaled", lambda a: np.exp(0.25 * a)),
    ("inplace_style", lambda a: np.divide(1.0, np.abs(a) + 1.0)),
]


@st.composite
def pipelines(draw):
    depth = draw(st.integers(min_value=1, max_value=6))
    return [draw(st.sampled_from(_STAGES)) for _ in range(depth)]


def _apply(stages, a):
    for _name, fn in stages:
        a = fn(a)
    return a


@settings(max_examples=60, deadline=None)
@given(
    pipelines(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_replay_bitwise_equals_eager_pipelines(stages, rows, cols, seed):
    rng = np.random.default_rng(seed)
    first = rng.standard_normal((rows, cols))
    plan, traced_out = trace(lambda x: _apply(stages, x), {"x": first})
    np.testing.assert_array_equal(traced_out, _apply(stages, first))
    for _ in range(2):
        fresh = rng.standard_normal((rows, cols))
        np.testing.assert_array_equal(plan.replay({"x": fresh}), _apply(stages, fresh))


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_replay_bitwise_equals_eager_model(batch, nodes, seed):
    """The real consumer: a Tensor-based model forward across shapes/seeds."""
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((nodes, nodes)) > 0.5).astype(float)
    adjacency = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(adjacency, 0.0)
    model = gcn_lstm(
        input_length=4, output_length=2, num_nodes=nodes, num_features=2,
        adjacency=adjacency, embed_dim=3, hidden_dim=4, seed=seed,
    )
    x = rng.standard_normal((batch, 4, nodes, 2)).astype(np.float32)
    inputs = model.plan_inputs(x, None, None)
    plan, traced_out = trace(model.plan_forward, inputs)
    fresh = {
        "x": rng.standard_normal((batch, 4, nodes, 2)).astype(np.float32)
    }
    with no_grad():
        eager = model.plan_forward(**fresh)
    np.testing.assert_array_equal(plan.replay(fresh), eager)
    np.testing.assert_array_equal(traced_out, model.plan_forward(**inputs))


# ----------------------------------------------------------------------
# Compile passes
# ----------------------------------------------------------------------

class TestCompile:
    def test_dce_prunes_unused_branch(self):
        def fn(x):
            _dead = np.tanh(x) * 3.0 + x.sum()
            return x * 2.0

        plan, _ = trace(fn, {"x": np.ones((3, 3))})
        assert plan.stats.dce_removed > 0
        assert plan.stats.steps < plan.stats.ops_recorded

    def test_weight_only_subexpression_folds(self):
        weight = np.arange(6.0).reshape(2, 3)

        def fn(x):
            return x @ (weight * 2.0 + 1.0).T

        plan, out = trace(fn, {"x": np.ones((4, 3))})
        # The (weight * 2 + 1) subtree ran eagerly at trace time and
        # entered the plan as a baked constant, not as replay steps.
        assert plan.stats.folded_constants > 0
        assert plan.stats.constant_bytes > 0
        np.testing.assert_array_equal(out, np.ones((4, 3)) @ (weight * 2.0 + 1.0).T)

    def test_arena_smaller_than_naive(self):
        def fn(x):
            for _ in range(8):
                x = np.tanh(x) + 1.0
            return x

        plan, _ = trace(fn, {"x": np.ones((16, 16))})
        assert 0 < plan.stats.arena_bytes < plan.stats.naive_bytes

    def test_scalar_escape_counted_not_poisoned(self):
        def fn(x):
            y = x * 2.0
            if y.size:  # data-independent branch, fine to bake
                y = y + 1.0
            return y

        plan, _ = trace(fn, {"x": np.ones(4)})
        fresh = np.arange(4.0)
        np.testing.assert_array_equal(plan.replay({"x": fresh}), fresh * 2.0 + 1.0)

    def test_stats_roundtrip_as_dict(self):
        plan, _ = trace(lambda x: x + 1.0, {"x": np.zeros((2, 2))})
        payload = plan.stats.as_dict()
        assert payload["steps"] >= 1
        assert payload["output_shape"] == [2, 2]
        assert payload["compile_seconds"] >= 0.0
        assert payload["trace_seconds"] > 0.0


# ----------------------------------------------------------------------
# Replay contract
# ----------------------------------------------------------------------

class TestReplay:
    def test_shape_mismatch_rejected(self):
        plan, _ = trace(lambda x: x * 2.0, {"x": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="shape"):
            plan.replay({"x": np.zeros((3, 2))})

    def test_dtype_mismatch_rejected(self):
        plan, _ = trace(lambda x: x * 2.0, {"x": np.zeros((2, 2))})
        with pytest.raises(TypeError):
            plan.replay({"x": np.zeros((2, 2), dtype=np.complex128)})

    def test_nocopy_output_aliases_arena(self):
        plan, _ = trace(lambda x: np.tanh(x) + 1.0, {"x": np.zeros(8)})
        first = plan.replay({"x": np.zeros(8)}, copy=False)
        second = plan.replay({"x": np.ones(8)}, copy=False)
        # copy=False hands back the same arena storage each time...
        assert np.shares_memory(first, second)
        # ...while copy=True detaches.
        copied = plan.replay({"x": np.ones(8)})
        assert not np.shares_memory(copied, second)

    def test_replay_is_an_execution_plan(self):
        plan, _ = trace(lambda x: x + 1.0, {"x": np.zeros(2)})
        assert isinstance(plan, ExecutionPlan)

    def test_replay_allocates_no_tensors(self, monkeypatch):
        """The whole point: zero Tensor construction on the hot path."""
        rng = np.random.default_rng(0)
        adjacency = np.ones((3, 3)) - np.eye(3)
        model = gcn_lstm(
            input_length=4, output_length=2, num_nodes=3, num_features=2,
            adjacency=adjacency, embed_dim=3, hidden_dim=4, seed=0,
        )
        inputs = model.plan_inputs(
            rng.standard_normal((1, 4, 3, 2)).astype(np.float32), None, None
        )
        plan, _ = trace(model.plan_forward, inputs)

        def boom(*args, **kwargs):
            raise AssertionError("Tensor allocated during plan replay")

        monkeypatch.setattr(Tensor, "__init__", boom)
        monkeypatch.setattr(Tensor, "_wrap", staticmethod(boom))
        monkeypatch.setattr(Tensor, "_make", staticmethod(boom))
        plan.replay(inputs)


# ----------------------------------------------------------------------
# Arenas: private per trace() call, or shared by every plan compiled in
# ----------------------------------------------------------------------

def _chain(depth):
    def fn(x):
        for _ in range(depth):
            x = np.tanh(x) * 0.5 + x
        return x

    return fn


class TestArena:
    def test_private_arenas_do_not_alias(self):
        rng = np.random.default_rng(0)
        first, _ = trace(_chain(2), {"x": np.zeros((3, 4))})
        second, _ = trace(_chain(3), {"x": np.zeros((3, 4))})
        assert first.arena is not second.arena
        x = rng.standard_normal((3, 4))
        out = first.replay({"x": x}, copy=False)
        kept = out.copy()
        second.replay({"x": rng.standard_normal((3, 4))}, copy=False)
        np.testing.assert_array_equal(out, kept)

    def test_shared_arena_holds_the_largest_plan(self):
        arena = PlanArena()
        fns = [_chain(depth) for depth in (1, 4, 2)]
        plans = [trace(fn, {"x": np.zeros((5, 2))}, arena)[0] for fn in fns]
        assert all(plan.arena is arena for plan in plans)
        sizes = [plan.stats.arena_bytes for plan in plans]
        assert arena.nbytes == max(sizes) < sum(sizes)
        # Interleaved replays overwrite each other's buffers and stay exact.
        rng = np.random.default_rng(1)
        for _ in range(3):
            for fn, plan in zip(fns, plans):
                x = rng.standard_normal((5, 2))
                np.testing.assert_array_equal(plan.replay({"x": x}), fn(x))

    def test_concurrent_replays_of_sharing_plans_stay_exact(self):
        """The arena's one lock serialises every plan that shares it."""
        arena = PlanArena()
        fns = [_chain(depth) for depth in (2, 3)]
        plans = [trace(fn, {"x": np.zeros((6, 6))}, arena)[0] for fn in fns]
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal((6, 6)) for _ in range(3)]
        expected = [[fn(x) for x in xs] for fn in fns]
        wrong = []

        def work(worker: int) -> None:
            for i in range(150):
                which, row = (i + worker) % 2, (i + worker) % 3
                out = plans[which].replay({"x": xs[row]})
                if not np.array_equal(out, expected[which][row]):
                    wrong.append((worker, i))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_steps_share_one_empty_kwargs_mapping(self):
        plan, _ = trace(_chain(3), {"x": np.zeros(4)})
        kwargs = {id(step_kwargs) for _fn, _args, step_kwargs in plan._steps}
        assert len(kwargs) == 1 and plan._steps[0][2] == {}


class TestWhere:
    """A traced ``where=`` mask reaches numpy as a base array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_where_with_out_replays_bitwise(self, dtype):
        def fn(x):
            y = x * 2.0
            np.subtract(1.0, y, out=y, where=y < 0)
            return y + x

        rng = np.random.default_rng(2)
        first = rng.standard_normal((3, 4)).astype(dtype)
        plan, out = trace(fn, {"x": first})
        np.testing.assert_array_equal(out, fn(first))
        assert plan.stats.inplace_steps == 1
        for _ in range(2):
            fresh = rng.standard_normal((3, 4)).astype(dtype)
            replayed = plan.replay({"x": fresh})
            assert replayed.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(replayed, fn(fresh))

    @pytest.mark.filterwarnings("ignore:'where' used without 'out'")
    def test_where_without_out_is_unsupported(self):
        # numpy leaves the unselected entries of the fresh output unset.
        with pytest.raises(PlanUnsupported, match="where="):
            trace(lambda x: np.add(x, 1.0, where=x > 0), {"x": np.ones(4)})


# ----------------------------------------------------------------------
# Fail-closed safety model
# ----------------------------------------------------------------------

class TestPoisoning:
    def test_untraceable_provenance_poisons(self):
        def fn(x):
            # np.asarray strips the tracer; feeding the result back into
            # traced math is exactly the hazard that must fail closed.
            stripped = np.asarray(x).copy()
            return stripped * 2.0

        with pytest.raises(PlanUnsupported):
            trace(fn, {"x": np.ones(4)})

    def test_non_array_result_rejected(self):
        with pytest.raises(PlanUnsupported):
            trace(lambda x: float(x.sum()), {"x": np.ones(3)})
