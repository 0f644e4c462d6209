"""Tests for the dtype policy, fused kernels, and checkpoint/bundle casting.

Covers the training hot-path optimisation work: the global float32 policy
(`repro.autodiff.dtype`), the fused `split` and `cheb_propagate` kernels,
the float64 guard in gradcheck, and the cast-with-warning behaviour when
artifacts cross a policy boundary.
"""

import numpy as np
import pytest

from repro.autodiff import (
    ChebBasis,
    Tensor,
    cheb_propagate,
    concat,
    default_dtype,
    dtype_policy,
    gradcheck,
    numerical_gradient,
    set_default_dtype,
    split,
)
from repro.datasets import ZScoreScaler
from repro.experiments import build_model
from repro.graphs import chebyshev_polynomials, normalized_laplacian
from repro.nn import LSTMCell, Linear
from repro.serve import export_bundle, load_bundle


class TestPolicy:
    def test_default_is_float32(self):
        assert default_dtype() == np.float32

    def test_context_manager_restores(self):
        before = default_dtype()
        with dtype_policy(np.float64):
            assert default_dtype() == np.float64
        assert default_dtype() == before

    def test_context_manager_accepts_strings(self):
        with dtype_policy("float64"):
            assert default_dtype() == np.float64

    def test_set_returns_previous(self):
        prev = set_default_dtype(np.float64)
        try:
            assert prev == np.float32
            assert default_dtype() == np.float64
        finally:
            set_default_dtype(prev)

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_integer_input_promoted_to_policy(self):
        assert Tensor([1, 2, 3]).dtype == default_dtype()

    def test_explicit_float64_input_not_downcast(self):
        # Only non-float inputs are coerced; a float64 array is a
        # deliberate precision choice (e.g. gradcheck) and passes through.
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_parameter_stored_in_policy_dtype(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        assert layer.weight.data.dtype == default_dtype()
        assert layer.bias.data.dtype == default_dtype()

    def test_lstm_init_state_in_policy_dtype(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        h, c = cell.init_state(2)
        assert h.data.dtype == default_dtype()
        assert c.data.dtype == default_dtype()

    def test_lstm_forward_stays_in_policy_dtype(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)).astype(default_dtype()))
        h, c = cell(x)
        assert h.data.dtype == default_dtype()
        assert c.data.dtype == default_dtype()

    def test_scaler_stats_in_policy_dtype(self):
        data = np.random.default_rng(0).normal(5, 2, size=(40, 3, 2))
        scaler = ZScoreScaler().fit(data)
        assert scaler.mean_.dtype == default_dtype()
        assert scaler.std_.dtype == default_dtype()
        assert scaler.transform(data).dtype == default_dtype()
        assert scaler.inverse_transform(scaler.transform(data)).dtype == default_dtype()


class TestSplit:
    def test_forward_matches_slices(self):
        x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 12))
        parts = split(x, 4, axis=-1)
        assert len(parts) == 4
        for k, part in enumerate(parts):
            np.testing.assert_array_equal(part.data, x.data[:, 3 * k : 3 * (k + 1)])

    def test_explicit_sections(self):
        x = Tensor(np.arange(10, dtype=np.float64)[None, :])
        a, b, c = split(x, [2, 3, 5], axis=1)
        assert a.shape == (1, 2) and b.shape == (1, 3) and c.shape == (1, 5)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            split(Tensor(np.zeros((2, 10))), 3, axis=-1)

    def test_sections_must_sum_to_length(self):
        with pytest.raises(ValueError):
            split(Tensor(np.zeros((2, 10))), [4, 4], axis=-1)

    def test_gradients_accumulate_into_one_buffer(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)), requires_grad=True)
        parts = split(x, 4, axis=-1)
        # Weight each chunk differently so the gradient is position-dependent.
        loss = sum((p * float(k + 1) for k, p in enumerate(parts)), start=parts[0] * 0.0)
        loss.sum().backward()
        expected = np.repeat(np.array([1.0, 2.0, 3.0, 4.0]), 2)[None, :] * np.ones((3, 8))
        np.testing.assert_allclose(x.grad, expected)

    def test_gradcheck(self):
        with dtype_policy(np.float64):
            x = Tensor(
                np.random.default_rng(0).normal(size=(2, 6)), requires_grad=True
            )

            def fn(x):
                a, b, c = split(x, 3, axis=-1)
                return (a * b + c.tanh()).sum()

            gradcheck(fn, [x])

    def test_no_grad_input_passthrough(self):
        x = Tensor(np.zeros((2, 4)))
        parts = split(x, 2, axis=-1)
        assert all(not p.requires_grad for p in parts)


def _cheb_setup(n=5, k=3, c=2, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    adj = rng.random((n, n))
    adj = (adj + adj.T) / 2
    np.fill_diagonal(adj, 0.0)
    stack = chebyshev_polynomials(normalized_laplacian(adj), k)
    x = rng.normal(size=(2, n, c))
    return stack, x


class TestChebPropagate:
    def test_matches_reference_loop(self):
        stack, x = _cheb_setup()
        basis = ChebBasis(stack)
        xt = Tensor(x.astype(default_dtype()))
        fused = cheb_propagate(xt, basis)
        # Reference: the pre-fusion concat-of-matmuls formulation.
        hops = [Tensor(stack[k].astype(default_dtype())).matmul(xt) for k in range(stack.shape[0])]
        reference = concat(hops, axis=-1)
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-6)

    def test_gradient_matches_reference(self):
        stack, x = _cheb_setup()
        basis = ChebBasis(stack)
        xt_a = Tensor(x.astype(default_dtype()), requires_grad=True)
        cheb_propagate(xt_a, basis).sum().backward()
        xt_b = Tensor(x.astype(default_dtype()), requires_grad=True)
        hops = [Tensor(stack[k].astype(default_dtype())).matmul(xt_b) for k in range(stack.shape[0])]
        concat(hops, axis=-1).sum().backward()
        np.testing.assert_allclose(xt_a.grad, xt_b.grad, atol=1e-5)

    def test_gradcheck(self):
        with dtype_policy(np.float64):
            stack, x = _cheb_setup(n=4, k=2, c=2)
            basis = ChebBasis(stack)
            xt = Tensor(x, requires_grad=True)
            gradcheck(lambda t: cheb_propagate(t, basis), [xt])

    def test_node_count_validated(self):
        stack, _x = _cheb_setup(n=5)
        basis = ChebBasis(stack)
        with pytest.raises(ValueError):
            cheb_propagate(Tensor(np.zeros((2, 4, 2))), basis)

    def test_basis_in_policy_dtype(self):
        stack, _x = _cheb_setup()
        basis = ChebBasis(stack)
        assert basis.forward_basis.dtype == default_dtype()


class TestGradcheckGuard:
    def test_gradcheck_rejects_float32_inputs(self):
        x = Tensor(
            np.random.default_rng(0).normal(size=(2, 2)).astype(np.float32),
            requires_grad=True,
        )
        with pytest.raises(TypeError, match="float64"):
            gradcheck(lambda t: t.tanh(), [x])

    def test_numerical_gradient_rejects_float32(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(TypeError, match="float64"):
            numerical_gradient(lambda t: t.sum(), [x], 0)

    def test_gradcheck_passes_with_float64_inputs(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gradcheck(lambda a, b: (a @ b).tanh(), [a, b])


class TestCheckpointCasting:
    def test_float64_checkpoint_casts_with_warning(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        state64 = {k: v.astype(np.float64) for k, v in layer.state_dict().items()}
        fresh = Linear(3, 2, rng=np.random.default_rng(1))
        with pytest.warns(UserWarning, match="dtype"):
            fresh.load_state_dict(state64)
        assert fresh.weight.data.dtype == default_dtype()
        np.testing.assert_allclose(
            fresh.weight.data, state64["weight"].astype(default_dtype())
        )

    def test_matching_dtype_loads_silently(self):
        import warnings

        layer = Linear(3, 2, rng=np.random.default_rng(0))
        state = layer.state_dict()
        fresh = Linear(3, 2, rng=np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.load_state_dict(state)


class TestBundleDtype:
    def test_round_trip_preserves_policy_dtype(self, tiny_ctx, tmp_path):
        model = build_model("FC-LSTM", tiny_ctx)
        base = str(tmp_path / "f32")
        export_bundle(model, "FC-LSTM", tiny_ctx, base)
        bundle = load_bundle(base)
        want = default_dtype()
        for _name, param in bundle.model.named_parameters():
            assert param.data.dtype == want
        assert bundle.scaler.mean_.dtype == want
        assert bundle.scaler.std_.dtype == want
        assert bundle.header["dtype"] == str(np.dtype(want))

    def test_float64_bundle_loads_under_float32_policy(self, tiny_ctx, tmp_path):
        model = build_model("FC-LSTM", tiny_ctx)
        base = str(tmp_path / "f64")
        export_bundle(model, "FC-LSTM", tiny_ctx, base)
        # Rewrite the archive as float64, simulating a bundle exported
        # before the float32 policy (or under dtype_policy('float64')).
        npz_path = base + ".npz"
        with np.load(npz_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays = {
            name: arr.astype(np.float64) if arr.dtype.kind == "f" else arr
            for name, arr in arrays.items()
        }
        np.savez(npz_path, **arrays)
        with pytest.warns(UserWarning, match="dtype"):
            bundle = load_bundle(base)
        want = default_dtype()
        for _name, param in bundle.model.named_parameters():
            assert param.data.dtype == want
        assert bundle.scaler.mean_.dtype == want

    def test_serve_parity_under_float32(self, tiny_ctx, tmp_path):
        """Offline-vs-serve parity stays ≤ 1e-4 under the float32 policy."""
        model = build_model("GCN-LSTM-I", tiny_ctx)
        base = str(tmp_path / "parity")
        export_bundle(model, "GCN-LSTM-I", tiny_ctx, base)
        bundle = load_bundle(base)

        _train_u, _val_u, test_u = tiny_ctx.corrupted.chronological_split()
        first_step = int(test_u.steps_of_day[0])
        store = bundle.make_store(start_step=first_step)
        for offset in range(bundle.input_length):
            store.observe(
                first_step + offset, test_u.data[offset], test_u.mask[offset]
            )
        window = store.window()
        assert window.x.dtype == default_dtype()
        scaled = bundle.scaler.transform(window.x, window.m)
        np.testing.assert_allclose(
            scaled, tiny_ctx.test_windows.x[0], atol=1e-4
        )

        online = bundle.make_engine(store=store).forecast().prediction
        out = model(
            tiny_ctx.test_windows.x[:1],
            tiny_ctx.test_windows.m[:1],
            tiny_ctx.test_windows.steps_of_day[:1],
        )
        offline = tiny_ctx.scaler.inverse_transform(out.prediction.data[0])
        np.testing.assert_allclose(online, offline, atol=1e-4)
