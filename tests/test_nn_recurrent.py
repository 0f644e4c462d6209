"""Tests for LSTM/GRU cells and sequence wrappers."""

import numpy as np
import pytest

from repro.autodiff import Tensor, dtype_policy, gradcheck, inference_mode, split
from repro.nn import GRUCell, LSTM, LSTMCell
from repro.telemetry import OpProfiler


def _three_sigmoid_step(cell, x, state):
    """The per-gate LSTM step: one sigmoid per gate block."""
    h_prev, c_prev = state
    z = x.matmul(cell.weight_ih) + h_prev.matmul(cell.weight_hh) + cell.bias
    z_i, z_f, z_g, z_o = split(z, 4, axis=-1)
    c_new = z_f.sigmoid() * c_prev + z_i.sigmoid() * z_g.tanh()
    return z_o.sigmoid() * c_new.tanh(), c_new


def _unroll_with_grads(cell, step, dtype, seed=0):
    """Three steps of ``step``; returns outputs and every gradient as bytes."""
    rng = np.random.default_rng(seed)
    xs = [Tensor(rng.normal(size=(3, cell.input_size)).astype(dtype),
                 requires_grad=True) for _ in range(3)]
    h0 = Tensor(rng.normal(size=(3, cell.hidden_size)).astype(dtype) * 0.5,
                requires_grad=True)
    c0 = Tensor(rng.normal(size=(3, cell.hidden_size)).astype(dtype) * 0.5,
                requires_grad=True)
    cell.zero_grad()
    state = (h0, c0)
    outputs = []
    for x in xs:
        state = step(cell, x, state)
        outputs.extend(state)
    probes = [rng.normal(size=out.shape).astype(dtype) for out in outputs]
    loss = sum(((out * probe).sum() for out, probe in zip(outputs, probes)), Tensor(0.0))
    loss.backward()
    values = [out.data.tobytes() for out in outputs]
    grads = [t.grad.tobytes() for t in xs + [h0, c0]]
    grads += [param.grad.tobytes() for _name, param in cell.named_parameters()]
    return values, grads


class TestLSTMCell:
    def setup_method(self):
        self.cell = LSTMCell(4, 6, rng=np.random.default_rng(0))

    def test_output_shapes(self):
        h, c = self.cell(Tensor(np.zeros((3, 4))))
        assert h.shape == (3, 6)
        assert c.shape == (3, 6)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            self.cell(Tensor(np.zeros((3, 4, 5))))

    def test_state_threading_changes_output(self):
        x = Tensor(np.ones((2, 4)))
        h1, c1 = self.cell(x)
        h2, _ = self.cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_forget_bias_initialized_to_one(self):
        hidden = self.cell.hidden_size
        assert np.allclose(self.cell.bias.data[hidden : 2 * hidden], 1.0)

    def test_hidden_bounded_by_tanh(self):
        h, _ = self.cell(Tensor(np.random.default_rng(1).normal(size=(5, 4)) * 10))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradcheck_through_cell(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3)), requires_grad=True)

        def fn(x):
            h, c = cell(x)
            return h + c

        assert gradcheck(fn, [x])

    def test_gradients_reach_all_parameters(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        h, c = self.cell(x)
        (h.sum() + c.sum()).backward()
        for name, param in self.cell.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sigmoid_bitwise_equals_per_gate_sigmoids(self, dtype):
        """Values and every gradient equal the three-sigmoid step bit for bit."""
        with dtype_policy(dtype):
            cell = LSTMCell(5, 7, rng=np.random.default_rng(4))
            fused = _unroll_with_grads(cell, lambda c, x, s: c(x, s), dtype)
            reference = _unroll_with_grads(cell, _three_sigmoid_step, dtype)
        assert fused[0] == reference[0]
        assert fused[1] == reference[1]

    def test_one_sigmoid_pass_per_step(self, monkeypatch):
        calls = []
        real_exp = np.exp

        def counting_exp(*args, **kwargs):
            calls.append(args[0].shape)
            return real_exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        with inference_mode():
            self.cell(Tensor(np.ones((2, 4))))
        assert calls == [(2, 4 * self.cell.hidden_size)]

    def test_gate_split_in_op_profile(self):
        with OpProfiler() as prof:
            x = Tensor(np.random.default_rng(1).normal(size=(2, 4)), requires_grad=True)
            h, c = self.cell(x)
            (h.sum() + c.sum()).backward()
        assert prof.stats["split"].calls == 4
        # The input, forget and output gates route their gradients
        # through the split; the discarded cell-block sigmoid does not.
        assert prof.stats["sigmoid"].backward_calls == 3
        assert prof.stats["split"].backward_calls == 3

    def test_deterministic_given_seed(self):
        a = LSTMCell(4, 6, rng=np.random.default_rng(42))
        b = LSTMCell(4, 6, rng=np.random.default_rng(42))
        x = Tensor(np.ones((1, 4)))
        assert np.allclose(a(x)[0].data, b(x)[0].data)


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(4, 5, rng=np.random.default_rng(0))
        assert cell(Tensor(np.zeros((3, 4)))).shape == (3, 5)

    def test_zero_input_zero_state_stays_bounded(self):
        cell = GRUCell(4, 5, rng=np.random.default_rng(0))
        h = cell(Tensor(np.zeros((1, 4))))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_state_threading(self):
        cell = GRUCell(2, 3, rng=np.random.default_rng(1))
        x = Tensor(np.ones((2, 2)))
        h1 = cell(x)
        h2 = cell(x, h1)
        assert not np.allclose(h1.data, h2.data)

    def test_gradcheck(self):
        cell = GRUCell(3, 3, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda x: cell(x), [x])


class TestLSTMSequence:
    def test_output_shapes(self):
        lstm = LSTM(3, 8, rng=np.random.default_rng(0))
        out, (h, c) = lstm(Tensor(np.zeros((4, 7, 3))))
        assert out.shape == (4, 7, 8)
        assert h.shape == (4, 8)

    def test_rejects_wrong_rank(self):
        lstm = LSTM(3, 8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm(Tensor(np.zeros((4, 3))))

    def test_last_output_equals_final_state(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(1))
        out, (h, _) = lstm(Tensor(np.random.default_rng(2).normal(size=(3, 5, 2))))
        assert np.allclose(out.data[:, -1, :], h.data)

    def test_learns_to_remember_first_element(self):
        """The LSTM must be trainable on a memory task."""
        from repro.nn import Linear
        from repro.optim import Adam

        rng = np.random.default_rng(0)
        lstm = LSTM(1, 12, rng=np.random.default_rng(1))
        head = Linear(12, 1, rng=np.random.default_rng(2))
        params = list(lstm.parameters()) + list(head.parameters())
        opt = Adam(params, lr=0.02)
        x = rng.normal(size=(64, 6, 1))
        y = x[:, 0, :]  # remember the first input
        first = last = None
        for step in range(120):
            opt.zero_grad()
            out, _ = lstm(Tensor(x))
            loss = ((head(out[:, -1, :]) - y) ** 2).mean()
            loss.backward()
            opt.step()
            if step == 0:
                first = loss.item()
            last = loss.item()
        assert last < first * 0.2
