"""Unit tests for Module mechanics, Linear/MLP and containers."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.errors import MissingParameterError, ShapeMismatchError
from repro.nn import MLP, Linear, LSTMCell, Module, ModuleList, stack_modules


class TestModuleMechanics:
    def test_parameters_discovered(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_parameters(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 3, rng=np.random.default_rng(0))
                self.b = Linear(3, 1, rng=np.random.default_rng(1))

        names = {n for n, _ in Net().named_parameters()}
        assert names == {"a.weight", "a.bias", "b.weight", "b.bias"}

    def test_shared_parameter_yielded_once(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, rng=np.random.default_rng(0))
                self.b = self.a  # shared module

        assert len(list(Net().parameters())) == 2

    def test_num_parameters(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_nested_state_dict_roundtrip(self):
        def net(seed):
            rng = np.random.default_rng(seed)
            return ModuleList([Linear(2, 2, rng=rng), Linear(2, 1, rng=rng)])

        a, b = net(0), net(9)
        state = a.state_dict()
        assert list(state) == ["0.weight", "0.bias", "1.weight", "1.bias"]
        b.load_state_dict(state)
        for (_n1, p1), (_n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_roundtrip(self):
        a = Linear(3, 4, rng=np.random.default_rng(0))
        b = Linear(3, 4, rng=np.random.default_rng(9))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_missing_key(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(MissingParameterError):
            layer.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatchError):
            layer.load_state_dict(state)

    def test_load_state_dict_errors_name_first_offender_and_count(self):
        net = ModuleList([Linear(2, 2, rng=np.random.default_rng(0)) for _ in range(2)])
        with pytest.raises(MissingParameterError, match=r"'0\.weight' \(and 3 more\)"):
            net.load_state_dict({})
        wrong = {name: np.zeros((3, 3)) for name in net.state_dict()}
        with pytest.raises(ShapeMismatchError) as excinfo:
            net.load_state_dict(wrong)
        message = str(excinfo.value)
        assert "'0.weight'" in message and "(2, 2)" in message and "(3, 3)" in message
        assert "(and 3 more)" in message

    def test_failed_load_leaves_parameters_untouched(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        before = layer.state_dict()
        state = {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
        with pytest.raises(ShapeMismatchError):
            layer.load_state_dict(state)
        np.testing.assert_array_equal(layer.weight.data, before["weight"])

    def test_state_dict_is_a_copy(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        state = layer.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)

    def test_repr_contains_children(self):
        net = ModuleList([Linear(2, 2, rng=np.random.default_rng(0))])
        assert "Linear" in repr(net)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_leading_batch_axes(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((2, 4, 5)))).shape == (2, 4, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_exact_affine(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.data, [[4.0, 7.0]])

    def test_gradients_flow(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad.shape == (3, 2)
        assert np.allclose(layer.bias.grad, 4.0)


class TestMLP:
    def test_shapes(self):
        mlp = MLP([4, 8, 2], rng=np.random.default_rng(0))
        assert mlp(Tensor(np.zeros((5, 4)))).shape == (5, 2)

    def test_rejects_single_size(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_hidden_activation_applied(self):
        mlp = MLP([2, 2, 1], rng=np.random.default_rng(0))
        for layer in mlp.layers:
            layer.weight.data = -np.ones_like(layer.weight.data)
            layer.bias.data = np.zeros_like(layer.bias.data)
        # relu between layers zeroes negative intermediates -> output 0.
        out = mlp(Tensor([[1.0, 1.0]]))
        assert np.allclose(out.data, 0.0)


class TestContainers:
    def test_module_list_indexing_and_iter(self):
        rng = np.random.default_rng(0)
        ml = ModuleList([Linear(2, 2, rng=rng) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(iter(ml))) == 3
        assert len(list(ml.parameters())) == 6

    def test_module_list_has_no_forward(self):
        ml = ModuleList()
        with pytest.raises(RuntimeError):
            ml(Tensor([1.0]))


class TestStackModules:
    """``stack_modules`` runs D modules as one, slice ``d`` with module ``d``."""

    def test_stacked_linears_match_each_module_bitwise(self):
        rng = np.random.default_rng(0)
        layers = [Linear(3, 4, rng=rng) for _ in range(2)]
        x = rng.standard_normal((2, 5, 6, 3))
        out = stack_modules(layers, rank=4)(Tensor(x))
        (out * out).sum().backward()
        stacked_grads = [(layer.weight.grad, layer.bias.grad) for layer in layers]
        for d, layer in enumerate(layers):
            layer.zero_grad()
            alone = layer(Tensor(x[d]))
            assert out.data[d].tobytes() == alone.data.tobytes()
            (alone * alone).sum().backward()
            np.testing.assert_allclose(stacked_grads[d][0], layer.weight.grad, rtol=1e-12)
            np.testing.assert_allclose(stacked_grads[d][1], layer.bias.grad, rtol=1e-12)

    def test_stacked_lstm_cells_and_nested_children(self):
        rng = np.random.default_rng(1)
        cells = [LSTMCell(3, 4, rng=rng) for _ in range(2)]
        x = rng.standard_normal((2, 5, 3))
        stacked = stack_modules(cells, rank=3)
        assert list(stacked.parameters()) == []
        h, c = stacked(Tensor(x))
        h2, _ = stacked(Tensor(x), (h, c))
        for d, cell in enumerate(cells):
            hd, cd = cell(Tensor(x[d]))
            hd2, _ = cell(Tensor(x[d]), (hd, cd))
            assert h2.data[d].tobytes() == hd2.data.tobytes()

        owner = ModuleList(ModuleList([Linear(2, 2, rng=rng)]) for _ in range(2))
        copy = stack_modules(list(owner), rank=3)
        assert [type(m) for m in copy] == [Linear]
        assert copy[0].weight.shape == (2, 2, 2)
        assert copy[0].bias.shape == (2, 1, 2)

