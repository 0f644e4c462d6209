"""Tests for the unified exception hierarchy (repro.errors)."""

import numpy as np
import pytest

from repro.errors import (
    BundleFormatError,
    BundleModelError,
    CheckpointError,
    CircuitOpen,
    ConfigError,
    DataError,
    DeadlineExceeded,
    InjectedFault,
    MissingParameterError,
    Overloaded,
    QuotaExceeded,
    ReproError,
    ServeError,
    ShapeMismatchError,
    StateError,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for cls in (
            DataError, CheckpointError, MissingParameterError,
            ShapeMismatchError, BundleFormatError, BundleModelError,
            ConfigError, ServeError, StateError, DeadlineExceeded,
            CircuitOpen, Overloaded, QuotaExceeded, InjectedFault,
        ):
            assert issubclass(cls, ReproError)

    def test_one_except_catches_the_world(self):
        with pytest.raises(ReproError):
            raise StateError("boom")

    def test_stdlib_bases_are_gone(self):
        """The one-release stdlib multiple inheritance was removed:
        pre-hierarchy ``except ValueError``-style callers must migrate
        to the typed classes."""
        assert not issubclass(DataError, ValueError)
        assert not issubclass(StateError, ValueError)
        assert not issubclass(ConfigError, ValueError)
        assert not issubclass(ShapeMismatchError, ValueError)
        assert not issubclass(BundleFormatError, ValueError)
        assert not issubclass(MissingParameterError, KeyError)
        assert not issubclass(BundleModelError, KeyError)
        assert not issubclass(DeadlineExceeded, TimeoutError)
        assert not issubclass(CircuitOpen, RuntimeError)
        assert not issubclass(Overloaded, RuntimeError)
        assert not issubclass(InjectedFault, RuntimeError)

    def test_messages_render_cleanly(self):
        """Without the KeyError base there is no repr-quoting to fight."""
        assert str(MissingParameterError("missing parameter 'w'")) == (
            "missing parameter 'w'"
        )
        assert str(BundleModelError("unknown model 'X'")) == "unknown model 'X'"

    def test_state_error_is_serve_error_only(self):
        error = StateError("x")
        assert isinstance(error, ServeError)
        assert not isinstance(error, ValueError)

    def test_quota_exceeded_is_overloaded(self):
        assert issubclass(QuotaExceeded, Overloaded)
        assert issubclass(QuotaExceeded, ServeError)


class TestMigratedRaises:
    def test_module_load_state_dict_missing(self):
        from repro.nn import Linear

        layer = Linear(2, 3)
        with pytest.raises(MissingParameterError):
            layer.load_state_dict({})
        with pytest.raises(CheckpointError):
            layer.load_state_dict({})

    def test_module_load_state_dict_shape(self):
        from repro.nn import Linear

        layer = Linear(2, 3)
        state = layer.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((9, 9))
        with pytest.raises(ShapeMismatchError):
            layer.load_state_dict(state)

    def test_store_rejects_bad_shape_as_state_error(self):
        from repro.serve import StateStore

        store = StateStore(num_nodes=2, num_features=1, input_length=4)
        with pytest.raises(StateError):
            store.observe(0, np.zeros((3, 1)))
        with pytest.raises(ReproError):
            store.observe(0, np.zeros((3, 1)))

    def test_csv_loader_raises_data_error(self, tmp_path):
        from repro.datasets.csv_loader import load_readings_csv

        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(DataError):
            load_readings_csv(str(path))
        with pytest.raises(ReproError):
            load_readings_csv(str(path))
