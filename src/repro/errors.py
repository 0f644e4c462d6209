"""Unified exception hierarchy for the whole reproduction.

One root — :class:`ReproError` — so operational code (the serving
stack, the CLI, user scripts) can catch "anything this library raises"
without enumerating modules, and so resilience policies can classify
failures by type instead of by message.

The transitional stdlib multiple inheritance (``ValueError``,
``KeyError``, ``RuntimeError``, ``TimeoutError`` bases) announced in
the previous release has been removed: every class below now inherits
only from the typed hierarchy. Catch the typed classes — e.g.
``except StateError`` instead of ``except ValueError`` — or
``ReproError`` for everything the library raises on purpose.

Layers:

* :class:`DataError` — malformed input data (CSV loaders, arrays);
* :class:`CheckpointError` — a state dict that does not fit the model
  (``Module.load_state_dict``; ``load_bundle`` re-raises the same class
  with the bundle path in front), with :class:`MissingParameterError` /
  :class:`ShapeMismatchError`;
* :class:`BundleError` — serving-bundle format/registry problems;
* :class:`ConfigError` — invalid configuration values;
* :class:`ServeError` — anything that fails a serving request, with
  the resilience-policy signals :class:`DeadlineExceeded`,
  :class:`CircuitOpen`, :class:`Overloaded` and
  :class:`QuotaExceeded`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataError",
    "CheckpointError",
    "MissingParameterError",
    "ShapeMismatchError",
    "BundleError",
    "BundleFormatError",
    "BundleModelError",
    "QuantizationError",
    "ConfigError",
    "ServeError",
    "StateError",
    "DeadlineExceeded",
    "CircuitOpen",
    "Overloaded",
    "QuotaExceeded",
    "InjectedFault",
]


class ReproError(Exception):
    """Root of every exception this library raises on purpose."""


class DataError(ReproError):
    """Input data is malformed (bad CSV rows, shape/field mismatches)."""


class CheckpointError(ReproError):
    """A saved parameter state cannot be loaded into a model."""


class MissingParameterError(CheckpointError):
    """The state dict lacks a parameter the model expects."""


class ShapeMismatchError(CheckpointError):
    """A stored parameter's shape differs from the model's."""


class BundleError(ReproError):
    """A serving bundle (.npz + .json header) is unusable."""


class BundleFormatError(BundleError):
    """The bundle header/archive violates the format contract."""


class BundleModelError(BundleError):
    """The bundle names a model outside the neural registry."""


class QuantizationError(BundleError):
    """Weight quantization failed or broke the accuracy gate."""


class ConfigError(ReproError):
    """A configuration value fails validation."""


class ServeError(ReproError):
    """A serving request could not be answered normally.

    The HTTP layer maps input-validation failures (``StateError``,
    ``DataError`` and stdlib ``ValueError``/``KeyError``/``TypeError``
    from request parsing) to ``400`` and every other uncaught
    ``ServeError`` to ``503`` with a ``Retry-After`` hint.
    """


class StateError(ServeError):
    """A streaming-state operation received invalid input."""


class DeadlineExceeded(ServeError):
    """The request's time budget ran out before an answer was ready."""


class CircuitOpen(ServeError):
    """A circuit breaker is rejecting calls to a failing dependency."""


class Overloaded(ServeError):
    """Load was shed: a bounded queue is full; retry with backoff."""


class QuotaExceeded(Overloaded):
    """A tenant exhausted its token-bucket quota; retry with backoff."""


class InjectedFault(ServeError):
    """A fault deliberately raised by :mod:`repro.reliability.chaos`."""
