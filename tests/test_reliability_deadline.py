"""Tests for deadlines and their propagation (repro.reliability.deadline)."""

import pytest

from repro.errors import DeadlineExceeded, ReproError, ServeError
from repro.reliability import Deadline


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(2.0)
        assert deadline.remaining() == pytest.approx(3.0)
        assert not deadline.expired

    def test_expires_and_checks(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("warmup")  # inside budget: no raise
        clock.advance(1.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("the forward")
        assert "the forward" in str(excinfo.value)
        assert "1.000s" in str(excinfo.value)

    def test_deadline_exceeded_is_serve_error_not_timeout(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(1.0)
        for typed in (ServeError, ReproError):
            with pytest.raises(typed):
                deadline.check()
        assert not issubclass(DeadlineExceeded, TimeoutError)

    def test_clamp_takes_the_tighter_bound(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(2.0)
        assert deadline.clamp(0.5) == pytest.approx(0.5)
        assert deadline.clamp(None) == pytest.approx(2.0)
        clock.advance(5.0)
        assert deadline.clamp(10.0) == 0.0  # never negative

    def test_after_alias(self):
        clock = FakeClock()
        assert Deadline.after(3.0, clock=clock).remaining() == pytest.approx(3.0)


class TestEnginePropagation:
    """Deadlines thread engine → queue → batch boundary."""

    def test_expired_deadline_rejected_at_admission(self, tiny_ctx, tmp_path):
        from repro.experiments import build_model
        from repro.serve import export_bundle, load_bundle
        from repro.telemetry import MetricRegistry

        model = build_model("FC-LSTM-I", tiny_ctx)
        base = str(tmp_path / "bundle")
        export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
        bundle = load_bundle(base)
        engine = bundle.make_engine(registry=MetricRegistry())

        clock = FakeClock()
        dead = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            # fallback would mask the deadline; there is no state or
            # prior forecast to degrade to, so the original error wins.
            engine.forecast(deadline=dead)

    def test_queue_blown_deadline_fails_at_batch_boundary(
        self, tiny_ctx, tmp_path
    ):
        from repro.experiments import build_model
        from repro.serve import export_bundle, load_bundle
        from repro.serve.engine import _Request
        from repro.telemetry import MetricRegistry

        model = build_model("FC-LSTM-I", tiny_ctx)
        base = str(tmp_path / "bundle")
        export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
        bundle = load_bundle(base)
        registry = MetricRegistry()
        engine = bundle.make_engine(registry=registry)

        clock = FakeClock()
        deadline = Deadline(0.2, clock=clock)
        request = _Request(engine.store.window(), 1, 0.0, deadline=deadline)
        clock.advance(1.0)  # expires while "queued"
        engine._finish([request])
        with pytest.raises(DeadlineExceeded):
            request.future.result(timeout=0)
        assert registry.counter("serve/deadline_expired").value == 1
        assert registry.counter("serve/forwards").value == 0  # no wasted forward
