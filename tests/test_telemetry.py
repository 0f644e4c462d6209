"""Tests for the telemetry subsystem: metric registry and op profiler."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.telemetry import MetricRegistry, OpProfiler


class FakeClock:
    """Deterministic clock advancing a fixed step per reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricRegistry()
        reg.counter("batches").inc()
        reg.counter("batches").inc(2.0)
        assert reg.counter("batches").value == 3.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("c").inc(-1.0)

    def test_gauge_set_and_add(self):
        reg = MetricRegistry()
        reg.gauge("lr").set(0.1)
        reg.gauge("lr").add(0.05)
        assert reg.gauge("lr").value == pytest.approx(0.15)

    def test_same_name_shares_instance(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")


class TestHistogram:
    def test_summary_stats(self):
        h = MetricRegistry().histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0

    def test_bucket_counts_cumulative_with_inf(self):
        h = MetricRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in [0.5, 0.7, 5.0, 99.0]:
            h.observe(v)
        assert h.cumulative_buckets() == [
            (1.0, 2), (10.0, 3), (float("inf"), 4),
        ]


class TestRegistryLifecycle:
    def test_snapshot_shape(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 1.0
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1
        import json

        json.dumps(snap)  # must be JSON-serialisable

    def test_reset_clears(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class ManualClock:
    """Clock that moves only when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _namespaces():
    import repro.autodiff
    import repro.autodiff.tensor

    return {
        "Tensor": dict(vars(Tensor)),
        "repro.autodiff.tensor": dict(vars(repro.autodiff.tensor)),
        "repro.autodiff": dict(vars(repro.autodiff)),
    }


class TestOpProfiler:
    def test_counts_on_tiny_graph(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones((3, 4)), requires_grad=True)
            b = Tensor(np.ones((4, 2)), requires_grad=True)
            loss = ((a @ b).tanh()).sum()
            loss.backward()
        assert prof.stats["matmul"].calls == 1
        assert prof.stats["tanh"].calls == 1
        assert prof.stats["sum"].calls == 1
        # every op on the loss path ran its backward exactly once
        assert prof.stats["matmul"].backward_calls == 1
        assert prof.stats["tanh"].backward_calls == 1

    def test_alloc_bytes_recorded(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones((10, 10)), requires_grad=True)
            _ = a + a
        stat = prof.stats["add"]
        assert stat.alloc_bytes == 10 * 10 * 8
        assert stat.peak_bytes == 10 * 10 * 8

    def test_forward_time_with_fake_clock(self):
        # The window opens at 0.0; the hook reads 0.5 on entry and 1.0 on
        # exit, so relu's lap is exactly one step.
        clock = FakeClock(step=0.5)
        with OpProfiler(clock=clock) as prof:
            a = Tensor(np.ones(4), requires_grad=True)
            _ = a.relu()
        assert prof.stats["relu"].forward_seconds == 0.5

    def test_activation_replaces_only_make(self):
        before = _namespaces()
        with OpProfiler():
            during = _namespaces()
        after = _namespaces()
        assert after == before
        changed = {
            (space, name)
            for space, names in during.items()
            for name in names.keys() | before[space].keys()
            if names.get(name) is not before[space].get(name)
        }
        assert changed == {("Tensor", "_make")}

    def test_deactivation_restores_tensor(self):
        add_before = Tensor.__add__
        with OpProfiler():
            _ = Tensor(np.ones(2)) + 1.0
        assert Tensor.__add__ is add_before
        # gradients still flow after the hooks are removed
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)

    def test_nested_activation_rejected(self):
        with OpProfiler():
            with pytest.raises(RuntimeError):
                OpProfiler().activate()

    def test_report_sorted_and_bounded(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones((5, 5)), requires_grad=True)
            ((a @ a).sigmoid() * 2.0).mean().backward()
        report = prof.report(top=2)
        body = [line for line in report.splitlines()
                if not line.startswith(("op ", "-", "TOTAL"))]
        assert len(body) == 2
        rows = prof.sorted_stats()
        assert all(rows[i].total_seconds >= rows[i + 1].total_seconds
                   for i in range(len(rows) - 1))

    def test_report_total_sums_every_op(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones((5, 5)), requires_grad=True)
            ((a @ a).sigmoid() * 2.0).mean().backward()
        assert len(prof.stats) > 1
        total = prof.report(top=1).splitlines()[-1].split()
        assert total[0] == "TOTAL"
        assert int(total[1]) == sum(s.calls for s in prof.stats.values())

    def test_report_after_window(self):
        with OpProfiler() as prof:
            _ = Tensor(np.ones(2)) + 1.0
        assert "add" in prof.report()

    def test_untracked_ops_counted_via_make(self):
        from repro.autodiff import functional

        with OpProfiler() as prof:
            a = Tensor(np.ones((2, 3)), requires_grad=True)
            _ = functional.softmax(a, axis=-1)
        # softmax decomposes into primitives; each is counted
        assert prof.stats["exp"].calls >= 1
        assert prof.stats["div"].calls >= 1

    def test_ops_outside_tensor_methods_are_timed(self):
        from repro.autodiff import ChebBasis, cheb_propagate, concat, sigmoid_split, stack, where

        clock = FakeClock(step=1.0)
        basis = ChebBasis(np.stack([np.eye(3)] * 2))
        with OpProfiler(clock=clock) as prof:
            x = Tensor(np.ones((3, 4)), requires_grad=True)
            y = cheb_propagate(x, basis)
            y = concat([y, y], axis=-1)
            y = where(y.data > 0, y, 0.0)
            y = stack([y, y])
            gates = sigmoid_split(y, 4, axis=-1)
        assert len(gates) == 4
        for op in ("cheb_propagate", "concat", "where", "stack", "split", "sigmoid"):
            assert prof.stats[op].forward_seconds > 0, op

    def test_no_grad_ops_record_nothing(self):
        from repro.autodiff import no_grad

        clock = ManualClock()
        with OpProfiler(clock=clock) as prof:
            a = Tensor(np.ones((4, 4)), requires_grad=True)
            with no_grad():
                for _ in range(5):
                    a = a @ a
                    clock.advance(1.0)
        assert prof.stats == {}

    def test_gap_after_backward_charged_to_no_op(self):
        clock = ManualClock()
        with OpProfiler(clock=clock) as prof:
            a = Tensor(np.ones(3), requires_grad=True)
            clock.advance(1.0)
            y = a * 2.0
            clock.advance(2.0)
            y.sum().backward()
            clock.advance(100.0)  # clipping, optimizer step, loader...
            z = a * 3.0
            clock.advance(4.0)
            z.sum()
        assert prof.stats["mul"].calls == 2
        assert prof.stats["mul"].forward_seconds == 1.0
        assert prof.stats["sum"].forward_seconds == 6.0

    def test_laps_are_per_thread(self):
        import threading

        clock = ManualClock()
        with OpProfiler(clock=clock) as prof:
            clock.advance(5.0)
            worker = threading.Thread(
                target=lambda: Tensor(np.ones(2), requires_grad=True).exp()
            )
            worker.start()
            worker.join()
            Tensor(np.ones(2), requires_grad=True).log()
        # The worker's first op has no lap of its own to close.
        assert prof.stats["exp"].forward_seconds == 0.0
        assert prof.stats["log"].forward_seconds == 5.0


class TestThreadSafety:
    """Concurrent hammer: totals must be exact, not approximately right."""

    THREADS = 8
    ITERATIONS = 2500

    def _hammer(self, work):
        import threading

        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                work()

        threads = [threading.Thread(target=run) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_inc_is_atomic(self):
        c = MetricRegistry().counter("hits")
        self._hammer(lambda: c.inc())
        assert c.value == self.THREADS * self.ITERATIONS

    def test_gauge_add_is_atomic(self):
        g = MetricRegistry().gauge("level")
        self._hammer(lambda: g.add(1.0))
        assert g.value == self.THREADS * self.ITERATIONS

    def test_histogram_observe_is_atomic(self):
        h = MetricRegistry().histogram("lat", buckets=(0.5,))
        self._hammer(lambda: h.observe(1.0))
        expected = self.THREADS * self.ITERATIONS
        assert h.count == expected
        assert h.sum == pytest.approx(float(expected))
        assert h.cumulative_buckets()[-1][1] == expected

    def test_racy_first_access_yields_one_instance(self):
        registry = MetricRegistry()
        seen = []
        self._hammer(lambda: seen.append(registry.counter("shared")))
        assert all(c is seen[0] for c in seen)
