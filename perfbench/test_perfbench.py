"""Tests for the benchmark's own helpers (no podag workload runs here)."""

import threading
import types

import pytest

import bench_util
import spans


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_util.tail_percentile(range(99)) is None
    assert bench_util.tail_percentile(range(100)) == (90.0, 89)
    # p99 needs 1000 samples: rank 990 leaves exactly 10 beyond it
    assert bench_util.tail_percentile(range(999)) == (90.0, 899)
    assert bench_util.tail_percentile(range(1000)) == (99.0, 989)
    assert bench_util.tail_percentile(range(10000)) == (99.9, 9989)


def test_tail_percentile_of_a_learn_run_is_none():
    assert bench_util.tail_percentile([3.1, 3.2, 2.9, 3.0, 3.3, 3.1, 3.0, 2.8]) is None


@pytest.mark.parametrize("name", ["setup_s", "stats.cov_calls", "a", "9-x_y.z", "x" * 64])
def test_check_name_accepts(name):
    assert bench_util.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "µs", "a/b", "x" * 65, None])
def test_check_name_rejects(name):
    with pytest.raises(ValueError):
        bench_util.check_name(name)


def _toy_module(clock):
    """inner takes 2 ticks; outer takes 1 + inner + 3 ticks."""
    mod = types.ModuleType("toy")

    def inner():
        clock[0] += 2.0
        return "inner"

    def outer():
        clock[0] += 1.0
        mod.inner()
        clock[0] += 3.0
        return "outer"

    mod.inner = inner
    mod.outer = outer
    return mod


@pytest.fixture
def fake_clock(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: clock[0])
    return clock


def test_self_time_is_duration_minus_children(fake_clock):
    mod = _toy_module(fake_clock)
    tracer = spans.Tracer()
    tracer.wrap([mod], "outer", "a.outer", "a", fit="fit")
    tracer.wrap([mod], "inner", "b.inner", "b")
    with tracer:
        assert mod.outer() == "outer"
    log = tracer.snapshot()
    assert log.spans[("fit", "a.outer")] == [1, 6.0, 4.0]
    assert log.spans[("fit", "b.inner")] == [1, 2.0, 2.0]
    assert log.layer_time[("fit", "a")] == 6.0
    assert log.layer_time[("fit", "b")] == 2.0
    assert log.busy == 6.0


def test_same_layer_child_is_not_counted_twice(fake_clock):
    mod = _toy_module(fake_clock)
    tracer = spans.Tracer()
    tracer.wrap([mod], "outer", "a.outer", "a")
    tracer.wrap([mod], "inner", "a.inner", "a")
    with tracer:
        mod.outer()
        mod.inner()
    log = tracer.snapshot()
    assert log.layer_time[(None, "a")] == 8.0
    assert log.spans[(None, "a.inner")] == [2, 4.0, 4.0]


def test_dispatcher_spans_are_not_busy(fake_clock):
    mod = _toy_module(fake_clock)
    tracer = spans.Tracer()
    tracer.wrap([mod], "outer", "a.outer", "a", dispatcher=True)
    tracer.wrap([mod], "inner", "b.inner", "b")
    with tracer:
        mod.outer()
    assert tracer.snapshot().busy == 2.0


def test_restore_puts_back_every_attribute():
    mod = _toy_module([0.0])
    alias = types.ModuleType("alias")
    alias.inner = mod.inner
    originals = (mod.outer, mod.inner)

    class Engine:
        def query(self):
            return 1

    query = Engine.__dict__["query"]
    tracer = spans.Tracer()
    tracer.wrap([mod], "outer", "a.outer", "a")
    tracer.wrap([mod, alias], "inner", "a.inner", "a")
    tracer.wrap([Engine], "query", "e.query", "e")
    tracer.set_attribute(Engine, "phase", None)
    with tracer:
        assert mod.inner is alias.inner is not originals[1]
        assert Engine.phase is None
        assert Engine().query() == 1
    assert (mod.outer, mod.inner, alias.inner) == (originals[0], originals[1], originals[1])
    assert Engine.__dict__["query"] is query
    assert not hasattr(Engine, "phase")


def test_restore_after_an_exception_and_errors_are_counted():
    mod = types.ModuleType("m")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    tracer = spans.Tracer()
    tracer.wrap([mod], "boom", "m.boom", "m")
    with pytest.raises(KeyError):
        with tracer:
            mod.boom()
    assert mod.boom is boom
    log = tracer.snapshot()
    assert log.errors[("m.boom", "KeyError")] == 1
    assert log.spans[(None, "m.boom")][0] == 1


def test_owners_must_bind_the_same_object():
    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f, b.f = (lambda: 1), (lambda: 2)
    with pytest.raises(ValueError):
        spans.Tracer().wrap([a, b], "f", "x.f", "x")


def test_threads_get_separate_stacks_and_merge():
    mod = _toy_module([0.0])
    tracer = spans.Tracer()
    tracer.wrap([mod], "outer", "a.outer", "a")
    with tracer:
        workers = [threading.Thread(target=mod.outer) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
    assert tracer.snapshot().spans[(None, "a.outer")][0] == 4
