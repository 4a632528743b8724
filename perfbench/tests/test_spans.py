"""The span tracer's self-time fold and its wrapping."""

import types

import pytest

from perfbench.spans import TARGETS, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_recorded_and_folded_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("outer")            # t = 0
    clock.now = 1.0
    child = tracer.open("child")            # recorded child, 1 -> 3
    clock.now = 2.0
    leaf = tracer.open("leaf", record=False)  # folded grandchild, 2 -> 2.5
    clock.now = 2.5
    tracer.close(leaf)
    clock.now = 3.0
    tracer.close(child)
    for start in (4.0, 5.0):                # two folded children of 0.25 s
        clock.now = start
        leaf = tracer.open("leaf", record=False)
        clock.now = start + 0.25
        tracer.close(leaf)
    clock.now = 10.0
    tracer.close(outer)

    assert tracer.total_s("outer") == 10.0
    assert tracer.self_s("outer") == pytest.approx(10.0 - 2.0 - 0.5)
    assert tracer.self_s("child") == pytest.approx(2.0 - 0.5)
    assert tracer.calls("leaf") == 3
    assert tracer.total_s("leaf") == pytest.approx(1.0)
    assert tracer.self_s("leaf") == pytest.approx(1.0)
    # Only recorded spans are kept individually, closed child first,
    # each pointing at its nearest recorded ancestor.
    (child_span, outer_span) = tracer.spans
    assert child_span[1] == "child" and child_span[4] == outer_span[0]
    assert outer_span[4] == -1
    assert outer_span[7] == 3 and child_span[7] == 1  # direct children


def test_spans_carry_the_current_cell():
    tracer = Tracer(clock=FakeClock())
    tracer.cell = "fifo/atax/shm"
    tracer.close(tracer.open("x"))
    assert tracer.spans[0][5] == "fifo/atax/shm"


def test_out_of_order_close_is_rejected():
    tracer = Tracer(clock=FakeClock())
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


class Widget:
    def work(self, x):
        return x * 2

    def boom(self):
        raise ValueError("boom")


def test_wrap_records_calls_and_unwrap_restores():
    tracer = Tracer()
    original = Widget.__dict__["work"]
    seen = []
    tracer.wrap(Widget, "work", "widget.work",
                on_enter=lambda self, x: seen.append(x))
    tracer.wrap(Widget, "boom", "widget.boom")
    assert Widget().work(21) == 42
    with pytest.raises(ValueError):
        Widget().boom()
    assert tracer.calls("widget.work") == 1
    assert tracer.calls("widget.boom") == 1  # closed despite the raise
    assert seen == [21]
    tracer.unwrap_all()
    assert Widget.__dict__["work"] is original


def test_wrap_module_function():
    module = types.ModuleType("fake")
    module.build = lambda name: name.upper()
    tracer = Tracer()
    tracer.wrap(module, "build", "workloads.build")
    assert module.build("atax") == "ATAX"
    assert tracer.calls("workloads.build") == 1
    tracer.unwrap_all()
    assert module.build.__name__ == "<lambda>"


def test_every_target_resolves_and_unwraps():
    import importlib

    before = {}
    for module_name, cls_name, attr, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        before[(module_name, cls_name, attr)] = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr))
    tracer = Tracer()
    tracer.install()
    tracer.unwrap_all()
    for (module_name, cls_name, attr), original in before.items():
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original
