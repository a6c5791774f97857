"""Unit tests for the pending-event queue, drained by the one run loop.

``Simulator.run`` pops the heap inline, so these tests schedule through
the simulator and check the order in which its loop fires callbacks.
"""

from hypothesis import given, strategies as st

from repro.simengine import Simulator


def _at(sim, fired, time, label):
    """Schedule ``label`` at absolute ``time`` (the clock is still 0);
    firing appends ``(sim.now, label)`` to ``fired``. Returns the handle."""
    return sim.schedule(time, lambda: fired.append((sim.now, label)))


def test_empty_queue_is_falsy():
    sim = Simulator()
    assert not sim._queue
    assert len(sim._queue) == 0
    # Draining an empty queue fires nothing and leaves the clock at 0.
    assert sim.run() == 0.0


def test_orders_by_time():
    sim, fired = Simulator(), []
    _at(sim, fired, 3.0, "c")
    _at(sim, fired, 1.0, "a")
    _at(sim, fired, 2.0, "b")
    sim.run()
    assert [label for _, label in fired] == ["a", "b", "c"]


def test_fifo_among_equal_times():
    sim, fired = Simulator(), []
    for i in range(10):
        _at(sim, fired, 5.0, i)
    sim.run()
    assert [label for _, label in fired] == list(range(10))


def test_cancel_skips_entry():
    sim, fired = Simulator(), []
    _at(sim, fired, 1.0, "keep")
    drop = _at(sim, fired, 0.5, "drop")
    sim.cancel(drop)
    assert len(sim._queue) == 1
    sim.run()
    assert fired == [(1.0, "keep")]
    assert not sim._queue


def test_cancel_twice_is_idempotent():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    sim.cancel(e)
    sim.cancel(e)
    assert len(sim._queue) == 0


def test_run_skips_cancelled_head():
    sim, fired = Simulator(), []
    head = _at(sim, fired, 0.0, "head")
    _at(sim, fired, 2.0, "next")
    sim.cancel(head)
    sim.run()
    assert fired[0][0] == 2.0


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=200))
def test_pop_order_is_sorted(times):
    sim, fired = Simulator(), []
    for t in times:
        _at(sim, fired, t, None)
    sim.run()
    assert [t for t, _ in fired] == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.booleans()),
        max_size=100,
    )
)
def test_cancellation_property(entries):
    """Live count and firing sequence respect cancellations."""
    sim, fired = Simulator(), []
    handles = [(_at(sim, fired, t, None), t, cancel) for t, cancel in entries]
    expected = sorted(t for _, t, cancel in handles if not cancel)
    for h, _, cancel in handles:
        if cancel:
            sim.cancel(h)
    assert len(sim._queue) == len(expected)
    sim.run()
    assert [t for t, _ in fired] == expected
