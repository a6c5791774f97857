"""The engine's hot-path data contracts, checked on a running simulation.

Two layouts the run loop's speed rests on (docs/PERFORMANCE.md):

* every :class:`~repro.simengine.queue.EventQueue` heap entry is a flat
  ``(time, group, key, rank1, rank2, entry)`` tuple, so each sift
  compares natively instead of dispatching a Python ``__lt__``;
* every instance of a class that declares ``__slots__`` has no
  ``__dict__`` — a subclass that forgets its own ``__slots__`` would
  silently bring the per-instance dict back.
"""
# The scenario holds a Resource without try/finally on purpose: nothing
# interrupts it.
# simlint: ignore-file[SL501]

import gc

from repro.machine import xt4
from repro.mpi import MPIJob
from repro.simengine import (
    Delay,
    Event,
    Process,
    Resource,
    Simulator,
    Store,
    queue,
    with_timeout,
)


def _engine_scenario():
    """Resources, a store and timeouts that both fire and expire."""
    sim = Simulator()
    nic = Resource(sim, capacity=1, name="nic")
    inbox = Store(sim, name="inbox")
    outcomes = []

    def producer(n):
        for i in range(n):
            yield nic.request()
            yield Delay(1.0)
            nic.release()
            inbox.put(i)

    def consumer(timeout_s):
        while True:
            ok, item = yield from with_timeout(sim, inbox.get(), timeout_s)
            outcomes.append((ok, item))
            if not ok:
                return

    sim.spawn(producer(3))
    sim.spawn(producer(2))
    sim.spawn(consumer(2.5))
    sim.schedule(0.5, sim.event(name="tick").succeed, key="tick")
    sim.run()
    assert (False, None) in outcomes and (True, 0) in outcomes
    return sim


def _mpi_scenario():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 4096, dest=1)
        elif comm.rank == 1:
            yield from comm.recv(source=0)
        return (yield from comm.allreduce(comm.rank))

    return MPIJob(xt4("SN"), 4).run(main)


def _record_heap_pushes(monkeypatch):
    pushed = []
    real = queue.heappush

    def recording(heap, item):
        pushed.append(item)
        real(heap, item)

    monkeypatch.setattr(queue, "heappush", recording)
    return pushed


def test_every_heap_entry_is_a_flat_six_tuple(monkeypatch):
    pushed = _record_heap_pushes(monkeypatch)
    _engine_scenario()
    _mpi_scenario()
    assert len(pushed) > 20
    for item in pushed:
        assert type(item) is tuple and len(item) == 6, item
        time, group, key, rank1, rank2, entry = item
        assert isinstance(time, (int, float)) and group in (0, 1)
        assert type(key) is str
        assert type(rank1) is int and type(rank2) is int
        assert type(entry) is queue._Entry


def _slotted(cls):
    """True when a project class in ``cls``'s MRO declares ``__slots__``."""
    return any(
        "__slots__" in vars(k) and k.__module__.startswith("repro.")
        for k in cls.__mro__
    )


def test_slotted_engine_objects_have_no_instance_dict(monkeypatch):
    # These locals keep both runs alive for the scan: the recorded pushes
    # hold every entry and, through its bound callback, the events and
    # processes it would have resumed.
    pushed = _record_heap_pushes(monkeypatch)  # noqa: F841
    sim = _engine_scenario()  # noqa: F841
    _mpi_scenario()
    seen = set()
    with_dict = []
    for obj in gc.get_objects():
        cls = type(obj)
        if not _slotted(cls):
            continue
        seen.add(cls)
        if hasattr(obj, "__dict__"):
            with_dict.append(f"{cls.__module__}.{cls.__qualname__}")
    assert not with_dict, sorted(set(with_dict))
    assert {Event, Process, Resource, Store, queue._Entry} <= seen
