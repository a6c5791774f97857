"""Engine-profiler behaviour: sampling, sites, stacks, installation."""

import signal
import sys
import time

import pytest

from repro.prof import EngineProfiler, current_profiler, installed_profiler
from repro.prof.profiler import frame_phase
from repro.simengine import AllOf, Delay, Interrupt, Simulator
from repro.simengine.resource import Resource, Store


def _pingpong_sim(profile):
    if profile:
        with installed_profiler():
            return _pingpong_sim(None)
    sim = Simulator()
    store = Store(sim, name="mbox")

    def producer(sim):
        for i in range(5):
            yield Delay(0.5)
            store.put(i)

    def consumer(sim):
        got = []
        for _ in range(5):
            item = yield store.get()
            got.append(item)
        return got

    sim.spawn(producer(sim), name="rank0")
    cons = sim.spawn(consumer(sim), name="rank1")
    sim.run()
    return sim, cons


def _phases_seen(run):
    """Run ``run()`` under a profile hook; map each calling function's
    qualified name to the phases :func:`frame_phase` gives the frames
    captured while it runs. Independent of sample timing."""
    seen = {}

    def hook(frame, event, _arg):
        if event == "call":
            caller = frame.f_back
        elif event == "c_call":
            caller = frame
        else:
            return
        seen.setdefault(caller.f_code.co_qualname, set()).add(
            frame_phase(frame)
        )

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_attribution_covers_all_run_wall_time():
    """Samples inside ``Simulator.run`` add up to the run's wall time."""
    with installed_profiler() as prof:
        sim = Simulator()

        def ticker():
            t0 = time.perf_counter()  # simlint: ignore[SL201] — the test times the host
            while time.perf_counter() - t0 < 0.2:  # simlint: ignore[SL201]
                yield Delay(1.0)

        sim.spawn(ticker())
        t0 = time.perf_counter_ns()  # simlint: ignore[SL201]
        sim.run()
        wall_ns = time.perf_counter_ns() - t0  # simlint: ignore[SL201]
    assert prof.samples > 0
    assert prof.run_wall_ns == pytest.approx(wall_ns, rel=0.10)
    assert sum(prof.phase_self_ns.values()) == prof.run_wall_ns
    assert prof.events > 0
    assert sum(prof.kind_counts.values()) == prof.events


def test_phases_and_sites_are_named_and_normalized():
    sim, _ = _pingpong_sim(True)
    prof = sim.prof
    assert {"proc.delay", "proc.start"} <= set(prof.kind_counts)
    # Owners are digit-normalized: rank0/rank1 collapse to rank*.
    assert "proc.start:rank*" in prof.site_counts
    assert prof.site_counts["proc.start:rank*"] == 2
    assert not any(":rank0" in s or ":rank1" in s for s in prof.site_counts)


def test_frames_map_to_the_innermost_engine_function():
    """Every table function charges the frames below it to its phase;
    the run loop's own frame is queue time and a callback outside every
    subsystem is its event's kind (``""``)."""
    seen = _phases_seen(lambda: _pingpong_sim(None))
    assert seen["Store.put"] == {"store.put"}
    assert seen["Store.get"] == {"store.get"}
    assert seen["Event._dispatch"] == {"event.wake"}
    assert seen["Simulator.run"] == {"engine.queue", ""}
    assert seen["Process._resume_wakeup"] == {""}


def test_scheduling_edges_use_parent_bookkeeping():
    sim, _ = _pingpong_sim(True)
    edges = sim.prof.edge_counts
    # Spawns from outside the run loop have the external parent.
    assert edges.get("<external> -> proc.start:rank*") == 2
    # A delay wakeup scheduled by a previous delay wakeup.
    assert any(
        e.startswith("proc.delay:rank* ->") or
        e.startswith("proc.start:rank* -> proc.delay:rank*")
        for e in edges
    )


def test_stack_paths_collapse_self_recursion():
    sim, _ = _pingpong_sim(True)
    paths = sim.prof.stack_paths
    # Repeated delay wakeups of the same site must not grow the path.
    assert not any("proc.delay:rank*;proc.delay:rank*" in p for p in paths)
    assert "engine.queue" in paths


def test_resource_arbitration_phase():
    def run():
        sim = Simulator()
        res = Resource(sim, capacity=1, name="nic")

        def user(sim):
            yield from res.use(0.001)

        for i in range(3):
            sim.spawn(user(sim), name=f"u{i}")
        sim.run()

    seen = _phases_seen(run)
    assert seen["Resource.request"] == {"resource.request"}
    assert seen["Resource.release"] == {"resource.release"}


def test_engine_calls_outside_run_are_host_time():
    """Setup work before ``run()`` is not engine time."""
    def setup():
        Store(Simulator(), name="pre").put(1)

    assert _phases_seen(setup)["Store.put"] == {None}


def test_queue_depth_and_ready_set_metrics():
    sim, _ = _pingpong_sim(True)
    m = sim.prof.metrics
    assert m.histograms["engine.queue.depth"].n > 0
    sim.prof.finalize(None)
    assert m.histograms["engine.ready_set.size"].n > 0


def test_cancel_counting():
    with installed_profiler():
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
    assert sim.prof.cancels == 1


def test_raw_queue_push_is_named_by_its_callback():
    with installed_profiler():
        sim = Simulator()
        sim._queue.push(0.0, lambda: None)  # raw push: not a schedule site
        sim.run()
    assert sim.prof.site_counts == {
        "engine.callback:test_raw_queue_push_is_named_by_its_callback.<lambda>": 1
    }


def test_schedule_key_and_qualname_labels():
    with installed_profiler():
        sim = Simulator()

        def tick():
            return None

        sim.schedule(0.0, tick)
        sim.schedule(0.0, tick, key="calib")
        sim.run()
    sites = sim.prof.site_counts
    # Unkeyed: function qualname (digits normalized); keyed: the key.
    assert any("tick" in s for s in sites)
    assert "engine.callback:calib" in sites


def test_process_wakeups_are_named_by_kind():
    with installed_profiler():
        sim = Simulator()

        def sleeper(sim):
            try:
                yield Delay(5.0)
            except Interrupt:
                yield  # bare reschedule

        def idler(sim):
            yield AllOf([])

        proc = sim.spawn(sleeper(sim), name="s1")
        sim.spawn(idler(sim), name="i1")
        sim.schedule(1.0, proc.interrupt)
        sim.run()
    sites = sim.prof.site_counts
    assert sites["proc.interrupt:s*"] == 1
    assert sites["proc.yield:s*"] == 1
    assert sites["proc.resume:i*"] == 1
    assert sites["engine.callback:Process.interrupt"] == 1


def test_install_uninstall_and_context_manager():
    assert current_profiler() is None
    with installed_profiler() as inner:
        assert current_profiler() is inner
        # Simulators constructed now pick it up by default.
        assert Simulator().prof is inner
        nested = EngineProfiler()
        with installed_profiler(nested):
            assert current_profiler() is nested
        assert current_profiler() is inner
    assert current_profiler() is None
    assert Simulator().prof is None


def test_profiled_run_is_simulation_identical():
    sim_off, cons_off = _pingpong_sim(None)
    sim_on, cons_on = _pingpong_sim(True)
    assert sim_off.prof is None and sim_on.prof is not None
    assert sim_on.now == sim_off.now
    assert cons_on.done.value == cons_off.done.value == [0, 1, 2, 3, 4]


def test_raising_callback_disarms_timer_before_restoring_handler(monkeypatch):
    previous = signal.getsignal(signal.SIGALRM)
    restores = []
    real_signal = signal.signal

    def spy(signum, handler):
        if handler is previous:
            restores.append(signal.getitimer(signal.ITIMER_REAL))
        return real_signal(signum, handler)

    monkeypatch.setattr(signal, "signal", spy)

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        with installed_profiler():
            assert signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0)
            sim = Simulator()
            sim.schedule(1.0, boom)
            sim.run()
    assert restores == [(0.0, 0.0)]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert current_profiler() is None
