"""Sampled wall-clock attribution of simulator execution.

# simlint: ignore-file[SL201] — this module *is* the wall-clock
# instrument: every ``perf_counter_ns`` read here measures the host cost
# of the engine, never simulated time.

The :class:`EngineProfiler` answers "where does the *host's* wall time
go while the discrete-event engine runs?" — the simulator-of-the-
simulator instrument of Cornebize & Legrand's calibration loop. The
engine carries no probes; two halves live here:

* **Sampled wall time.** :func:`installed_profiler` arms a ``SIGALRM``
  interval timer. Each sample walks the interrupted stack to the
  innermost function of :data:`_PHASE_OF_CODE` (resource arbitration,
  store traffic, the event wake fan-out, the run loop itself) and
  charges it the wall time since the previous sample. A sample in an
  event callback outside those subsystems goes to the event's kind, and
  every sample in a callback also goes to the event's site, scheduling
  edge and ancestry path. A sample with no ``Simulator.run`` frame on
  the stack is host time. A phase with *n* samples is known to about
  ``1/sqrt(n)``.
* **Deterministic counts.** The run loop calls :meth:`on_event` once per
  dispatched event. It names the event by its callback — a process's
  start, delay wakeup, bare-``yield`` reschedule, interrupt or
  empty-barrier resume, else an ``engine.callback`` named by its
  tie-break key or the callback's qualified name — and links it to the
  event that scheduled it (``entry.parent``, the simrace bookkeeping):
  kind, site and edge counts, collapsed ancestry stacks
  (flamegraph.pl-compatible) and the sim-time metrics, byte-stable run
  to run.
"""

from __future__ import annotations

import re
import signal
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from types import CodeType, FrameType
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.prof.metrics import POW2_BUCKETS, MetricsRegistry
from repro.simengine.event import Event
from repro.simengine.process import Process
from repro.simengine.resource import Resource, Store
from repro.simengine.simulator import Simulator

__all__ = [
    "EngineProfiler",
    "SAMPLE_INTERVAL_S",
    "current_profiler",
    "frame_phase",
    "installed_profiler",
]

#: Wall-clock sampling period: 4 kHz, ~40 samples for a 10 ms companion
#: run. ``ITIMER_REAL`` keeps this resolution where ``ITIMER_PROF`` tops
#: out near 250 Hz. Each sample costs tens of microseconds of signal
#: delivery and stack walk, so a finer period buys little accuracy for
#: much overhead.
SAMPLE_INTERVAL_S = 0.00025

#: Dispatched events between two points of the queue-depth time series.
_DEPTH_SERIES_EVERY = 64

#: Logged values past which a sample folds the log into the metrics.
_LOG_LIMIT = 1 << 16

#: Owner names collapse to sites: ``rank17`` → ``rank*``.
_DIGITS = re.compile(r"\d+")

#: Ancestry stacks deeper than this reuse the parent's path.
_MAX_STACK_SEGMENTS = 24

#: Engine functions a sample is charged to when innermost on the stack.
#: ``Simulator.run`` is the outermost: its own frame is queue time.
_PHASE_OF_CODE: Dict[CodeType, str] = {
    Resource.request.__code__: "resource.request",
    Resource.release.__code__: "resource.release",
    Store.put.__code__: "store.put",
    Store.get.__code__: "store.get",
    Event._dispatch.__code__: "event.wake",
    Simulator.run.__code__: "engine.queue",
}
_RUN_CODE = Simulator.run.__code__

#: Process wakeup methods → event kind.
_PROC_METHODS = {
    Process._start: "proc.start",
    Process._resume_wakeup: "proc.delay",
    Process._resume_yield: "proc.yield",
}

#: The lambdas ``Process`` schedules → (event kind, index of the closure
#: cell holding the process).
_PROC_LAMBDAS: Dict[CodeType, Tuple[str, int]] = {
    code: (kind, code.co_freevars.index("self"))
    for func, kind in ((Process.interrupt, "proc.interrupt"),
                       (Process._wait_all, "proc.resume"))
    for code in func.__code__.co_consts
    if isinstance(code, CodeType) and code.co_name == "<lambda>"
}


def _label(callback: Any, key: str) -> Tuple[str, str]:
    """``(kind, owner)`` of a callback that is not a process method."""
    lam = _PROC_LAMBDAS.get(getattr(callback, "__code__", None))
    if lam is not None:
        return lam[0], callback.__closure__[lam[1]].cell_contents.name
    return "engine.callback", key or getattr(
        callback, "__qualname__", type(callback).__name__
    ).replace("<locals>.", "")


def frame_phase(frame: Optional[FrameType]) -> Optional[str]:
    """The phase of a sample taken at ``frame``: the innermost
    :data:`_PHASE_OF_CODE` function on the stack; ``""`` inside an event
    callback outside every subsystem (the event's kind); ``None`` with no
    ``Simulator.run`` on the stack (host time)."""
    phase = None
    f = frame
    while f is not None:
        code = f.f_code
        if code is _RUN_CODE:
            if phase is not None:
                return phase
            return "engine.queue" if f is frame else ""
        if phase is None:
            phase = _PHASE_OF_CODE.get(code)
        f = f.f_back
    return None


class EngineProfiler:
    """Sampled engine wall time and deterministic event counts.

    ``*_ns`` values are host-clock nanoseconds and vary run to run;
    :attr:`metrics` and :meth:`deterministic_dict` depend on the
    simulation alone (``tests/prof/test_determinism.py``).
    """

    def __init__(self) -> None:
        #: phase / collapsed stack path → sampled self nanoseconds.
        self.phase_self_ns: Dict[str, int] = {}
        self.stack_self_ns: Dict[str, int] = {}
        #: sampled ns inside ``Simulator.run`` (= sum of phases) and
        #: outside it; wall ns the sampler was armed for.
        self.run_wall_ns = 0
        self.host_ns = 0
        self.wall_ns = 0
        self.samples = 0
        self.sims = 0
        self._metrics = MetricsRegistry()
        self._h_depth = self._metrics.histogram(
            "engine.queue.depth", POW2_BUCKETS
        )
        self._h_ready = self._metrics.histogram(
            "engine.ready_set.size", POW2_BUCKETS
        )
        self._depth_series = self._metrics.time_series("engine.queue.depth")
        self._queues: List[Any] = []
        #: (parent node, wakeup method or kind, owner) → [count, node,
        #: kind, site, path, edge, sampled ns], shared by every owner
        #: that normalizes alike; a node indexes the (path, site) pairs.
        self._transitions: Dict[Tuple[int, Any, str], List[Any]] = {}
        self._node_ids: Dict[Tuple[str, str], int] = {}
        self._nodes: List[Tuple[str, str]] = []
        #: seq → node of each dispatched event; -1 for pushes made
        #: outside the run loop.
        self._node_of_seq: Dict[int, int] = {-1: -1}
        #: the transition of the event being dispatched.
        self._cur: Optional[List[Any]] = None
        #: ``sim time, queue depth`` per event not yet folded into the
        #: metrics, flat: appending is all the hook pays for them.
        self._log: List[float] = []
        self._folded = 0
        self._depths: Counter = Counter()
        self._ready: Counter = Counter()
        self._batch_time: Optional[float] = None
        self._batch_size = 0
        self._last = 0
        self._in_alarm = False

    # -- engine hooks ------------------------------------------------------
    def attach_sim(self, sim: Any) -> None:
        """Called by ``Simulator.__init__`` when this profiler is installed."""
        self.sims += 1
        self._queues.append(sim._queue)

    def on_event(self, item: tuple, depth: int) -> None:
        """Called by the run loop before the heap ``item``'s callback runs,
        with ``depth`` live entries left in the queue."""
        entry = item[5]
        cb = entry.callback
        try:
            func = cb.__func__
        except AttributeError:  # a plain function or lambda
            func = None
        if func in _PROC_METHODS:
            kind, owner = func, cb.__self__.name
        else:
            kind, owner = _label(cb, item[2])
        node_of_seq = self._node_of_seq
        try:
            key = (node_of_seq[entry.parent], kind, owner)
        except KeyError:  # pushed by an event this profiler did not see
            key = (-1, kind, owner)
        cur = self._transitions.get(key) or self._transition(key)
        cur[0] += 1
        node_of_seq[entry.seq] = cur[1]
        self._cur = cur
        self._log.extend((item[0], depth))

    def _transition(self, key: Tuple[int, Any, str]) -> List[Any]:
        """The transition for ``key``, shared with every owner that
        normalizes alike and filed under ``key`` itself, so later events
        of this owner skip the normalization."""
        pnode, kind, owner = key
        canon = (pnode, kind, _DIGITS.sub("*", owner))
        cur = self._transitions.get(canon)
        if cur is None:
            cur = self._transitions[canon] = self._new_transition(*canon)
        self._transitions[key] = cur
        return cur

    def _new_transition(self, pnode: int, kind: Any, norm: str) -> List[Any]:
        """The child's site, ancestry path and scheduling edge."""
        kind = _PROC_METHODS.get(kind, kind)
        site = f"{kind}:{norm}" if norm else kind
        parent_path, parent_site = (
            self._nodes[pnode] if pnode >= 0 else (None, "<external>")
        )
        if parent_path is None:
            path = site
        elif (parent_path == site or parent_path.endswith(";" + site)
              or parent_path.count(";") + 2 > _MAX_STACK_SEGMENTS):
            path = parent_path  # self-recursion or depth cap: collapse
        else:
            path = parent_path + ";" + site
        node = self._node_ids.setdefault((path, site), len(self._nodes))
        if node == len(self._nodes):
            self._nodes.append((path, site))
        return [0, node, kind, site, path, f"{parent_site} -> {site}", 0]

    def _fold(self) -> None:
        """Fold the logged events into the metrics: queue depth per event,
        a series point every ``_DEPTH_SERIES_EVERY`` events, and ready
        sets — runs of consecutive events at one timestamp (the last run
        stays open until :meth:`finalize`)."""
        if not self._log:
            return
        log = np.array(self._log, dtype=np.float64)
        del self._log[:]
        times, depths = log[0::2], log[1::2].astype(np.int64)
        first = self._folded
        self._folded += len(times)
        start = _DEPTH_SERIES_EVERY - 1 - first % _DEPTH_SERIES_EVERY
        for t, depth in zip(times[start::_DEPTH_SERIES_EVERY].tolist(),
                            depths[start::_DEPTH_SERIES_EVERY].tolist()):
            self._depth_series.record(t, float(depth))
        cuts = np.flatnonzero(times[1:] != times[:-1]) + 1
        sizes = np.diff(cuts, prepend=0, append=len(times))
        if times[0] == self._batch_time:
            sizes[0] += self._batch_size
        elif self._batch_size:
            self._ready[self._batch_size] += 1
        self._batch_time, self._batch_size = float(times[-1]), int(sizes[-1])
        for counter, values in ((self._depths, depths),
                                (self._ready, sizes[:-1])):
            tally = np.bincount(values)
            for value in np.flatnonzero(tally).tolist():
                counter[value] += int(tally[value])

    # -- sampler -----------------------------------------------------------
    def _on_alarm(self, _signum: int, frame: Optional[FrameType]) -> None:
        """``SIGALRM`` handler: charge the wall time since the previous
        sample to the phase (and event) the interrupted stack is in. The
        weights tile the armed wall time, the sampler's own cost
        included, so the attribution reconciles with the wall clock."""
        if self._in_alarm:
            return  # a tick inside the handler: the next sample takes it
        self._in_alarm = True
        try:
            now = perf_counter_ns()
            weight, self._last = now - self._last, now
            self.samples += 1
            if len(self._log) > _LOG_LIMIT:
                self._fold()
            phase = frame_phase(frame)
            if phase is None:
                self.host_ns += weight
                return
            self.run_wall_ns += weight
            cur = self._cur
            if phase == "engine.queue" or cur is None:
                phase = path = "engine.queue"
            else:
                cur[6] += weight
                path = cur[4] + ";" + phase if phase else cur[4]
                phase = phase or cur[2]
            phases, stacks = self.phase_self_ns, self.stack_self_ns
            phases[phase] = phases.get(phase, 0) + weight
            stacks[path] = stacks.get(path, 0) + weight
        finally:
            self._in_alarm = False

    # -- views -------------------------------------------------------------
    @property
    def events(self) -> int:
        """Events dispatched by the simulators that picked this up."""
        return self._folded + len(self._log) // 2

    @property
    def metrics(self) -> MetricsRegistry:
        """The sim-time metrics registry, every logged event folded in."""
        self._fold()
        for hist, counts in ((self._h_depth, self._depths),
                             (self._h_ready, self._ready)):
            for value, n in sorted(counts.items()):
                hist.observe(value, n)
            counts.clear()
        return self._metrics

    def finalize(self, tracer: Optional[object] = None) -> None:
        """Close the open ready set and derive per-link utilization gauges
        from ``tracer``'s ``net.link[*].busy_s`` counters. Idempotent."""
        self._fold()
        if self._batch_size:
            self._ready[self._batch_size] += 1
            self._batch_time, self._batch_size = None, 0
        self.metrics.fill_link_utilization(tracer)

    def totals(self, field: str) -> Dict[str, Tuple[int, int]]:
        """Event ``field`` ("kind", "site" or "edge") → (sampled ns inside
        such events, event count)."""
        index = {"kind": 2, "site": 3, "edge": 5}[field]
        out: Dict[str, Tuple[int, int]] = {}
        unique = {id(cur): cur for cur in self._transitions.values()}
        for cur in unique.values():
            ns, n = out.get(cur[index], (0, 0))
            out[cur[index]] = (ns + cur[6], n + cur[0])
        return {k: v for k, v in sorted(out.items()) if v[1]}

    @property
    def kind_counts(self) -> Dict[str, int]:
        return {k: n for k, (_, n) in self.totals("kind").items()}

    @property
    def site_counts(self) -> Dict[str, int]:
        return {k: n for k, (_, n) in self.totals("site").items()}

    @property
    def edge_counts(self) -> Dict[str, int]:
        return {k: n for k, (_, n) in self.totals("edge").items()}

    @property
    def phases(self) -> Dict[str, int]:
        """Sampled self ns per phase, listing every event kind that ran
        and ``engine.queue`` (0 when unsampled), so short profiles of one
        driver still line up in a diff."""
        out = dict.fromkeys(self.kind_counts, 0)
        if self.events:
            out["engine.queue"] = 0
        out.update(self.phase_self_ns)
        return dict(sorted(out.items()))

    @property
    def stack_paths(self) -> List[str]:
        """Every ancestry path an event ran under, plus ``engine.queue``."""
        paths = {path for path, _ in self._nodes}
        if self.events:
            paths.add("engine.queue")
        return sorted(paths)

    @property
    def cancels(self) -> int:
        """Entries cancelled before they fired: every push is dispatched,
        cancelled or still live."""
        pushed = sum(q._next_seq - q._live for q in self._queues)
        return pushed - self.events

    def deterministic_dict(self) -> dict:
        """The schedule-determined projection of this profile: the same
        bytes on every run of a deterministic driver."""
        return {
            "events": self.events,
            "sims": self.sims,
            "cancels": self.cancels,
            "kind_counts": self.kind_counts,
            "site_counts": self.site_counts,
            "edge_counts": self.edge_counts,
            "stack_paths": self.stack_paths,
        }


# A sample inside the per-event hook is run-loop bookkeeping.
_PHASE_OF_CODE[EngineProfiler.on_event.__code__] = "engine.queue"

#: The installed profiler (``None`` = off); new simulators pick it up.
_CURRENT: Optional[EngineProfiler] = None


def current_profiler() -> Optional[EngineProfiler]:
    """The installed profiler, or ``None`` when profiling is off."""
    return _CURRENT


@contextmanager
def installed_profiler(
    profiler: Optional[EngineProfiler] = None,
) -> Iterator[EngineProfiler]:
    """Install a profiler (a fresh one if not given) for a ``with`` block
    and sample the block's wall time every :data:`SAMPLE_INTERVAL_S`.

    On exit — also when the block raises — the timer is disarmed before
    the previous ``SIGALRM`` handler, timer and profiler are restored.
    Signals reach the main thread only: elsewhere the block collects the
    counts but no samples.
    """
    global _CURRENT
    prof = EngineProfiler() if profiler is None else profiler
    previous, _CURRENT = _CURRENT, prof
    sampling = threading.current_thread() is threading.main_thread()
    prof._last = t0 = perf_counter_ns()
    if sampling:
        old_handler = signal.signal(signal.SIGALRM, prof._on_alarm)
        old_timer = signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
    try:
        yield prof
    finally:
        if sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler or signal.SIG_DFL)
            if old_timer[0]:
                signal.setitimer(signal.ITIMER_REAL, *old_timer)
        prof.wall_ns += perf_counter_ns() - t0
        _CURRENT = previous
        if previous is not None:
            previous._last = perf_counter_ns()  # its samples resume now
