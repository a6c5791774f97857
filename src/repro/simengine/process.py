"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simengine.event import AllOf, AnyOf, Delay, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.simengine.simulator import Simulator


class ProcessKilled(Exception):
    """Raised inside a process generator when the process is killed."""


def _combinator_desc(kind: str, waitables: Any) -> str:
    """Human-readable description of an AllOf/AnyOf's *pending* members."""
    names = []
    for w in waitables:
        evt = w.done if isinstance(w, Process) else w
        if not evt.triggered:
            names.append(evt.name or "<anonymous event>")
    shown = ", ".join(names[:4]) + (", ..." if len(names) > 4 else "")
    return f"{kind}({shown})"


def _describe(command: Any) -> str:
    """Deadlock-report description of a wait command (computed lazily —
    the hot path stores the command object and formats only when a
    sanitizer report or a wait span actually needs the string)."""
    if type(command) is Delay:
        return f"Delay({command.dt:g})"
    if isinstance(command, Event):
        return command.name or "<anonymous event>"
    if isinstance(command, Process):
        return f"process {command.name!r}"
    if isinstance(command, AllOf):
        return _combinator_desc("AllOf", command.events)
    if isinstance(command, AnyOf):
        return _combinator_desc("AnyOf", command.events)
    return repr(command)  # pragma: no cover - defensive


class Process:
    """A running simulation activity wrapping a generator.

    The generator advances each time the command it yielded completes. A
    process is itself waitable: other processes may ``yield proc`` to join
    it and receive its return value.
    """

    __slots__ = ("sim", "name", "key", "_gen", "done", "_waiting_cmd",
                 "_life_span", "_wait_span", "_epoch", "_waiting_event",
                 "_wait_handle")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
        key: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        #: Optional deterministic tie-break key: every wakeup this process
        #: schedules is pinned to fire in ``str(key)`` order among
        #: same-time keyed entries, ahead of unkeyed ones — immune to
        #: tie-break permutation (see :mod:`repro.simengine.queue`). Give
        #: mutually-racing processes distinct keys to make their
        #: interleaving schedule-invariant.
        self.key = key
        self._gen = gen
        #: Event triggered with the generator's return value on completion.
        self.done: Event = Event(sim, name=f"{self.name}.done")
        #: The command currently suspending this process (None when
        #: runnable/finished); :attr:`waiting_on` formats it on demand.
        self._waiting_cmd: Any = None
        self._life_span = None
        self._wait_span = None
        # Resumption epoch: every resume/throw bumps it, and every pending
        # wakeup carries the epoch it was armed under. A wakeup whose epoch
        # is stale (the process was interrupted and moved on) is dropped,
        # so an old Delay or event grant can never double-resume a process.
        self._epoch = 0
        #: The single Event currently suspending this process (None when
        #: waiting on a Delay / combinator or when runnable). Used to
        #: abandon the wait when an interrupt diverts the process.
        self._waiting_event: Optional[Event] = None
        #: Pending queue entry of a Delay / reschedule wait, cancelled if
        #: an interrupt diverts the process (so a dead sleep does not keep
        #: the simulation clock running).
        self._wait_handle = None
        tracer = sim.tracer
        if tracer is not None:
            # Process-lifetime span: spawn → completion (or kill).
            self._life_span = tracer.begin(
                f"proc/{self.name}", "proc.lifetime", sim.now
            )
            self.done.add_callback(self._end_life_span)
        # First step happens via the scheduler so that spawn() during a
        # callback cascade preserves deterministic ordering.
        sim._queue.push(sim.now, self._start, key=key)
        sim._register_process(self)

    # -- public ----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.done.triggered

    @property
    def waiting_on(self) -> Optional[str]:
        """Description of the command currently suspending this process
        (an event/store/resource name), or None when runnable/finished.
        Maintained for the sanitizers' deadlock reports."""
        cmd = self._waiting_cmd
        return None if cmd is None else _describe(cmd)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.alive:
            return
        self.sim._queue.push(
            self.sim.now, lambda: self._throw(Interrupt(cause)), key=self.key
        )

    def kill(self) -> None:
        """Terminate the process; its ``done`` event fails with ProcessKilled."""
        if not self.alive:
            return
        self._throw(ProcessKilled())

    # -- tracing ----------------------------------------------------------
    def _end_life_span(self, _event: Event) -> None:
        self.sim.tracer.end(self._life_span, self.sim.now)

    def _close_wait_span(self) -> None:
        if self._wait_span is not None:
            self.sim.tracer.end(self._wait_span, self.sim.now)
            self._wait_span = None

    # -- stepping ---------------------------------------------------------
    def _start(self) -> None:
        """Queue callback for the initial step (no epoch guard needed —
        nothing can race the very first resumption)."""
        self._step(None)

    def _step(self, send_value: Any) -> None:
        if self.done._triggered:
            return
        self._epoch += 1
        self._waiting_event = None
        if self._wait_span is not None:
            self._close_wait_span()
        self._waiting_cmd = None
        try:
            command = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except ProcessKilled as exc:
            self.done.fail(exc)
            return
        self._handle(command)

    def _throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        self._epoch += 1
        handle, self._wait_handle = self._wait_handle, None
        if handle is not None:
            self.sim._queue.cancel(handle)
        waited, self._waiting_event = self._waiting_event, None
        if waited is not None:
            # The process is diverted away from this wait: tell the
            # producer (a resource's grant queue, a store's getter list)
            # that nothing will ever consume the event.
            waited.abandon()
        self._close_wait_span()
        self._waiting_cmd = None
        try:
            command = self._gen.throw(exc)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except (ProcessKilled, Interrupt) as err:
            self.done.fail(err)
            return
        self._handle(command)

    def _handle(self, command: Any) -> None:
        sim = self.sim
        if type(command) is Delay:
            # Fused delay→resume: the wakeup is this bound method — no
            # per-wait closure, no epoch capture. An interrupt that
            # diverts the process *cancels* the queue entry (see
            # ``_throw``), so a fired delay entry is never stale.
            self._waiting_cmd = command
            self._wait_handle = sim._queue.push(
                sim.now + command.dt, self._resume_wakeup, key=self.key
            )
        elif isinstance(command, Event):
            # Staleness check by identity, not epoch: ``_waiting_event``
            # is cleared (and the wait abandoned) whenever the process
            # moves on, and a one-shot pending event can never be waited
            # on twice by the same process — so no per-wait closure.
            self._waiting_cmd = command
            self._waiting_event = command
            command.add_callback(self._resume_event_cb)
        elif isinstance(command, Process):
            self._waiting_cmd = command
            epoch = self._epoch
            command.done.add_callback(
                lambda e: self._resume_from_event(epoch, e)
            )
        elif isinstance(command, AllOf):
            self._waiting_cmd = command
            self._wait_all(command, self._epoch)
        elif isinstance(command, AnyOf):
            self._waiting_cmd = command
            self._wait_any(command, self._epoch)
        elif command is None:
            # ``yield`` with no argument: cooperative reschedule "now".
            self._wait_handle = sim._queue.push(
                sim.now, self._resume_yield, key=self.key
            )
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
        tracer = sim.tracer
        if (
            tracer is not None
            and tracer.wait_spans
            and self._waiting_cmd is not None
        ):
            self._wait_span = tracer.begin(
                f"proc/{self.name}", f"wait:{self.waiting_on}", sim.now
            )

    def _resume_wakeup(self) -> None:
        """Wakeup for a Delay wait. No staleness check: the entry is
        cancelled (never fires) when an interrupt or kill diverts the
        process."""
        self._wait_handle = None
        self._step(None)

    def _resume_yield(self) -> None:
        """Wakeup for a bare ``yield``: the same step under its own name,
        so the queued callback alone tells a reschedule from a delay."""
        self._resume_wakeup()

    def _resume(self, epoch: int, value: Any) -> None:
        self._wait_handle = None  # this entry just fired
        if epoch != self._epoch:
            return  # stale wakeup: the process was interrupted meanwhile
        self._step(value)

    def _resume_event_cb(self, event: Event) -> None:
        """Wakeup for a single-Event wait (see ``_handle``)."""
        if event is not self._waiting_event:
            return  # stale wakeup: the process was interrupted meanwhile
        if event.failed:
            self._throw(event.failure)  # type: ignore[arg-type]
        else:
            self._step(event.value)

    def _resume_from_event(self, epoch: int, event: Event) -> None:
        if epoch != self._epoch:
            return  # stale wakeup: the process was interrupted meanwhile
        if event.failed:
            self._throw(event.failure)  # type: ignore[arg-type]
        else:
            self._step(event.value)

    def _wait_all(self, barrier: AllOf, epoch: int) -> None:
        events = [e.done if isinstance(e, Process) else e for e in barrier.events]
        if not events:
            self.sim._queue.push(
                self.sim.now, lambda: self._resume(epoch, []), key=self.key
            )
            return
        remaining = {"n": len(events)}

        def on_trigger(_evt: Event) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0 and epoch == self._epoch:
                failures = [e.failure for e in events if e.failed]
                if failures:
                    self._throw(failures[0])  # type: ignore[arg-type]
                else:
                    self._step([e.value for e in events])

        for evt in events:
            evt.add_callback(on_trigger)

    def _wait_any(self, race: AnyOf, epoch: int) -> None:
        events = [e.done if isinstance(e, Process) else e for e in race.events]
        fired = {"done": False}

        def on_trigger(evt: Event) -> None:
            if fired["done"] or epoch != self._epoch:
                return
            fired["done"] = True
            if evt.failed:
                self._throw(evt.failure)  # type: ignore[arg-type]
            else:
                self._step((events.index(evt), evt.value))

        for evt in events:
            evt.add_callback(on_trigger)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
