"""Events and waitable combinators for the simulation kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simengine.simulator import Simulator


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once, delivering ``value`` to every waiter. Waiting
    on an already-triggered event resumes the waiter immediately (at the
    current simulation time), which makes rendezvous code race-free.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_failure",
                 "name", "_abandoned", "_abandon_cb")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[[Event], None]] = []
        self._triggered = False
        self._value: Any = None
        self._failure: Optional[BaseException] = None
        self._abandoned = False
        self._abandon_cb: Optional[Callable[["Event"], None]] = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value delivered on success (``None`` until triggered)."""
        return self._value

    @property
    def failed(self) -> bool:
        return self._failure is not None

    @property
    def failure(self) -> Optional[BaseException]:
        return self._failure

    @property
    def abandoned(self) -> bool:
        """Whether the waiter gave up on this event (see :meth:`abandon`)."""
        return self._abandoned

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, resuming all waiters with ``value``."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as a failure; waiters receive ``exc`` raised."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._failure = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # -- abandonment ----------------------------------------------------
    def on_abandon(self, cb: Callable[["Event"], None]) -> None:
        """Register a hook run if the waiter abandons this pending event.

        Producers that queue state per waiter (a :class:`Resource` grant,
        a :class:`Store` getter) use the hook to drop their bookkeeping,
        so an interrupted process never receives a slot or a message it
        can no longer consume.
        """
        self._abandon_cb = cb

    def abandon(self) -> None:
        """Declare that nothing will ever consume this event.

        Called when the waiting process is interrupted or killed, or when
        a timeout race is lost. No-op on already-triggered (or already
        abandoned) events.
        """
        if self._triggered or self._abandoned:
            return
        self._abandoned = True
        cb, self._abandon_cb = self._abandon_cb, None
        if cb is not None:
            cb(self)

    # -- waiting --------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb``; fires immediately if already triggered."""
        if self._triggered:
            cb(self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state} @t={self.sim.now:.9g}>"


class Delay:
    """Command object: suspend the yielding process for ``dt`` sim-seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative delay {dt!r}")
        self.dt = float(dt)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delay({self.dt!r})"


class AllOf:
    """Barrier combinator: resumes when *all* the given waitables trigger.

    The resumed process receives a list of the events' values in the order
    the waitables were given.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)


class AnyOf:
    """Race combinator: resumes when *any* of the given waitables triggers.

    The resumed process receives ``(index, value)`` of the first trigger.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause
