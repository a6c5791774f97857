"""Pending-event priority queue with deterministic tie-breaking.

Entries at the same timestamp are ordered by a three-level rule:

1. **keyed** entries (``push(..., key="...")``) fire before unkeyed ones,
   in lexicographic key order — an *explicit* tie-break that stays fixed
   under any permutation seed (the SL801 autofix inserts these);
2. **unkeyed** entries fire in insertion order (the monotone sequence
   number) — the historical FIFO behaviour;
3. under an installed **permutation seed** (:func:`set_tie_break_seed`),
   unkeyed entries are reordered *across* scheduling parents while
   insertion order is preserved *within* each parent. Program order —
   two pushes made by the same executing event — is a real
   happens-before edge and must survive; the relative order of events
   scheduled by unrelated parents is exactly the arbitrariness the
   ``repro race`` certifier (see :mod:`repro.simrace`) shakes.

Every entry records the ``seq`` of the entry that was executing when it
was pushed (``parent``; ``-1`` for pushes outside the run loop), which is
the scheduled-by edge of the happens-before relation used by
``Simulator(sanitize="race")``.

Hot-path layout (ROADMAP item 1): the heap holds plain tuples
``(time, group, key, rank1, rank2, entry)`` rather than comparable
entry objects, so every sift during ``heappush``/``heappop`` compares
natively in C — no Python-level ``__lt__`` calls on the hot path. The
tie-break *order* is exactly the three-level rule above:

* keyed entries:   ``(time, 0, key, seq,  0)``
* unkeyed (identity): ``(time, 1, "", seq,  seq)``
* unkeyed (permuted): ``(time, 1, "", mix(seed, parent), seq)``

``seq`` is unique, so the trailing :class:`_Entry` slot is never
compared. :class:`_Entry` remains the cancellable handle carrying the
callback and the race bookkeeping (``seq``, ``parent``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

_M64 = 0xFFFFFFFFFFFFFFFF

#: Installed tie-break permutation seed (``None`` = identity order).
#: Module-global like the installed tracer, so a seed installed by
#: ``repro race`` reaches simulators constructed deep inside drivers.
_PERM_SEED: Optional[int] = None


def set_tie_break_seed(seed: Optional[int]) -> Optional[int]:
    """Install a tie-break permutation seed; returns the previous one.

    ``None`` restores the identity order (pure insertion order among
    unkeyed same-time entries). Prefer the
    :func:`repro.simrace.tie_break_permutation` context manager, which
    restores the previous seed automatically.
    """
    global _PERM_SEED
    previous = _PERM_SEED
    _PERM_SEED = None if seed is None else int(seed)
    return previous


def tie_break_seed() -> Optional[int]:
    """The installed tie-break permutation seed, or ``None``."""
    return _PERM_SEED


def _mix(seed: int, parent: int) -> int:
    """Stable 64-bit mix of (seed, parent group) — splitmix64 finalizer."""
    x = (seed * 0x9E3779B97F4A7C15 + (parent + 1) * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class _Entry:
    """Cancellable handle for one scheduled callback.

    Ordering lives in the heap tuples (see module docstring); the entry
    itself carries the callback plus the scheduling provenance used by
    the race tracker and the profiler.
    """

    __slots__ = ("time", "seq", "parent", "callback", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        parent: int,
    ) -> None:
        self.time = time
        self.seq = seq
        self.parent = parent
        self.callback = callback
        self.cancelled = False


#: One heap item: ``(time, group, key, rank1, rank2, entry)``.
_Item = Tuple[float, int, str, int, int, _Entry]


class EventQueue:
    """Min-heap of timed callbacks; deterministic among equal timestamps.

    Entries may be cancelled lazily: :meth:`cancel` marks the entry and
    :meth:`pop` skips cancelled entries, so cancellation is O(1).
    """

    def __init__(self) -> None:
        self._heap: List[_Item] = []
        self._next_seq = 0
        self._live = 0
        # seq of the most recently popped entry: the scheduling parent of
        # every push made while its callback runs (-1 before the first pop).
        self._current_seq = -1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        key: Optional[str] = None,
    ) -> _Entry:
        """Schedule ``callback`` at ``time``; returns a cancellable handle.

        ``key`` pins the entry's order among same-time entries (keyed
        entries fire first, in key order) independent of any installed
        tie-break permutation.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = _Entry(time, seq, callback, self._current_seq)
        if key is not None:
            # Explicitly keyed: pinned order, immune to permutation.
            item = (time, 0, str(key), seq, 0, entry)
        elif _PERM_SEED is None:
            item = (time, 1, "", seq, seq, entry)
        else:
            # Permute across parents, keep FIFO within a parent.
            item = (time, 1, "", _mix(_PERM_SEED, self._current_seq), seq, entry)
        heappush(self._heap, item)
        self._live += 1
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Mark ``entry`` so it is skipped when popped."""
        if not entry.cancelled:
            entry.cancelled = True
            self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live entry, or ``None`` if empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Tuple[float, Callable[[], Any]]:
        """Remove and return ``(time, callback)`` of the earliest live entry.

        Also marks it as the current scheduling parent: pushes made while
        its callback runs record this entry's ``seq`` as their ``parent``.
        """
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        entry = heappop(self._heap)[5]
        # Mark consumed: a late cancel() on a handle whose entry already
        # fired (e.g. a fault injector sweeping its handle list at job
        # end) must be a no-op, not a spurious live-count decrement.
        entry.cancelled = True
        self._live -= 1
        self._current_seq = entry.seq
        return entry.time, entry.callback

    def shift_all(self, delta: float) -> None:
        """Postpone every pending entry by ``delta`` seconds.

        A uniform shift preserves both the heap invariant and the
        tie-breaking ranks, so no re-heapify is needed. Used by
        :meth:`~repro.simengine.simulator.Simulator.freeze` to model a
        global machine pause (coordinated checkpoint, crash recovery).
        """
        if delta == 0.0:
            return
        # Mutate in place: the run loop holds a direct reference to this
        # list, so rebinding ``self._heap`` would strand it mid-run.
        heap = self._heap
        for i, (time, group, key, r1, r2, entry) in enumerate(heap):
            heap[i] = (time + delta, group, key, r1, r2, entry)
            entry.time += delta

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][5].cancelled:
            heappop(heap)
