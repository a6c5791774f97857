"""Interrupt-safe critical sections for on-disk state.

The result cache, the race-certificate cache, the campaign journal and
the campaign manifest all follow the same discipline: build the new
bytes off to the side, then publish them with a single atomic step
(``os.replace`` or one ``O_APPEND`` write). The one hole left is the
operator's Ctrl-C landing *inside* the critical section: CPython raises
``KeyboardInterrupt`` at an arbitrary bytecode boundary, which can
abandon a temp file or tear the append between ``write`` and ``fsync``.

:func:`defer_sigint` closes that hole. Inside the block SIGINT is
parked; on exit the previous handler is restored and, if a signal
arrived meanwhile, it is delivered — so the interrupt is *deferred*,
never lost. The window is a few milliseconds of file I/O, so
interactivity is unaffected.

:func:`atomic_write_text` is the one temp-file + ``os.replace`` publish
every whole-file writer uses (the journal appends instead): the text is
written to a ``.tmp-*`` sibling and renamed over the target under
:func:`defer_sigint`, so readers see the old file or the new one, never
a torn one, and an interrupted write leaves no temp file behind.

Worker threads and exotic embeddings cannot (and need not) install
signal handlers; there the context manager is a no-op and the caller
falls back on the atomic-publish discipline alone.
"""

from __future__ import annotations

import os
import pathlib
import signal
import tempfile
import threading
from contextlib import contextmanager
from typing import Iterator, Union

__all__ = ["atomic_write_text", "defer_sigint"]


@contextmanager
def defer_sigint() -> Iterator[None]:
    """Hold SIGINT for the duration of the block, then deliver it.

    Re-entrant: a nested block simply keeps the outer parking handler.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    received = []

    def _park(signum, frame):  # pragma: no cover - trivial
        received.append((signum, frame))

    try:
        previous = signal.signal(signal.SIGINT, _park)
    except ValueError:  # non-main interpreter thread
        yield
        return
    if previous is _park:  # nested defer_sigint: outer block owns delivery
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if received:
            if callable(previous) and previous not in (
                signal.SIG_DFL, signal.SIG_IGN
            ):
                previous(*received[0])
            else:
                raise KeyboardInterrupt


def atomic_write_text(
    path: Union[str, pathlib.Path], text: str
) -> pathlib.Path:
    """Publish ``text`` at ``path`` atomically; returns the path.

    Creates the parent directory if needed. The temp file lives beside
    the target (same filesystem, so the rename is atomic) and is removed
    if anything — an interrupt included — stops the publish.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with defer_sigint():
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
