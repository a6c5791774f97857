"""The campaign worker: drain cells until the queue is dry.

One worker is one host process: forked from the coordinator by
``repro campaign run --workers N``, started by hand as ``repro campaign
worker <id>`` (to join a drain from another host), or, with
``--workers 0``, the coordinator itself. Before its first claim the
worker imports every driver module and hashes the model tree
(:func:`warm`), so every cell child it forks inherits them instead of
importing and hashing again. The drain loop:

1. **claim** — walk the cells in manifest order and take the first
   claimable one: ``pending``; ``failed`` whose backoff window has
   expired (and with attempts left); or ``leased`` with a stale
   heartbeat whose flock can actually be acquired — i.e. a *stale lease
   from a dead worker*, which is stolen. Claiming = acquire the cell's
   :class:`~repro.campaign.leases.Lease`, then re-check and append the
   ``leased`` journal record under the journal lock, so the
   read-modify-append is atomic against every other worker.
2. **execute** — run the cell in a forked child process
   (:func:`_cell_main`) so a wall-clock timeout can SIGKILL a wedged
   cell without taking the worker down. The parent beats the lease
   heartbeat between joins. The child hands the cell to
   :class:`~repro.runner.ExperimentRunner` — the same key, cache
   lookup, fault-plan install and cache entry as ``repro all`` — so
   warm cells are served from the content-addressed result cache (zero
   driver executions — this is what makes resume cheap and crash dedup
   free) and a raising driver comes back as a failed outcome.
3. **settle** — append ``done`` (with the result's cache key) or
   ``failed`` (with a deterministic exponential backoff + jitter drawn
   from ``rng.fork(f"campaign.retry.{cell}.{n}")``, so every worker
   everywhere computes the same schedule). A cell that reaches
   ``max_attempts`` failures folds to *quarantined* and is never picked
   again — one poison cell degrades the campaign, it cannot wedge it.

The loop exits when every cell is terminal (``done``/quarantined), when
its ``--max-cells``/``--max-seconds`` slice budget is spent (LMPResume-
style max-time slicing: the journal is left resumable), or on
SIGTERM/SIGINT — in-flight work is killed and left ``leased``; the
lease flock dies with the worker, so a resume steals it without burning
a retry attempt.

Chaos-testing hook: ``REPRO_CAMPAIGN_CELL_DELAY_S`` makes every cell
child sleep before executing, giving kill-mid-cell tests a reliable
window. It is read only in the child and defaults to off.
"""
# Wall-clock reads are deliberate: the worker schedules host processes
# (timeouts, heartbeats, backoff), not simulated time.
# simlint: ignore-file[SL201]

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign.cells import Cell
from repro.campaign.journal import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    CellState,
    Journal,
)
from repro.campaign.leases import Lease, heartbeat_age
from repro.core.registry import all_experiments, get_experiment
from repro.runner.cache import ResultCache
from repro.runner.fingerprint import model_tree_hash
from repro.runner.runner import ExperimentRunner
from repro.simengine.rng import fork

__all__ = ["FORK", "Worker", "WorkerConfig", "retry_backoff_s", "warm"]

#: Drain-loop outcome states.
DRAINED = "drained"    # every cell terminal
SLICED = "sliced"      # slice budget spent, work remains
STOPPED = "stopped"    # SIGTERM/SIGINT

#: Worker-process exit status per outcome (anything else exits 1).
_EXIT_CODES = {DRAINED: 0, SLICED: 4, STOPPED: 130}

#: Workers and cell children are forks: they inherit the warm process.
FORK = multiprocessing.get_context("fork")


def warm() -> None:
    """Load what every cell needs: every driver and the model tree hash.

    Called before forking, so the children inherit them instead of each
    importing the drivers and their dependencies again.
    """
    for exp_id in all_experiments():
        get_experiment(exp_id)
    model_tree_hash()


@dataclass
class WorkerConfig:
    """Knobs shared campaign-wide (stored in the manifest) plus
    per-invocation slice budgets."""

    cache_dir: str = ".repro-cache"
    max_attempts: int = 3
    cell_timeout_s: Optional[float] = None
    heartbeat_s: float = 0.5
    stale_after_s: float = 2.5
    base_backoff_s: float = 0.25
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    poll_s: float = 0.2
    force: bool = False
    max_cells: Optional[int] = None
    max_seconds: Optional[float] = None

    def to_manifest(self) -> Dict[str, Any]:
        """The campaign-wide subset (slice budgets are per-invocation)."""
        return {
            "cache_dir": self.cache_dir,
            "max_attempts": self.max_attempts,
            "cell_timeout_s": self.cell_timeout_s,
            "heartbeat_s": self.heartbeat_s,
            "stale_after_s": self.stale_after_s,
            "base_backoff_s": self.base_backoff_s,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_manifest(cls, d: Dict[str, Any]) -> "WorkerConfig":
        cfg = cls()
        for key, value in d.items():
            if hasattr(cfg, key):
                setattr(cfg, key, value)
        return cfg


def retry_backoff_s(
    cell_id: str, failure_index: int, cfg: WorkerConfig
) -> float:
    """Deterministic backoff before retry ``failure_index + 1``.

    Exponential in the failure count, with multiplicative jitter drawn
    from a named RNG stream — every worker (on any host, in any order)
    computes the identical schedule for a given ``(seed, cell, n)``.
    """
    u = float(
        fork(f"campaign.retry.{cell_id}.{failure_index}", cfg.seed).random()
    )
    base = cfg.base_backoff_s * cfg.backoff_factor ** max(
        0, failure_index - 1
    )
    return base * (1.0 + cfg.jitter * u)


def _cell_main(cell_dict: Dict[str, Any], cache_dir: str, force: bool,
               conn) -> None:
    """Child-process entry: run one cell, report through ``conn``.

    The cell goes through :meth:`ExperimentRunner.run` under its own
    fault plan, so it is keyed, executed and stored exactly as
    ``repro all --faults`` would do it.
    """
    delay = float(os.environ.get("REPRO_CAMPAIGN_CELL_DELAY_S", "0") or 0)
    if delay > 0:
        time.sleep(delay)
    try:
        cell = Cell.from_dict(cell_dict)
        runner = ExperimentRunner(
            ResultCache(cache_dir), force=force, fault_plan=cell.plan
        )
        [outcome] = runner.run([cell.exp_id])
        error = outcome.error
    except BaseException as exc:  # noqa: BLE001 - report, then die nonzero
        error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        try:
            conn.send({"ok": False, "error": error})
        finally:
            conn.close()
        raise SystemExit(1)
    conn.send(
        {
            "ok": True,
            "key": outcome.key,
            "wall_s": outcome.wall_s,
            "from_cache": outcome.from_cache,
        }
    )
    conn.close()


@dataclass
class Claim:
    """A successfully leased cell, ready to run."""

    lease: Lease
    state: CellState
    reason: str  # "fresh" | "retry" | "steal"


@dataclass
class WorkerStats:
    """What one drain accomplished (for reports and tests)."""

    ran: int = 0
    done: int = 0
    failed: int = 0
    stolen: int = 0
    cache_hits: int = 0
    outcome: str = DRAINED
    cells: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """The worker process's exit status for this drain."""
        return _EXIT_CODES.get(self.outcome, 1)


class Worker:
    """Drain loop over one campaign directory."""

    def __init__(
        self,
        campaign_dir: Union[str, pathlib.Path],
        cell_list: List[Cell],
        config: WorkerConfig,
        name: Optional[str] = None,
    ) -> None:
        self.dir = pathlib.Path(campaign_dir)
        self.cells = {c.cell_id: c for c in cell_list}
        self.order = [c.cell_id for c in cell_list]
        self.cfg = config
        self.name = name or f"w-{os.getpid()}"
        self.journal = Journal(self.dir)
        self.lease_dir = self.dir / "leases"
        self._stop = False

    # -- as a process -----------------------------------------------------
    def install_signal_handlers(self) -> None:
        """Graceful stop on SIGTERM/SIGINT (worker processes only)."""

        def _request_stop(signum, frame):  # pragma: no cover - signal path
            self._stop = True

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    def serve(self) -> int:
        """Drain as a worker process; returns its exit status.

        The one body of both worker entries, ``repro campaign worker``
        and the workers ``Campaign.spawn_workers`` forks.
        """
        self.install_signal_handlers()
        stats = self.drain()
        print(
            f"worker {self.name}: ran {stats.ran} "
            f"({stats.done} done, {stats.cache_hits} warm, {stats.failed} "
            f"failed, {stats.stolen} stolen) [{stats.outcome}]",
            file=sys.stderr,
        )
        return stats.exit_code

    # -- claiming ---------------------------------------------------------
    def _claimable(self, st: CellState, now: float) -> Optional[str]:
        """Why ``st`` can be claimed right now (``None`` if it can't)."""
        if st.state == PENDING:
            return "fresh"
        if st.state == FAILED:
            if st.failures >= self.cfg.max_attempts:
                return None  # quarantined
            if now >= st.retry_not_before:
                return "retry"
            return None
        if st.state == LEASED:
            age = heartbeat_age(self.lease_dir, st.cell_id)
            if age is None or age >= self.cfg.stale_after_s:
                return "steal"
            return None
        return None

    def _claim(self) -> Tuple[Optional["Claim"], bool]:
        """Take the first claimable cell; returns (claim, all_done).

        The lease flock is acquired *before* the journal lock, and the
        cell's state is re-read under the journal lock — the flock
        makes double-claims impossible, the re-read makes claiming a
        cell that just completed impossible.
        """
        states = self.journal.replay(self.order)
        now = time.time()
        candidates = [
            cell_id
            for cell_id in self.order
            if self._claimable(states[cell_id], now)
        ]
        if not candidates:
            all_terminal = all(
                states[c].terminal(self.cfg.max_attempts) for c in self.order
            )
            return None, all_terminal
        for cell_id in candidates:
            lease = Lease(self.lease_dir, cell_id, self.name)
            if not lease.try_acquire():
                continue  # a live owner (or a faster claimant) holds it
            with self.journal.exclusive():
                st = self.journal.replay(self.order)[cell_id]
                if st.state == LEASED:
                    # We hold the flock, so whoever journaled this lease
                    # is dead (its lock died with its fds): stealable no
                    # matter what the heartbeat file says — our own
                    # acquire just refreshed its mtime.
                    why = "steal"
                else:
                    why = self._claimable(st, time.time())
                if why is None:
                    lease.release()
                    continue
                record = {
                    "cell": cell_id,
                    "state": LEASED,
                    "worker": self.name,
                    "attempt": st.failures + 1,
                }
                if why == "steal":
                    record["stolen"] = True
                self.journal.append(record)
            st.state = LEASED
            st.attempt = st.failures + 1
            return Claim(lease=lease, state=st, reason=why), False
        return None, False

    # -- execution --------------------------------------------------------
    def _run_cell(self, st: CellState, lease: Lease) -> Dict[str, Any]:
        """Execute ``st``'s cell in a child; returns the settle record."""
        cell = self.cells[st.cell_id]
        recv, send = FORK.Pipe(duplex=False)
        child = FORK.Process(
            target=_cell_main,
            args=(cell.to_dict(), self.cfg.cache_dir, self.cfg.force, send),
            name=f"cell-{st.cell_id}",
        )
        t0 = time.monotonic()
        child.start()
        send.close()  # child's end lives in the child now
        timed_out = False
        while child.is_alive():
            if self._stop:
                child.kill()
                child.join()
                return {}  # interrupted: leave the cell leased
            elapsed = time.monotonic() - t0
            if (
                self.cfg.cell_timeout_s is not None
                and elapsed >= self.cfg.cell_timeout_s
            ):
                child.kill()
                child.join()
                timed_out = True
                break
            step = self.cfg.heartbeat_s
            if self.cfg.cell_timeout_s is not None:
                step = min(step, self.cfg.cell_timeout_s - elapsed)
            child.join(max(0.05, step))
            lease.beat()
        payload: Optional[Dict[str, Any]] = None
        if not timed_out:
            child.join()
            try:
                if recv.poll(0):
                    payload = recv.recv()
            except (EOFError, OSError):
                payload = None
        recv.close()
        if timed_out:
            return {
                "cell": st.cell_id,
                "state": FAILED,
                "attempt": st.attempt,
                "error": (
                    f"timeout: exceeded {self.cfg.cell_timeout_s:.9g}s "
                    "wall-clock budget"
                ),
            }
        if payload is not None and payload.get("ok"):
            return {
                "cell": st.cell_id,
                "state": DONE,
                "attempt": st.attempt,
                "key": payload["key"],
                "wall_s": payload["wall_s"],
                "from_cache": payload["from_cache"],
            }
        if payload is not None:
            error = payload.get("error", "unknown error")
        else:
            error = f"cell child died (exitcode {child.exitcode})"
        return {
            "cell": st.cell_id,
            "state": FAILED,
            "attempt": st.attempt,
            "error": error,
        }

    # -- the loop ---------------------------------------------------------
    def drain(self) -> WorkerStats:
        warm()
        stats = WorkerStats()
        t_start = time.monotonic()
        while not self._stop:
            if (
                self.cfg.max_cells is not None
                and stats.ran >= self.cfg.max_cells
            ) or (
                self.cfg.max_seconds is not None
                and time.monotonic() - t_start >= self.cfg.max_seconds
            ):
                stats.outcome = SLICED
                return stats
            claim, all_done = self._claim()
            if claim is None:
                if all_done:
                    stats.outcome = DRAINED
                    return stats
                # Someone else is still working (or a backoff window is
                # open); wait a beat and re-examine the queue.
                time.sleep(self.cfg.poll_s)
                continue
            st = claim.state
            try:
                record = self._run_cell(st, claim.lease)
                if not record:  # interrupted mid-cell
                    break
                if record["state"] == FAILED:
                    failure_index = st.failures + 1
                    record["backoff_s"] = round(
                        retry_backoff_s(st.cell_id, failure_index, self.cfg),
                        6,
                    )
                self.journal.append(record)
            finally:
                claim.lease.release()
            stats.ran += 1
            stats.cells.append(st.cell_id)
            if claim.reason == "steal":
                stats.stolen += 1
            if record["state"] == DONE:
                stats.done += 1
                if record.get("from_cache"):
                    stats.cache_hits += 1
            else:
                stats.failed += 1
        if self._stop:
            stats.outcome = STOPPED
        return stats
