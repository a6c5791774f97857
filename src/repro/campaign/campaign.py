"""Campaign lifecycle: manifest, workers, merge, report, telemetry.

A campaign lives under ``.repro-cache/campaigns/<id>/``::

    manifest.json    # the spec: cells (inline plans), config, version
    journal.jsonl    # append-only state transitions (see journal.py)
    journal.lock     # flock serializing appends
    leases/          # one flock+heartbeat file per leased cell

The manifest is written once, atomically
(:func:`~repro.runner.atomic.atomic_write_text`), and never edited —
``resume`` re-reads it, so an interrupted campaign is picked up exactly
where the journal left off with the original spec even if the CLI
arguments (or the fault-plan files they pointed at) are gone.
Re-issuing ``campaign run`` with the same id but a *different* spec is
an error, not a silent re-queue.

Results do not live here: each cell runs through
:class:`~repro.runner.ExperimentRunner`, which stores into the shared
content-addressed :class:`~repro.runner.cache.ResultCache`, and
:meth:`Campaign.merge` renders ``<cell_id>.csv``/``.txt`` pairs from it
in manifest order — byte-identical to an uninterrupted serial run,
however many crashes, steals and retries the journal records.
"""
# Wall-clock reads are deliberate: campaign coordination is host-side.
# simlint: ignore-file[SL201]

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from multiprocessing.process import BaseProcess
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign.cells import Cell
from repro.campaign.journal import DONE, Journal, QUARANTINED
from repro.campaign.worker import FORK, Worker, WorkerConfig, WorkerStats, warm
from repro.core.report import render_csv, render_result
from repro.obs import Tracer, current_tracer
from repro.runner.atomic import atomic_write_text
from repro.runner.cache import ResultCache

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignExistsError",
    "DEFAULT_ROOT",
    "MANIFEST_VERSION",
]

DEFAULT_ROOT = ".repro-cache/campaigns"
MANIFEST_VERSION = 1


class CampaignError(Exception):
    """Malformed or missing campaign state."""


class CampaignExistsError(CampaignError):
    """``run`` re-used an id with a different cell spec."""


def _canonical_cells(cells: List[Dict[str, Any]]) -> str:
    return json.dumps(cells, sort_keys=True, separators=(",", ":"))


def _worker_main(worker: Worker) -> None:
    """Body of a forked worker: its own session, then the same drain as
    ``repro campaign worker``."""
    os.setsid()
    sys.exit(worker.serve())


class Campaign:
    """One journaled work-queue of cells."""

    def __init__(
        self,
        campaign_id: str,
        root: Union[str, pathlib.Path] = DEFAULT_ROOT,
    ) -> None:
        if not campaign_id or "/" in campaign_id or campaign_id.startswith("."):
            raise CampaignError(f"invalid campaign id {campaign_id!r}")
        self.id = campaign_id
        self.root = pathlib.Path(root)
        self.dir = self.root / campaign_id
        self.manifest_path = self.dir / "manifest.json"
        self.journal = Journal(self.dir)
        self._manifest: Optional[Dict[str, Any]] = None

    # -- creation / loading ----------------------------------------------
    @property
    def exists(self) -> bool:
        return self.manifest_path.is_file()

    @classmethod
    def create(
        cls,
        campaign_id: str,
        cells: List[Cell],
        config: WorkerConfig,
        root: Union[str, pathlib.Path] = DEFAULT_ROOT,
    ) -> "Campaign":
        """Create the campaign (idempotent for an identical spec).

        An existing campaign with the same cells is simply loaded —
        ``run`` twice is ``resume`` — while a different cell set under
        the same id raises :class:`CampaignExistsError`.
        """
        campaign = cls(campaign_id, root)
        cell_dicts = [c.to_dict() for c in cells]
        if campaign.exists:
            existing = campaign.manifest()["cells"]
            if _canonical_cells(existing) != _canonical_cells(cell_dicts):
                raise CampaignExistsError(
                    f"campaign {campaign_id!r} already exists with a "
                    f"different cell spec ({len(existing)} cells); pick a "
                    "new id or resume it as-is"
                )
            return campaign
        from repro.version import __version__

        manifest = {
            "version": MANIFEST_VERSION,
            "id": campaign_id,
            "created_t": time.time(),
            "repro_version": __version__,
            "cells": cell_dicts,
            "config": config.to_manifest(),
        }
        atomic_write_text(
            campaign.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True),
        )
        campaign._manifest = manifest
        return campaign

    @classmethod
    def load(
        cls,
        campaign_id: str,
        root: Union[str, pathlib.Path] = DEFAULT_ROOT,
    ) -> "Campaign":
        campaign = cls(campaign_id, root)
        campaign.manifest()  # raises if missing/corrupt
        return campaign

    @classmethod
    def list_ids(
        cls, root: Union[str, pathlib.Path] = DEFAULT_ROOT
    ) -> List[str]:
        base = pathlib.Path(root)
        if not base.is_dir():
            return []
        return sorted(
            p.name for p in base.iterdir() if (p / "manifest.json").is_file()
        )

    def manifest(self) -> Dict[str, Any]:
        if self._manifest is None:
            try:
                data = json.loads(self.manifest_path.read_text())
            except OSError:
                raise CampaignError(
                    f"no campaign {self.id!r} under {self.root}/ "
                    f"(known: {self.list_ids(self.root)})"
                ) from None
            except ValueError as exc:
                raise CampaignError(
                    f"corrupt manifest for campaign {self.id!r}: {exc}"
                ) from None
            self._manifest = data
        return self._manifest

    def cells(self) -> List[Cell]:
        return [Cell.from_dict(d) for d in self.manifest()["cells"]]

    def config(self) -> WorkerConfig:
        return WorkerConfig.from_manifest(self.manifest().get("config", {}))

    # -- state ------------------------------------------------------------
    def states(self) -> Dict[str, Any]:
        order = [c.cell_id for c in self.cells()]
        return self.journal.replay(order)

    def summary(self) -> Dict[str, int]:
        cfg = self.config()
        counts = {
            "total": 0, "pending": 0, "leased": 0, "done": 0,
            "failed": 0, "quarantined": 0, "stolen": 0, "retried": 0,
            "warm": 0,
        }
        for st in self.states().values():
            counts["total"] += 1
            counts[st.effective(cfg.max_attempts)] += 1
            counts["stolen"] += st.stolen
            counts["retried"] += st.retried
            if st.state == DONE and st.from_cache:
                counts["warm"] += 1
        return counts

    def finished(self) -> bool:
        cfg = self.config()
        return all(
            st.terminal(cfg.max_attempts) for st in self.states().values()
        )

    # -- workers ----------------------------------------------------------
    def worker(
        self,
        name: Optional[str] = None,
        *,
        max_cells: Optional[int] = None,
        max_seconds: Optional[float] = None,
        force: bool = False,
    ) -> Worker:
        cfg = self.config()
        cfg.max_cells = max_cells
        cfg.max_seconds = max_seconds
        cfg.force = force
        return Worker(self.dir, self.cells(), cfg, name=name)

    def drain_inline(self, **kwargs: Any) -> WorkerStats:
        """Run one worker in this process until the queue is dry."""
        return self.worker(**kwargs).drain()

    def spawn_workers(
        self,
        n: int,
        *,
        max_cells: Optional[int] = None,
        max_seconds: Optional[float] = None,
        force: bool = False,
    ) -> List[BaseProcess]:
        """Fork ``n`` worker processes draining this campaign.

        The registry is loaded first, so the workers and every cell
        child they fork inherit it instead of importing it. Each worker
        runs in its own session, so a Ctrl-C at the coordinator does not
        blast the workers mid-append; the coordinator forwards an
        orderly SIGTERM instead.
        """
        warm()
        procs = []
        for i in range(n):
            worker = self.worker(
                f"w{i}", max_cells=max_cells, max_seconds=max_seconds,
                force=force,
            )
            proc = FORK.Process(
                target=_worker_main, args=(worker,), name=worker.name
            )
            proc.start()
            procs.append(proc)
        return procs

    def wait(self, procs: List[BaseProcess]) -> List[int]:
        """Wait for forked workers; Ctrl-C forwards SIGTERM and waits.

        Returns the workers' exit codes. KeyboardInterrupt is re-raised
        after the workers have stopped cleanly (journal consistent,
        leases released) so the CLI can exit 130.
        """
        try:
            for p in procs:
                p.join()
        except KeyboardInterrupt:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():  # pragma: no cover
                    p.kill()
                    p.join()
            raise
        return [p.exitcode for p in procs]

    # -- outputs ----------------------------------------------------------
    def merge(
        self, out_dir: Union[str, pathlib.Path]
    ) -> Tuple[List[pathlib.Path], List[str]]:
        """Render every ``done`` cell's artifacts into ``out_dir``.

        Returns ``(paths_written, problems)`` where ``problems`` names
        cells that are not done or whose cached result has vanished
        (e.g. evicted by ``repro cache gc`` mid-campaign).
        """
        cfg = self.config()
        cache = ResultCache(cfg.cache_dir)
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        states = self.states()
        written: List[pathlib.Path] = []
        problems: List[str] = []
        for cell in self.cells():
            st = states[cell.cell_id]
            if st.state != DONE or st.key is None:
                problems.append(
                    f"{cell.cell_id}: {st.effective(cfg.max_attempts)}"
                    + (f" ({st.error})" if st.error else "")
                )
                continue
            entry = cache.get(st.key)
            if entry is None:
                problems.append(
                    f"{cell.cell_id}: result {st.key[:12]}… missing from "
                    "cache (evicted?); re-run with --force"
                )
                continue
            csv_path = out / f"{cell.cell_id}.csv"
            txt_path = out / f"{cell.cell_id}.txt"
            csv_path.write_text(render_csv(entry.result))
            txt_path.write_text(render_result(entry.result))
            written += [csv_path, txt_path]
        return written, problems

    def report(self) -> Dict[str, Any]:
        """JSON-safe campaign report (cells in manifest order)."""
        cfg = self.config()
        states = self.states()
        rows = []
        for cell in self.cells():
            st = states[cell.cell_id]
            rows.append(
                {
                    "cell_id": cell.cell_id,
                    "exp_id": cell.exp_id,
                    "state": st.effective(cfg.max_attempts),
                    "failures": st.failures,
                    "stolen": st.stolen,
                    "retried": st.retried,
                    "from_cache": st.from_cache,
                    "wall_s": st.wall_s,
                    "key": st.key,
                    "error": st.error,
                }
            )
        return {
            "id": self.id,
            "cells": rows,
            "summary": self.summary(),
            "journal_records_skipped": getattr(self.journal, "skipped", 0),
        }

    # -- telemetry --------------------------------------------------------
    def publish(self, tracer: Optional[Tracer] = None) -> None:
        """Mirror the journal onto obs counters/spans.

        Timestamps are the cell's index in manifest order — the same
        deterministic "time" axis the runner uses — so two replays of
        the same journal export identical counter series.
        """
        tracer = tracer if tracer is not None else current_tracer()
        if tracer is None:
            return
        cfg = self.config()
        states = self.states()
        for i, cell in enumerate(self.cells()):
            st = states[cell.cell_id]
            t = float(i)
            effective = st.effective(cfg.max_attempts)
            if effective == DONE:
                tracer.add("campaign.cells.done", t, 1.0)
            if effective == QUARANTINED:
                tracer.add("campaign.cells.quarantined", t, 1.0)
            if st.retried:
                tracer.add("campaign.cells.retried", t, float(st.retried))
            if st.stolen:
                tracer.add("campaign.cells.stolen", t, float(st.stolen))
            if st.wall_s is not None:
                tracer.record(
                    f"campaign.cell[{cell.cell_id}].wall_s", t, st.wall_s
                )
            tracer.complete(
                "campaign", cell.cell_id, t, t + 1.0,
                state=effective, failures=st.failures, stolen=st.stolen,
            )
