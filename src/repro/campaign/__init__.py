"""Crash-tolerant campaign runner: a journaled work-queue of cells.

A *campaign* generalizes ``repro all`` into a fault-tolerant sweep over
(driver, machine-config, fault-plan) cells:

* the queue state is an append-only JSONL **journal** replayed on every
  decision (:mod:`repro.campaign.journal`) — SIGKILL at any instant
  leaves at worst one torn line, which replay skips;
* workers coordinate through per-cell flock **leases** with heartbeats
  (:mod:`repro.campaign.leases`); a dead worker's leases are stolen,
  and the kernel guarantees exactly one thief wins;
* failures **retry** with deterministic exponential backoff + jitter
  and quarantine after ``max_attempts`` (:mod:`repro.campaign.worker`);
* each cell executes through :class:`repro.runner.ExperimentRunner`,
  so results land in the shared content-addressed result cache under
  the same key ``repro all`` uses; resumed/stolen/re-run cells dedupe
  to zero extra driver executions and the merged output is
  byte-identical to a serial run (:mod:`repro.campaign.campaign`).

CLI: ``repro campaign run|status|resume|report|list|worker``. See
docs/RUNNER.md.
"""

from repro.campaign.campaign import (
    Campaign,
    CampaignError,
    CampaignExistsError,
    DEFAULT_ROOT,
)
from repro.campaign.cells import Cell, build_cells
from repro.campaign.journal import CellState, Journal
from repro.campaign.leases import Lease, heartbeat_age
from repro.campaign.worker import (
    Worker,
    WorkerConfig,
    WorkerStats,
    retry_backoff_s,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignExistsError",
    "Cell",
    "CellState",
    "DEFAULT_ROOT",
    "Journal",
    "Lease",
    "Worker",
    "WorkerConfig",
    "WorkerStats",
    "build_cells",
    "heartbeat_age",
    "retry_backoff_s",
]
