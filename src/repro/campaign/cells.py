"""Work-queue cells: one (driver, machine-config, fault-plan) unit.

A campaign is a set of :class:`Cell`\\ s. Each cell names an experiment
driver plus (optionally) a fault plan, carried *inline* as the plan's
canonical dict — a campaign directory is self-contained; resuming never
depends on the original plan file still existing.

A cell is pure data: the worker's cell child executes it as
``ExperimentRunner(cache, fault_plan=cell.plan).run([cell.exp_id])``
(see :mod:`repro.campaign.worker`). The machine-config axis therefore
enters through the runner's cache key, which hashes every standard
machine factory, so a recalibrated machine spec re-runs every cell and
two trees with identical configs share results. It also means warm
cells skip: a cell already computed by ``repro all`` (or by a previous
campaign, or by a worker that was SIGKILLed after its cache write but
before its journal append) is served from the content-addressed store
without executing the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner.fingerprint import fault_hash

__all__ = ["Cell", "build_cells", "plan_tag"]


def plan_tag(plan: Optional[Dict[str, Any]]) -> str:
    """Short stable tag for a fault plan (empty for fault-free)."""
    if plan is None:
        return ""
    return fault_hash(plan)[:8]


@dataclass(frozen=True)
class Cell:
    """One unit of campaign work.

    ``cell_id`` is the journal/artifact name: the bare experiment id
    for fault-free cells, ``<exp_id>@<plan_tag>`` otherwise.
    """

    cell_id: str
    exp_id: str
    plan: Optional[Dict[str, Any]] = None

    @classmethod
    def make(cls, exp_id: str, plan: Optional[Dict[str, Any]] = None) -> "Cell":
        tag = plan_tag(plan)
        cell_id = f"{exp_id}@{tag}" if tag else exp_id
        return cls(cell_id=cell_id, exp_id=exp_id, plan=plan)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"cell_id": self.cell_id, "exp_id": self.exp_id}
        if self.plan is not None:
            d["plan"] = self.plan
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Cell":
        return cls(
            cell_id=d["cell_id"], exp_id=d["exp_id"], plan=d.get("plan")
        )


def build_cells(
    exp_ids: Sequence[str],
    plans: Sequence[Tuple[str, Optional[Dict[str, Any]]]] = (),
) -> List[Cell]:
    """Cross the experiment ids with the fault-plan axis.

    ``plans`` is a list of ``(label, plan_dict_or_None)`` pairs; an
    empty list means one fault-free cell per experiment. Labels are
    only used for error messages — cell ids come from the plan hash,
    so renaming a plan file never forks the queue.
    """
    variants: Sequence[Optional[Dict[str, Any]]] = (
        [p for _, p in plans] if plans else [None]
    )
    cells = []
    for exp_id in exp_ids:
        for plan in variants:
            cells.append(Cell.make(exp_id, plan))
    return cells
