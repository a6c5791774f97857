"""Sub-communicators (the product of :meth:`Comm.split`).

A :class:`SubComm` presents the full communicator API over a subset of
world ranks — the row/column communicators that real CAM remaps, POP
gather lines, and ScaLAPACK process grids are built from. Point-to-point
traffic rides the world communicator's inboxes with group-scoped tags,
so sub-communicator messages can never match world (or sibling-group)
receives; collectives rendezvous in group-private contexts and are
priced by a cost model sized to the group.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.mpi.costmodels import CollectiveCostModel


class SubComm(Comm):
    """A communicator over ``world_ranks`` (ordered) of the job."""

    def __init__(self, world_comm: Comm, group_key: Any, world_ranks: list) -> None:
        # Deliberately not calling Comm.__init__: no private inbox.
        self.job = world_comm.job
        self._world_comm = world_comm
        self._ranks = list(world_ranks)
        if world_comm.rank not in self._ranks:
            raise ValueError("calling rank is not a member of this group")
        self.rank = self._ranks.index(world_comm.rank)
        self.size = len(self._ranks)
        self._coll_seq = 0
        self._group_key = group_key
        self._costs_model = CollectiveCostModel.for_machine(
            self.job.model, self.size
        )

    # -- group plumbing -----------------------------------------------------
    def _costs(self) -> CollectiveCostModel:
        return self._costs_model

    def _root_comm(self) -> Comm:
        return self._world_comm

    def _world_rank_of(self, rank: int) -> int:
        return self._ranks[rank]

    @property
    def world_ranks(self) -> list:
        """World ranks of this group, in group order."""
        return list(self._ranks)

    # -- point to point (translated + tag-scoped) ------------------------------
    def _scoped(self, tag: int) -> tuple:
        return ("subcomm", self._group_key, tag)

    def _post(self, obj: Any, dest: int, tag: Any, nbytes: Optional[int]):
        self._check_peer(dest)
        return self._world_comm._post(
            obj, self._ranks[dest], self._scoped(tag), nbytes
        )

    def _get(self, source: int, tag: int):
        if source != ANY_SOURCE:
            self._check_peer(source)
            wsource: Optional[int] = self._ranks[source]
        else:
            wsource = None
        key = ("subcomm", self._group_key)

        def match(m) -> bool:
            if not (isinstance(m.tag, tuple) and m.tag[:2] == key):
                return False
            if wsource is not None and m.source != wsource:
                return False
            return tag == ANY_TAG or m.tag[2] == tag

        return self._world_comm._inbox.get(match)

    def _status(self, msg) -> tuple:
        return msg.obj, self._ranks.index(msg.source), msg.tag[2]

    # Every public operation — send/recv/isend/irecv/sendrecv, the
    # collectives and split — is inherited: each is written against
    # _post/_get/_status/_collective and the group plumbing above, so
    # it also records its ``mpi.<op>`` span on the world rank's track.
