"""Tests for the ``mpi.<op>`` spans :class:`~repro.mpi.comm.Comm` records
and the text Gantt renderer over them."""

import pytest

from repro.machine import xt4
from repro.mpi import MPIJob
from repro.obs import Tracer
from repro.obs.analyze import mpi_op_rows, render_timeline


def traced(fn, ntasks=4):
    """Run ``fn`` traced; returns ``(JobResult, Tracer)``."""
    tracer = Tracer()
    result = MPIJob(xt4("SN"), ntasks, tracer=tracer).run(fn)
    return result, tracer


def _mpi_spans(tracer, track):
    return [s for s in tracer.spans
            if s.track == track and s.name.startswith("mpi.")]


def test_events_recorded_in_time_order():
    def main(comm):
        yield from comm.barrier()
        yield from comm.allreduce(1.0)
        yield from comm.barrier()
        return None

    result, tracer = traced(main)
    events = _mpi_spans(tracer, "rank0")
    assert [e.name for e in events] == ["mpi.barrier", "mpi.allreduce", "mpi.barrier"]
    assert all(e.t1 >= e.t0 for e in events)
    assert events[0].t1 <= events[1].t0 <= events[2].t0


def test_trace_disabled_by_default():
    def main(comm):
        yield from comm.barrier()
        return None

    job = MPIJob(xt4("SN"), 2)
    assert job.sim.tracer is None
    result = job.run(main)
    assert result.elapsed_s > 0


def test_event_durations_match_opstats():
    def main(comm):
        yield from comm.allreduce(1.0)
        yield from comm.allreduce(2.0)
        return None

    _, tracer = traced(main)
    rows = {(r["rank"], r["op"]): r for r in mpi_op_rows(tracer.spans)}
    assert sum(e.duration_s for e in _mpi_spans(tracer, "rank0")) == pytest.approx(
        rows[0, "allreduce"]["time_s"]
    )


def test_every_comm_op_is_traced_on_the_world_rank_track():
    """scan/exscan/reduce_scatter/split/dup and sub-communicator ops all
    record their span, and a SubComm's spans land on the *world* rank's
    track (group rank 1 of the odd group is world rank 3)."""

    def main(comm):
        yield from comm.scan(comm.rank)
        yield from comm.exscan(comm.rank)
        yield from comm.reduce_scatter([1.0] * comm.size)
        yield from comm.dup()
        sub = yield from comm.split(color=comm.rank % 2)
        total = yield from sub.allreduce(comm.rank)
        peer = 1 - sub.rank
        got = yield from sub.sendrecv(comm.rank, dest=peer, tag=3)
        return total, got

    result, tracer = traced(main)
    assert result.returns == [(2, 2), (4, 3), (2, 0), (4, 1)]
    for rank in range(4):
        names = [s.name for s in _mpi_spans(tracer, f"rank{rank}")]
        assert names == [
            "mpi.scan", "mpi.exscan", "mpi.reduce_scatter",
            "mpi.split", "mpi.split", "mpi.allreduce", "mpi.sendrecv",
        ]
    assert sorted(
        s.track for s in tracer.spans if s.name == "mpi.allreduce"
    ) == ["rank0", "rank1", "rank2", "rank3"]


def test_render_timeline():
    def main(comm):
        yield from comm.compute(1e7)
        payloads = [b"x" * 50_000] * comm.size
        yield from comm.alltoallv(payloads)
        yield from comm.compute(1e7)
        yield from comm.barrier()  # last event: owns the final column
        return None

    result, tracer = traced(main)
    chart = render_timeline(tracer.spans, result.elapsed_s, width=40)
    lines = chart.splitlines()
    assert lines[0].startswith("MPI timeline")
    assert len([l for l in lines if l.startswith("rank")]) == 4
    body = "\n".join(lines[1:-1])
    assert "." in body  # compute time visible
    assert "T" in body  # alltoallv visible
    assert "|" in body  # barrier visible


def test_render_timeline_validation():
    with pytest.raises(ValueError):
        render_timeline([], 0.0)
