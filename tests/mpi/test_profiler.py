"""Tests for the per-rank MPI breakdown (mpiP-style) of traced DES runs:
:class:`~repro.mpi.comm.Comm` records ``mpi.<op>`` spans and
:func:`repro.obs.analyze.mpi_op_rows` aggregates them."""

import numpy as np
import pytest

from repro.machine import xt4
from repro.mpi import MPIJob
from repro.obs import Tracer
from repro.obs.analyze import mpi_op_rows


def run_traced(machine, ntasks, fn, *args):
    """Run ``fn`` traced; returns ``(JobResult, {(rank, op): row})``."""
    tracer = Tracer()
    result = MPIJob(machine, ntasks, tracer=tracer).run(fn, *args)
    ops = {(row["rank"], row["op"]): row for row in mpi_op_rows(tracer.spans)}
    return result, ops


def _rank_rows(ops, rank):
    return [row for (r, _op), row in ops.items() if r == rank]


def _fraction(ops, rank, op):
    """Share of ``rank``'s MPI time spent in ``op``."""
    total = sum(row["time_s"] for row in _rank_rows(ops, rank))
    return ops[rank, op]["time_s"] / total if total else 0.0


def test_counts_and_ops_recorded():
    def main(comm):
        yield from comm.barrier()
        yield from comm.allreduce(1.0)
        yield from comm.allreduce(2.0)
        if comm.rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
        elif comm.rank == 1:
            yield from comm.recv(source=0)
        return None

    result, ops = run_traced(xt4("SN"), 2, main)
    assert ops[0, "barrier"]["calls"] == 1
    assert ops[0, "allreduce"]["calls"] == 2
    assert ops[0, "send"]["calls"] == 1
    assert ops[0, "send"]["bytes"] == 100
    assert ops[1, "recv"]["calls"] == 1
    # A blocking send is one op: no inner ``isend`` is counted.
    assert sum(row["calls"] for row in _rank_rows(ops, 0)) == 4


def test_time_accumulates_and_fraction():
    def main(comm):
        yield from comm.allreduce(np.zeros(8))
        payloads = [b"x" * 10_000] * comm.size
        yield from comm.alltoallv(payloads)
        return None

    _, ops = run_traced(xt4("VN"), 4, main)
    assert sum(row["time_s"] for row in _rank_rows(ops, 0)) > 0
    assert 0 < _fraction(ops, 0, "alltoallv") < 1
    assert _fraction(ops, 0, "allreduce") + _fraction(
        ops, 0, "alltoallv"
    ) == pytest.approx(1.0)


def test_compute_is_not_mpi_time():
    def main(comm):
        yield from comm.compute(1.0e9)
        yield from comm.barrier()
        return None

    _, ops = run_traced(xt4("SN"), 2, main)
    # Only the barrier appears; compute time excluded.
    assert {op for (rank, op) in ops if rank == 0} == {"barrier"}


def test_traced_comm_keeps_semantics():
    def main(comm):
        assert comm.size == 3
        v = yield from comm.allgather(comm.rank)
        g = yield from comm.gather(comm.rank, root=1)
        s = yield from comm.scatter([10, 20, 30] if comm.rank == 0 else None, root=0)
        b = yield from comm.bcast("hi" if comm.rank == 2 else None, root=2)
        r = yield from comm.reduce(1, op="sum", root=0)
        return (v, g, s, b, r)

    result, ops = run_traced(xt4("SN"), 3, main)
    v, g, s, b, r = result.returns[2]
    assert v == [0, 1, 2]
    assert s == 30 and b == "hi"
    assert ops[2, "allgather"]["calls"] == 1
    # Tracing only observes: the untraced run returns and times the same.
    untraced = MPIJob(xt4("SN"), 3).run(main)
    assert untraced.returns == result.returns
    assert untraced.rank_times == result.rank_times


def test_sendrecv_and_nonblocking_counted():
    def main(comm):
        peer = 1 - comm.rank
        req = comm.isend(comm.rank, dest=peer, tag=9)
        data = yield from comm.recv(source=peer, tag=9)
        yield req.event
        out = yield from comm.sendrecv(data, dest=peer, tag=10)
        return out

    _, ops = run_traced(xt4("SN"), 2, main)
    assert ops[0, "isend"]["calls"] == 1
    assert ops[0, "isend"]["time_s"] == 0.0
    assert ops[0, "sendrecv"]["calls"] == 1
    # sendrecv is one op: the explicit recv is the only ``recv`` counted.
    assert ops[0, "recv"]["calls"] == 1


def test_profile_rows_render():
    from repro.core.report import render_table

    def main(comm):
        yield from comm.barrier()
        return None

    _, ops = run_traced(xt4("SN"), 2, main)
    text = render_table(_rank_rows(ops, 0))
    assert "barrier" in text


def test_alltoallv_dominates_cam_style_breakdown():
    """A CAM-physics-shaped step: heavy alltoallv + tiny allreduce — the
    breakdown attributes the MPI time the way Fig. 16's analysis does."""

    def main(comm):
        payloads = [b"x" * 50_000] * comm.size
        for _ in range(4):
            yield from comm.alltoallv(payloads)
        yield from comm.allreduce(0.0)
        return None

    _, ops = run_traced(xt4("VN"), 8, main)
    assert _fraction(ops, 0, "alltoallv") > 0.7


def test_empty_profile_fraction_zero():
    assert mpi_op_rows([]) == []
    assert _fraction({(0, "send"): {"time_s": 0.0}}, 0, "send") == 0.0
