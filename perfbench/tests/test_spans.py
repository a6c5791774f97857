import pytest

from spans import SpanError, fold, nest


def test_self_time_subtracts_direct_children_only():
    # experiment [0, 10] > mpi job [1, 9] > engine run [2, 8]
    raw = [
        ("experiments", "ext_resilience", 0.0, 10.0),
        ("mpi", "job_run", 1.0, 9.0),
        ("simengine", "run", 2.0, 8.0),
    ]
    root, exp, job, run = nest(raw, -1.0, 11.0)
    assert exp.self_s == pytest.approx(2.0)
    assert job.self_s == pytest.approx(2.0)
    assert run.self_s == pytest.approx(6.0)
    assert root.self_s == pytest.approx(2.0)
    assert run.parent is job and job.parent is exp and exp.parent is root


def test_siblings_and_layer_sum():
    raw = [
        ("import", "repro", 0.0, 1.0),
        ("import", "numpy", 0.2, 0.6),       # nested import, same layer
        ("cli", "main", 1.0, 5.0),
        ("runner", "run", 1.5, 4.0),
        ("runner", "key_for", 1.5, 1.75),     # starts with its parent
        ("report", "write", 4.0, 4.5),        # starts when runner.run ends
    ]
    times = fold(raw, 0.0, 6.0)
    assert times.self_by_layer == pytest.approx(
        {"import": 1.0, "cli": 1.0, "runner": 2.5, "report": 0.5}
    )
    assert times.unattributed_s == pytest.approx(1.0)
    assert sum(times.self_by_layer.values()) + times.unattributed_s == \
        pytest.approx(times.wall_s)
    assert times.inclusive[("runner", "run")] == pytest.approx(2.5)
    assert times.calls[("import", "numpy")] == 1


def test_overlapping_spans_are_a_benchmark_bug():
    raw = [("runner", "run", 0.0, 2.0), ("report", "write", 1.0, 3.0)]
    with pytest.raises(SpanError, match="not inside"):
        fold(raw, 0.0, 4.0)


def test_span_outside_the_process_is_a_benchmark_bug():
    with pytest.raises(SpanError):
        fold([("cli", "main", 0.5, 2.0)], 1.0, 3.0)
