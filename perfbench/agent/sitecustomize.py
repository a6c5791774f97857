"""Trace agent for the benchmark's traced run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one. The traced run puts this directory first on
``PYTHONPATH`` and names an output directory in ``PERFBENCH_TRACE_DIR``,
so every Python process of the run's process tree loads the agent: the
CLI itself, ``repro campaign`` worker interpreters, and (through the fork
hooks below) ProcessPool workers and campaign cell children.

The agent changes no file under ``src/``. It wraps the public entry
points of each layer when its module is first imported, records one span
``(layer, name, start, end)`` per call and a few counts, keeps them in
memory, and writes ``<pid>.json`` into the trace directory when the
process exits. ``perfbench/layers.py`` turns those files into metrics.
"""

import atexit
import functools
import json
import multiprocessing.util
import os
import sys
import time

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes
_DIR = os.environ.get("PERFBENCH_TRACE_DIR")


class _State:
    def __init__(self, role):
        self.role = role
        self.t0 = _clock()
        self.spans = []
        self.counts = {}
        self.spawn_t = []
        self.net_base = [0, 0]
        self.net_reset = [0, 0]


_STATE = _State("main")


def _count(name, n=1):
    _STATE.counts[name] = _STATE.counts.get(name, 0) + n


def mark_root():
    """Called by the traced CLI harness: this process is the run's root."""
    _STATE.role = "root"


def span(layer, name, fn, after=None):
    """``fn`` wrapped to record a span per call; ``after(result)`` adds
    counts from the returned value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            _STATE.spans.append((layer, name, t0, _clock()))
        if after is not None:
            after(result)
        return result

    return wrapper


# -- entry points, patched when their module is first imported ------------

def _patch_registry(mod):
    original = mod.get_experiment
    wrapped = {}

    def get_experiment(exp_id):
        driver = original(exp_id)
        if exp_id not in wrapped:
            wrapped[exp_id] = span("experiments", exp_id, driver)
        return wrapped[exp_id]

    mod.get_experiment = functools.wraps(original)(get_experiment)


def _patch_runner(mod):
    cls = mod.ExperimentRunner
    cls.run = span("runner", "run", cls.run)
    cls.key_for = span("runner", "key_for", cls.key_for)


def _cache_get_counts(entry):
    _count("runner.cache.misses" if entry is None else "runner.cache.hits")


def _patch_cache(mod):
    cls = mod.ResultCache
    cls.get = span("runner", "cache_get", cls.get, _cache_get_counts)
    cls.put = span("runner", "cache_put", cls.put)


def _job_counts(result):
    _count("mpi.jobs")
    _count("mpi.faults_injected", result.faults_injected)
    _count("mpi.restarts", result.restarts)
    _count("mpi.net_retransmits", result.net_retransmits)


def _patch_mpi(mod):
    mod.MPIJob.run = span("mpi", "job_run", mod.MPIJob.run, _job_counts)


def _patch_simulator(mod):
    mod.Simulator.run = span(
        "simengine", "run", mod.Simulator.run,
        lambda _r: _count("simengine.runs"),
    )


def _patch_simnet(mod):
    original = mod.reset_transfer_totals

    def reset_transfer_totals():
        previous = original()
        _STATE.net_reset[0] += previous[0]
        _STATE.net_reset[1] += previous[1]
        return previous

    mod.reset_transfer_totals = functools.wraps(original)(
        reset_transfer_totals
    )


def _patch_report(mod):
    mod.write_artifacts = span(
        "report", "write", mod.write_artifacts,
        lambda paths: _count("report.files", len(paths)),
    )


def _patch_campaign(mod):
    cls = mod.Campaign
    spawn = cls.spawn_workers

    def spawn_workers(self, n, **kwargs):
        _STATE.spawn_t.append(time.time())  # journal records use time.time
        return spawn(self, n, **kwargs)

    cls.spawn_workers = span(
        "campaign", "spawn_workers", functools.wraps(spawn)(spawn_workers)
    )
    cls.wait = span("campaign", "wait", cls.wait)
    cls.merge = span("campaign", "merge", cls.merge)


def _patch_worker(mod):
    mod.Worker.drain = span("campaign", "drain", mod.Worker.drain)


_PATCHES = {
    "repro.core.registry": _patch_registry,
    "repro.runner.runner": _patch_runner,
    "repro.runner.cache": _patch_cache,
    "repro.mpi.job": _patch_mpi,
    "repro.simengine.simulator": _patch_simulator,
    "repro.network.simnet": _patch_simnet,
    "repro.core.report": _patch_report,
    "repro.campaign.campaign": _patch_campaign,
    "repro.campaign.worker": _patch_worker,
}


# -- import timing ---------------------------------------------------------

class _TimedLoader:
    """Delegating loader: times module creation and execution as
    ``import`` spans, then applies the module's patch, if any."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def create_module(self, spec):
        t0 = _clock()
        try:
            return self._inner.create_module(spec)
        finally:
            _STATE.spans.append(("import", spec.name, t0, _clock()))

    def exec_module(self, module):
        t0 = _clock()
        try:
            self._inner.exec_module(module)
        finally:
            _STATE.spans.append(("import", module.__name__, t0, _clock()))
        patch = _PATCHES.get(module.__name__)
        if patch is not None:
            patch(module)


class _TimedFinder:
    """First entry on ``sys.meta_path``: asks the other finders and wraps
    the loader of the spec they return."""

    def find_spec(self, name, path=None, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                if spec.loader is not None and hasattr(
                    spec.loader, "exec_module"
                ):
                    spec.loader = _TimedLoader(spec.loader)
                return spec
        return None


# -- process lifetime --------------------------------------------------------

def _net_totals():
    simnet = sys.modules.get("repro.network.simnet")
    if simnet is None:
        return [0, 0]
    fast, total = simnet.transfer_totals()
    return [fast, total]


def _dump():
    t1 = _clock()
    net = _net_totals()
    base = _STATE.net_base
    record = {
        "pid": os.getpid(),
        "ppid": os.getppid(),
        "role": _STATE.role,
        "t0": _STATE.t0,
        "t1": t1,
        "spans": _STATE.spans,
        "counts": _STATE.counts,
        "spawn_t": _STATE.spawn_t,
        "net": [
            _STATE.net_reset[i] + net[i] - base[i] for i in range(2)
        ],
    }
    path = os.path.join(_DIR, f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


def _after_fork_in_child():
    global _STATE
    _STATE = _State("fork")
    _STATE.net_base = _net_totals()


def _register_mp_finalizer(_module):
    # multiprocessing children leave through os._exit, which skips
    # atexit; its own exit finalizers still run.
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)


def install():
    sys.meta_path.insert(0, _TimedFinder())
    atexit.register(_dump)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    multiprocessing.util.register_after_fork(
        sys.modules[__name__], _register_mp_finalizer
    )


if _DIR:
    install()
