"""Parallel, cache-aware execution of experiment drivers.

:class:`ExperimentRunner` is the one path from an experiment id (plus
an optional fault plan, carried as its canonical dict) to a cache key,
an execution and a stored :class:`~repro.runner.cache.CacheEntry`.
``repro all`` drives it directly, each campaign cell child runs one
``ExperimentRunner(...).run([exp_id])``, and simrace derives its
certificate keys from :meth:`ExperimentRunner.key_for` — so the front
ends cannot drift apart in how they key, execute or store a result.
It:

* resolves the requested ids against the registry and always returns
  outcomes in **registry (sorted) order**, whatever the completion
  order of the workers — a ``--jobs 8`` run merges identically to a
  serial one;
* consults the content-addressed :class:`~repro.runner.cache.ResultCache`
  first: a hit rehydrates the stored
  :class:`~repro.core.experiment.ExperimentResult` and its shape-check
  outcome without importing, let alone executing, a single driver;
* dispatches the misses across a :class:`concurrent.futures.
  ProcessPoolExecutor` (``jobs > 1``) or runs them inline (``jobs=1``);
* runs each executed driver's ``shape_checks`` in the process that ran
  it, and turns a raising driver or check into a failed
  :class:`RunOutcome` rather than an abort, so one broken experiment
  never costs the others their artifacts;
* surfaces per-experiment wall time and cache hit/miss totals through
  the :mod:`repro.obs` counter layer (``runner.cache.hits``,
  ``runner.cache.misses``, ``runner.exp[<id>].wall_s``) whenever a
  tracer is supplied or installed.

Wall-clock reads below are deliberate: the runner measures *host*
execution cost of the simulators, not simulated time, so the simlint
nondeterminism rule is suppressed at those sites.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.experiment import ExperimentResult
from repro.core.registry import driver_module, get_experiment, resolve_ids
from repro.obs import Tracer, current_tracer
from repro.runner.cache import CacheEntry, ResultCache
from repro.runner.fingerprint import cache_key, fault_hash, model_tree_hash
from repro.version import __version__


@dataclass
class RunOutcome:
    """One experiment's result plus how it was obtained.

    ``wall_s`` is the driver execution time measured in the process
    that ran it; for cache hits it is the *stored* execution time of
    the original run (the hit itself costs only a JSON load).

    ``failures`` lists the failed shape checks of ``result`` (empty:
    PASS), computed where the driver ran and stored with a cache entry.

    ``error`` is set (and ``result`` is ``None``) when the experiment
    could not be executed: its driver or its shape checks raised, or a
    pool worker died (OOM-killed, segfaulted) and the one inline retry
    failed too. Failed outcomes are never cached.

    ``net`` is the ``(fast, total)`` network transfer count observed by
    the executing process (:func:`repro.network.simnet.transfer_totals`)
    — counted in the worker and shipped back through the pool, so
    ``--jobs N`` fan-out reports the same totals as a serial run. For
    cache hits it is the stored count of the original run; ``None`` only
    for failed outcomes.
    """

    exp_id: str
    result: Optional[ExperimentResult]
    from_cache: bool
    wall_s: float
    key: Optional[str] = None
    error: Optional[str] = None
    net: Optional[Tuple[int, int]] = None
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None


def _execute(
    exp_id: str,
    fault_plan: Optional[Dict[str, Any]] = None,
    trace_path: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one driver; returns a picklable payload.

    Top-level so :class:`ProcessPoolExecutor` can ship it to workers.
    Fault plans, tracers and profilers are installed *inside* the
    executing process — process-global state does not cross the pool
    boundary (which is also why profile artifacts are written here, in
    the worker, rather than returned).

    The driver's module's ``shape_checks(result)`` runs here too, and
    its failures ride the payload. A driver or check that raises yields
    an ``error`` payload instead. Only :class:`Exception` is caught:
    ``KeyboardInterrupt`` still stops the run.
    """
    from repro.experiments.common import profiling_to, tracing_to
    from repro.network import simnet

    faults = nullcontext()
    if fault_plan is not None:
        from repro.faults import FaultPlan, installed_plan

        faults = installed_plan(FaultPlan.from_dict(fault_plan))
    try:
        with faults, \
                tracing_to(trace_path, exp_id=exp_id), \
                profiling_to(profile_dir, exp_id):
            simnet.reset_transfer_totals()
            t0 = time.perf_counter()  # simlint: ignore[SL201]
            result = get_experiment(exp_id)()
            wall_s = time.perf_counter() - t0  # simlint: ignore[SL201]
            net = simnet.reset_transfer_totals()
        module = importlib.import_module(driver_module(exp_id))
        return {
            "exp_id": exp_id,
            "result": result.to_dict(),
            "wall_s": wall_s,
            "net": list(net),
            "failures": module.shape_checks(result).failures,
        }
    except Exception as exc:  # noqa: BLE001 - surfaced per-experiment
        return {
            "exp_id": exp_id,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_s": 0.0,
        }


class ExperimentRunner:
    """Run experiments with caching and optional process parallelism.

    :param cache: result store; ``None`` disables caching entirely
        (every run executes, nothing is stored) — the ``--no-cache``
        path.
    :param force: execute even on a cache hit and overwrite the entry
        (``--force``).
    :param fault_plan: fault plan as its canonical dict
        (:meth:`repro.faults.FaultPlan.to_dict`), installed in every
        executing process; its hash is part of every cache key, so
        injected runs never alias fault-free ones.
    :param trace_dir: when set, each *executed* experiment writes a
        Perfetto trace to ``<trace_dir>/<exp_id>.trace.json``. Tracing
        implies execution — a cache hit cannot regenerate a trace — so
        the cache is bypassed (not read, not written) for the
        invocation.
    :param profile_dir: when set, each experiment runs under the engine
        profiler and writes its profile/folded/metrics artifacts into
        the directory (``<exp_id>.profile.json`` etc.). Like tracing,
        profiling implies execution and bypasses the cache.
    :param tracer: receives the runner's own counters; defaults to the
        process-wide installed tracer, if any.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        force: bool = False,
        fault_plan: Optional[Dict[str, Any]] = None,
        trace_dir: Optional[str] = None,
        profile_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cache = cache
        self.force = bool(force)
        self.fault_plan = fault_plan
        self.trace_dir = trace_dir
        self.profile_dir = profile_dir
        self.tracer = tracer
        self.hits = 0
        self.misses = 0

    # -- key derivation ---------------------------------------------------
    def key_for(self, exp_id: str) -> str:
        """The content-address of ``exp_id`` under the current inputs."""
        return cache_key(
            exp_id,
            tree=model_tree_hash(),
            fault_hash=fault_hash(self.fault_plan),
        )

    # -- execution --------------------------------------------------------
    def run(self, exp_ids: Optional[List[str]] = None, jobs: int = 1
            ) -> List[RunOutcome]:
        """Run ``exp_ids`` (default: all), ``jobs`` processes wide.

        Returns one :class:`RunOutcome` per id, in registry order.
        """
        ids = resolve_ids(exp_ids)
        caching = (
            self.cache is not None
            and self.trace_dir is None
            and self.profile_dir is None
        )
        outcomes: Dict[str, RunOutcome] = {}
        keys: Dict[str, str] = {}
        to_run: List[str] = []

        for exp_id in ids:
            key = self.key_for(exp_id) if caching else None
            if key is not None:
                keys[exp_id] = key
            entry = (
                self.cache.get(key)
                if (caching and not self.force)
                else None
            )
            if entry is not None:
                outcomes[exp_id] = RunOutcome(
                    exp_id=exp_id,
                    result=entry.result,
                    from_cache=True,
                    wall_s=entry.wall_s,
                    key=key,
                    net=entry.net,
                    failures=entry.failures,
                )
            else:
                to_run.append(exp_id)
                # Import the driver here, so --jobs pool workers fork
                # with it loaded instead of each importing it again.
                get_experiment(exp_id)

        for payload in self._execute_many(to_run, jobs):
            exp_id = payload["exp_id"]
            key = keys.get(exp_id)
            if payload.get("error") is not None:
                outcomes[exp_id] = RunOutcome(
                    exp_id=exp_id,
                    result=None,
                    from_cache=False,
                    wall_s=payload["wall_s"],
                    key=key,
                    error=payload["error"],
                )
                continue
            result = ExperimentResult.from_dict(payload["result"])
            net = payload["net"]
            outcome = RunOutcome(
                exp_id=exp_id,
                result=result,
                from_cache=False,
                wall_s=payload["wall_s"],
                key=key,
                net=tuple(net),
                failures=payload["failures"],
            )
            if caching and key is not None:
                self.cache.put(
                    CacheEntry(
                        key=key,
                        exp_id=exp_id,
                        version=__version__,
                        wall_s=outcome.wall_s,
                        result=result,
                        failures=outcome.failures,
                        net=outcome.net,
                    )
                )
            outcomes[exp_id] = outcome

        ordered = [outcomes[exp_id] for exp_id in ids]
        self._publish(ordered)
        return ordered

    def _execute_many(
        self, exp_ids: List[str], jobs: int
    ) -> List[Dict[str, Any]]:
        if not exp_ids:
            return []
        trace_path = {
            exp_id: (
                f"{self.trace_dir}/{exp_id}.trace.json"
                if self.trace_dir
                else None
            )
            for exp_id in exp_ids
        }
        if jobs <= 1 or len(exp_ids) == 1:
            return [
                _execute(e, self.fault_plan, trace_path[e], self.profile_dir)
                for e in exp_ids
            ]
        payloads: List[Dict[str, Any]] = []
        broken: List[str] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _execute, e, self.fault_plan, trace_path[e],
                    self.profile_dir,
                )
                for e in exp_ids
            ]
            for exp_id, future in zip(exp_ids, futures):
                try:
                    payloads.append(future.result())
                except BrokenProcessPool:
                    # A worker died under this experiment (OOM kill,
                    # segfault, ...). The pool is unusable from here on
                    # — every remaining future raises too — so collect
                    # the casualties and retry them inline below rather
                    # than aborting the whole run.
                    broken.append(exp_id)
        for exp_id in broken:
            payload = _execute(
                exp_id, self.fault_plan, trace_path[exp_id], self.profile_dir
            )
            if payload.get("error") is not None:
                payload["error"] = (
                    "worker process died and the inline retry failed: "
                    + payload["error"]
                )
            payloads.append(payload)
        return payloads

    # -- telemetry --------------------------------------------------------
    def _publish(self, outcomes: List[RunOutcome]) -> None:
        """Update hit/miss totals and mirror them onto the tracer.

        Counter timestamps are the outcome's index in registry order —
        a deterministic "time" axis, so two runs over the same tree
        export identical hit/miss counter series even though host wall
        times differ.
        """
        self.hits = sum(1 for o in outcomes if o.from_cache)
        self.misses = len(outcomes) - self.hits
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if tracer is None:
            return
        for i, o in enumerate(outcomes):
            name = "runner.cache.hits" if o.from_cache else "runner.cache.misses"
            tracer.add(name, float(i), 1.0)
            tracer.record(f"runner.exp[{o.exp_id}].wall_s", float(i), o.wall_s)
            if o.failed:
                tracer.add("runner.exp.failures", float(i), 1.0)
