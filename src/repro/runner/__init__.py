"""Parallel, content-addressed experiment runner.

``repro all`` used to replay all 26 drivers serially from scratch on
every invocation. This package makes re-execution cheap and
reproducible, the property the paper's artifact (and any large
simulation sweep) lives on:

* :mod:`repro.runner.fingerprint` — derives a SHA-256 cache key from
  the experiment id, one hash over the bytes of the model packages'
  source files, and the fault-plan hash, without importing the model;
* :mod:`repro.runner.cache` — a content-addressed result store under
  ``.repro-cache/`` with atomic writes and corruption-as-miss reads;
  each entry carries its result's shape-check outcome, so an all-hit
  run imports no driver;
* :mod:`repro.runner.runner` — :class:`ExperimentRunner`, the only
  code that turns an experiment id and fault plan into a cache key, an
  execution and a stored entry: it checks the cache, fans misses out
  across a process pool (a raising driver, or a ``BrokenProcessPool``
  casualty whose one inline retry fails too, is reported as a
  per-experiment failure, never an abort), merges outcomes in registry
  order, and reports cache/wall-time counters through :mod:`repro.obs`;
* :mod:`repro.runner.atomic` — ``atomic_write_text``, the one
  temp-file + ``os.replace`` publish, with SIGINT deferred so Ctrl-C
  never tears an on-disk write;
* :mod:`repro.runner.cache_cli` — ``repro cache verify|gc`` store
  hygiene.

``repro all`` is the one-host, ephemeral special case of a *campaign*:
:mod:`repro.campaign` layers a journaled, resumable, multi-worker
work-queue over the same content-addressed store (each campaign cell
runs through :class:`ExperimentRunner`, so the two share results).

See docs/RUNNER.md for the cache layout and CLI semantics
(``repro all --jobs N [--force] [--no-cache]``).
"""

from repro.runner.atomic import defer_sigint
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    CacheEntry,
    ResultCache,
)
from repro.runner.fingerprint import (
    NO_FAULTS,
    cache_key,
    fault_hash,
    model_tree_hash,
)
from repro.runner.runner import ExperimentRunner, RunOutcome

__all__ = [
    "CacheEntry",
    "DEFAULT_CACHE_DIR",
    "ExperimentRunner",
    "NO_FAULTS",
    "ResultCache",
    "RunOutcome",
    "cache_key",
    "defer_sigint",
    "fault_hash",
    "model_tree_hash",
]
