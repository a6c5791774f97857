"""Schedule-invariance certification of experiment drivers.

``certify_driver`` re-executes a registered driver K+1 times: once under
the identity tie-break order (today's insertion order, bit-identical to
a normal run) and K times under seeded permutations of the event queue's
tie-breaking (:mod:`repro.simrace.permute`). Each execution is reduced
to a canonical JSON blob over

* the driver's :class:`~repro.core.experiment.ExperimentResult` rows
  (``to_dict`` preserves column order, so the comparison is
  byte-faithful),
* every obs counter total recorded under a fresh installed tracer, and
* the DES companion report, when the driver module defines one — the
  companion is where most drivers' event-queue activity lives.

If every permuted blob equals the baseline, the driver is
*schedule-invariant*: its published numbers cannot depend on same-time
event ordering, which is the precondition for the simengine hot-path
rewrite's "bit-identical results" gate (ROADMAP item 1, and
docs/DETERMINISM.md).

Certificates are content-addressed like cached results: the key covers
the driver's result cache key (the experiment id and the model tree
hash — see :meth:`repro.runner.ExperimentRunner.key_for`) plus the
certification parameters, so editing a driver or the machine model
invalidates the certificates and editing tooling does not.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runner.atomic import atomic_write_text
from repro.runner.fingerprint import canonical_json
from repro.simrace.permute import DEFAULT_SEED, permutation_seeds, tie_break_permutation

#: Bump when the certificate schema or the execution-blob shape changes.
RACE_SCHEMA = 1

DEFAULT_PERMUTATIONS = 4


@dataclass
class Certificate:
    """The outcome of certifying one driver.

    ``divergence`` is ``None`` for an invariant driver; otherwise it
    carries the first diverging permutation seed and a pointer to the
    first differing value (path into the execution blob, baseline value,
    permuted value).
    """

    exp_id: str
    title: str
    schedule_invariant: bool
    k: int
    base_seed: int
    seeds: List[int] = field(default_factory=list)
    divergence: Optional[Dict[str, Any]] = None
    fingerprint: str = ""
    from_cache: bool = False

    def to_dict(self) -> dict:
        return {
            "schema": RACE_SCHEMA,
            "exp_id": self.exp_id,
            "title": self.title,
            "schedule_invariant": self.schedule_invariant,
            "k": self.k,
            "base_seed": self.base_seed,
            "seeds": list(self.seeds),
            "divergence": self.divergence,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        return cls(
            exp_id=data["exp_id"],
            title=data.get("title", ""),
            schedule_invariant=bool(data["schedule_invariant"]),
            k=int(data["k"]),
            base_seed=int(data["base_seed"]),
            seeds=[int(s) for s in data.get("seeds", [])],
            divergence=data.get("divergence"),
            fingerprint=data.get("fingerprint", ""),
        )


class CertificateCache:
    """Content-addressed certificate store (mirrors the result cache).

    Layout: ``<root>/race-v1/<2-char fan-out>/<key>.json``; writes are
    atomic, unreadable entries are misses.
    """

    SCHEMA = f"race-v{RACE_SCHEMA}"

    def __init__(self, root: Union[str, pathlib.Path] = ".repro-cache") -> None:
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / self.SCHEMA / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Certificate]:
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            if data.get("schema") != RACE_SCHEMA or data.get("key") != key:
                return None
            return Certificate.from_dict(data["certificate"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, cert: Certificate) -> pathlib.Path:
        return atomic_write_text(
            self.path_for(key),
            json.dumps(
                {"schema": RACE_SCHEMA, "key": key, "certificate": cert.to_dict()}
            ),
        )


def certificate_key(exp_id: str, k: int, base_seed: int) -> str:
    """Content key: the driver's result cache key + race parameters."""
    from repro.runner.runner import ExperimentRunner

    document = canonical_json(
        {
            "race_schema": RACE_SCHEMA,
            "result_key": ExperimentRunner().key_for(exp_id),
            "k": int(k),
            "base_seed": int(base_seed),
        }
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# -- execution ---------------------------------------------------------------

def _clear_module_memoization(module) -> None:
    """Reset every ``functools`` memo cache defined at module level.

    Drivers memoize expensive sweeps (``@lru_cache``) so the reproduce
    and render passes share one simulation. Certification must defeat
    that: a cached sweep would neither re-run under the permuted
    tie-break (masking true divergence) nor re-record its counters
    (faking divergence in the totals).
    """
    for value in vars(module).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


def _execution_blob(exp_id: str) -> Dict[str, Any]:
    """One full driver execution reduced to comparable data."""
    from repro.core.registry import get_experiment
    from repro.experiments.common import run_companion
    from repro.obs.tracer import Tracer, installed

    driver = get_experiment(exp_id)
    _clear_module_memoization(importlib.import_module(driver.__module__))
    with installed(Tracer(meta={"exp_id": exp_id, "command": "race"})) as tracer:
        result = driver()
        report = run_companion(exp_id)
    return {
        "result": result.to_dict(),
        "counters": tracer.counter_totals(),
        "companion": report,
    }


def first_divergence(
    baseline: Any, permuted: Any, path: str = "$"
) -> Optional[Tuple[str, Any, Any]]:
    """First differing ``(path, baseline value, permuted value)``, or None.

    Walks dicts (sorted keys) and lists in parallel; scalar mismatch
    reports the values, shape mismatch reports the containers.
    """
    if type(baseline) is not type(permuted):
        return (path, baseline, permuted)
    if isinstance(baseline, dict):
        if sorted(baseline) != sorted(permuted):
            return (path, sorted(baseline), sorted(permuted))
        for key in sorted(baseline):
            hit = first_divergence(baseline[key], permuted[key], f"{path}.{key}")
            if hit is not None:
                return hit
        return None
    if isinstance(baseline, list):
        if len(baseline) != len(permuted):
            return (path, f"len={len(baseline)}", f"len={len(permuted)}")
        for i, (a, b) in enumerate(zip(baseline, permuted)):
            hit = first_divergence(a, b, f"{path}[{i}]")
            if hit is not None:
                return hit
        return None
    if baseline != permuted:
        return (path, baseline, permuted)
    return None


def _shorten(value: Any, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def certify_driver(
    exp_id: str,
    k: int = DEFAULT_PERMUTATIONS,
    base_seed: int = DEFAULT_SEED,
    cache: Optional[CertificateCache] = None,
    force: bool = False,
) -> Certificate:
    """Certify one driver; consults/updates ``cache`` when given."""
    from repro.core.registry import experiment_title

    key = certificate_key(exp_id, k, base_seed)
    if cache is not None and not force:
        hit = cache.get(key)
        if hit is not None:
            hit.from_cache = True
            return hit

    seeds = permutation_seeds(base_seed, k)
    with tie_break_permutation(None):  # identity baseline, explicit
        baseline = _execution_blob(exp_id)
    baseline_json = canonical_json(baseline)

    divergence: Optional[Dict[str, Any]] = None
    for seed in seeds:
        with tie_break_permutation(seed):
            permuted = _execution_blob(exp_id)
        if canonical_json(permuted) != baseline_json:
            hit = first_divergence(baseline, permuted)
            assert hit is not None
            path, base_val, perm_val = hit
            divergence = {
                "seed": seed,
                "path": path,
                "baseline": _shorten(base_val),
                "permuted": _shorten(perm_val),
            }
            break

    cert = Certificate(
        exp_id=exp_id,
        title=experiment_title(exp_id),
        schedule_invariant=divergence is None,
        k=k,
        base_seed=base_seed,
        seeds=seeds,
        divergence=divergence,
        fingerprint=key,
    )
    if cache is not None:
        cache.put(key, cert)
    return cert
