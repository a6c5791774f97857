"""Cache-key derivation for the experiment runner.

A cached result may be reused only when *every* input that shaped it is
unchanged. The key is the SHA-256 of a canonical JSON document over five
ingredients:

* the **driver module source** — edit the experiment, recompute;
* the **machine-config JSON** — the serialized form of every standard
  machine factory (:func:`repro.machine.io.machine_to_dict`), so a
  recalibrated processor/memory/NIC spec invalidates everything;
* the **sweep constants** from :mod:`repro.experiments.common` — a wider
  x-axis is a different figure;
* the **package version** (``repro.__version__``) — a release bump is a
  global flush, the coarse guard for model changes the finer
  ingredients miss;
* the **fault-plan hash** — an injected run must never alias the
  fault-free one (``None`` hashes differently from every real plan,
  including the empty shield plan).

The ingredients are explicit keyword arguments so tests can vary each
independently and assert a miss. The live ingredients are gathered in
one place, :meth:`repro.runner.ExperimentRunner.key_for`; every front
end (``repro all``, campaign cells, simrace certificates) derives its
key through it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from functools import lru_cache
from typing import Any, Dict, Optional

NO_FAULTS = "no-faults"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def driver_source(exp_id: str) -> str:
    """Source text of the module defining ``exp_id``'s driver."""
    from repro.core.registry import driver_module

    module = sys.modules.get(driver_module(exp_id))
    if module is None:  # registered but module never imported: load it
        import importlib

        module = importlib.import_module(driver_module(exp_id))
    return inspect.getsource(module)


@lru_cache(maxsize=1)
def machine_blob() -> str:
    """Canonical JSON of every standard machine configuration.

    Covers both SN and VN instantiations of each factory, so a
    mode-dependent spec change (e.g. VN memory partitioning) is caught.
    """
    from repro.machine.configs import (
        xt3,
        xt3_dc,
        xt3_xt4_combined,
        xt4,
        xt4_quadcore,
    )
    from repro.machine.io import machine_to_dict

    factories = {
        "xt3": xt3,
        "xt3_dc": xt3_dc,
        "xt4": xt4,
        "xt4_quadcore": xt4_quadcore,
        "xt3_xt4_combined": xt3_xt4_combined,
    }
    blob: Dict[str, Any] = {}
    for name, factory in sorted(factories.items()):
        for mode in ("SN", "VN"):
            blob[f"{name}/{mode}"] = machine_to_dict(factory(mode))
    return canonical_json(blob)


@lru_cache(maxsize=1)
def sweep_blob() -> str:
    """Canonical JSON of the shared sweep constants."""
    from repro.experiments.common import sweep_constants

    return canonical_json(sweep_constants())


def fault_hash(plan: Optional[Dict[str, Any]]) -> str:
    """Hash of a fault plan's canonical dict (``NO_FAULTS`` when none).

    ``plan`` is :meth:`repro.faults.FaultPlan.to_dict` output, so
    cosmetic JSON reformatting of the plan file does not flush the cache
    but any semantic change (one more event, a different node) does.
    """
    if plan is None:
        return NO_FAULTS
    return sha256_text(canonical_json(plan))


def cache_key(
    exp_id: str,
    *,
    driver_src: str,
    machines: str,
    sweeps: str,
    version: str,
    fault_hash: str = NO_FAULTS,
) -> str:
    """SHA-256 cache key over the five fingerprint ingredients."""
    document = canonical_json(
        {
            "exp_id": exp_id,
            "driver_source_sha256": sha256_text(driver_src),
            "machines_sha256": sha256_text(machines),
            "sweeps_sha256": sha256_text(sweeps),
            "version": version,
            "fault_plan": fault_hash,
        }
    )
    return sha256_text(document)
