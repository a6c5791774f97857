"""Cache-key derivation for the experiment runner.

A cached result may be reused only when *every* input that shaped it is
unchanged. The key is the SHA-256 of a canonical JSON document over
three ingredients:

* the **experiment id**;
* the **model tree hash** (:func:`model_tree_hash`) — one SHA-256 over
  the bytes of every ``*.py`` file in the model packages, so any edit to
  a driver, a machine config, a sweep constant or a model the driver
  reaches through imports is a miss. Tooling packages (lint, campaign,
  runner, obs, prof, simrace) are outside it: editing them never
  flushes results;
* the **fault-plan hash** — an injected run must never alias the
  fault-free one (``None`` hashes differently from every real plan,
  including the empty shield plan).

The live ingredients are gathered in one place,
:meth:`repro.runner.ExperimentRunner.key_for`; every front end (``repro
all``, campaign cells, simrace certificates) derives its key through it.
Nothing here imports the model: a warm run keys all 26 experiments by
reading files.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from functools import lru_cache
from typing import Any, Dict, Optional

NO_FAULTS = "no-faults"

#: Subpackages of ``repro`` whose source shapes experiment results.
MODEL_PACKAGES = (
    "apps", "core", "experiments", "faults", "hpcc", "kernels", "lustre",
    "machine", "mpi", "network", "simengine",
)

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def model_tree_hash(root: Optional[str] = None) -> str:
    """SHA-256 over the relative path and bytes of every model source file.

    ``root`` is a ``repro`` package directory (default: the one this
    module belongs to); tests pass an edited copy. Files are visited in
    sorted relative-path order, each framed by its path and length, so
    moving bytes between files changes the hash too.
    """
    base = pathlib.Path(root) if root is not None else _PACKAGE_ROOT
    paths = sorted(
        path.relative_to(base).as_posix()
        for package in MODEL_PACKAGES
        for path in (base / package).rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel in paths:
        data = (base / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def fault_hash(plan: Optional[Dict[str, Any]]) -> str:
    """Hash of a fault plan's canonical dict (``NO_FAULTS`` when none).

    ``plan`` is :meth:`repro.faults.FaultPlan.to_dict` output, so
    cosmetic JSON reformatting of the plan file does not flush the cache
    but any semantic change (one more event, a different node) does.
    """
    if plan is None:
        return NO_FAULTS
    return sha256_text(canonical_json(plan))


def cache_key(exp_id: str, *, tree: str, fault_hash: str = NO_FAULTS) -> str:
    """SHA-256 cache key over the three fingerprint ingredients."""
    return sha256_text(
        canonical_json(
            {"exp_id": exp_id, "tree": tree, "fault_plan": fault_hash}
        )
    )
