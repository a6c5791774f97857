"""Content-addressed on-disk cache of experiment results.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
        v2/
            ab/
                ab3f...e2.json     # one entry per cache key

Each entry is a self-describing JSON document: the key, the experiment
id, the package version, the measured execution wall time, the
serialized :class:`~repro.core.experiment.ExperimentResult` and the
outcome of the driver's ``shape_checks`` (its list of failures), so a
hit reports PASS/FAIL without importing the driver. Entries are
written atomically (:func:`~repro.runner.atomic.atomic_write_text`) so a
crashed or concurrent run never leaves a truncated entry; unreadable
entries are treated as misses and overwritten.

The key (see :meth:`~repro.runner.runner.ExperimentRunner.key_for`)
addresses *content*: two trees with identical model sources and fault
plan share results; any divergence misses.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.experiment import ExperimentResult
from repro.runner.atomic import atomic_write_text

#: Bump when the entry schema changes; lives in the directory layout so
#: old and new schemas never collide.
SCHEMA = "v2"

DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass
class CacheEntry:
    """One stored experiment result plus its provenance."""

    key: str
    exp_id: str
    version: str
    wall_s: float
    result: ExperimentResult
    #: The failed shape checks of ``result`` (empty: PASS). A pure
    #: function of the result and the driver source, both in the key.
    failures: List[str]
    #: ``(fast, total)`` network transfers of the original run, or
    #: ``None`` when the writer did not count them.
    net: Optional[Tuple[int, int]] = None

    def to_dict(self) -> dict:
        d = {
            "key": self.key,
            "exp_id": self.exp_id,
            "version": self.version,
            "wall_s": self.wall_s,
            "result": self.result.to_dict(),
            "failures": list(self.failures),
        }
        if self.net is not None:
            d["net"] = list(self.net)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "CacheEntry":
        net = data.get("net")
        return cls(
            key=data["key"],
            exp_id=data["exp_id"],
            version=data["version"],
            wall_s=float(data["wall_s"]),
            result=ExperimentResult.from_dict(data["result"]),
            failures=list(data["failures"]),
            net=tuple(net) if net is not None else None,
        )


class ResultCache:
    """Filesystem-backed result store keyed by fingerprint."""

    def __init__(
        self, root: Union[str, pathlib.Path] = DEFAULT_CACHE_DIR
    ) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path: two-level fan-out keeps directories small."""
        return self.root / SCHEMA / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry stored under ``key``, or ``None`` (miss).

        A corrupt, truncated or schema-incompatible entry is a miss,
        never an error — the runner recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            entry = CacheEntry.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if entry.key != key:
            return None
        return entry

    def put(self, entry: CacheEntry) -> pathlib.Path:
        """Atomically store ``entry``; returns the entry path.

        Published through :func:`~repro.runner.atomic.atomic_write_text`,
        so an operator's Ctrl-C cannot tear the entry or abandon a temp
        file — the entry either fully appears or not at all, and the
        interrupt is delivered right after.
        """
        # No sort_keys: column order of table rows is semantic and must
        # survive the round-trip byte-identically.
        return atomic_write_text(
            self.path_for(entry.key), json.dumps(entry.to_dict())
        )

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def entries(self) -> int:
        """Number of stored entries (for diagnostics)."""
        base = self.root / SCHEMA
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.json"))
