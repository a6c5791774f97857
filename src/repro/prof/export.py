"""Profile artifacts: JSON profiles, folded flamegraph stacks, metrics.

One recorded experiment produces three sibling files:

``<exp>.profile.json``
    The full engine profile (schema-tagged): sampled wall time per phase
    / event kind / callsite / scheduling edge, collapsed stacks, the
    sample count and interval, and a ``deterministic`` section that
    depends only on the simulation (counts and stack paths —
    byte-identical across runs).
``<exp>.folded``
    Collapsed stacks in the ``flamegraph.pl`` input format — one
    ``path;segments value`` line per stack, value in nanoseconds of
    sampled self time. Feed straight to Brendan Gregg's
    ``flamegraph.pl`` (or any compatible renderer, e.g. speedscope's
    "collapsed" importer).
``<exp>.metrics.json``
    The sim-time metrics registry (queue-depth / ready-set histograms,
    link-utilization gauges, sampled series) — fully deterministic.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional

from repro.prof.profiler import SAMPLE_INTERVAL_S, EngineProfiler

__all__ = [
    "PROFILE_SCHEMA",
    "load_profile",
    "profile_dict",
    "write_artifacts",
]

#: 2: sampled wall time (``engine.samples``, ``engine.interval_ns``);
#: schema-1 profiles came from probes and do not compare with these.
PROFILE_SCHEMA = 2


def profile_dict(
    prof: EngineProfiler, meta: Optional[Dict[str, Any]] = None
) -> dict:
    """The full profile as a JSON-safe dict (sorted keys throughout)."""
    return {
        "schema": PROFILE_SCHEMA,
        "meta": dict(sorted((meta or {}).items())),
        "engine": {
            "run_wall_ns": prof.run_wall_ns,
            "host_ns": prof.host_ns,
            "wall_ns": prof.wall_ns,
            "samples": prof.samples,
            "interval_ns": round(SAMPLE_INTERVAL_S * 1e9),
            "events": prof.events,
            "sims": prof.sims,
            "cancels": prof.cancels,
        },
        "phases": {
            name: {"self_ns": ns} for name, ns in prof.phases.items()
        },
        **{
            table: {
                name: {"ns": ns, "count": n}
                for name, (ns, n) in prof.totals(field).items()
            }
            for table, field in (("kinds", "kind"), ("sites", "site"),
                                 ("edges", "edge"))
        },
        "stacks": {
            path: prof.stack_self_ns[path]
            for path in sorted(prof.stack_self_ns)
        },
        "deterministic": prof.deterministic_dict(),
    }


def write_artifacts(
    prof: EngineProfiler,
    out_dir: str,
    stem: str,
    meta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Write all three artifacts for ``stem`` into ``out_dir``.

    Returns the written paths (profile, folded, metrics — in that order).
    The caller is expected to have called :meth:`EngineProfiler.finalize`.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # flamegraph.pl collapsed-stack lines, sorted for determinism.
    lines = [f"{path} {ns}" for path, ns in sorted(prof.stack_self_ns.items())]
    texts = {
        "profile.json": json.dumps(
            profile_dict(prof, meta), sort_keys=True, indent=1
        ) + "\n",
        "folded": "\n".join(lines) + ("\n" if lines else ""),
        "metrics.json": prof.metrics.to_json(),
    }
    paths = []
    for suffix, text in texts.items():
        path = out / f"{stem}.{suffix}"
        path.write_text(text)
        paths.append(str(path))
    return paths


def load_profile(path: str) -> dict:
    """Load a ``.profile.json`` artifact, checking its schema tag."""
    doc = json.loads(pathlib.Path(path).read_text())
    schema = doc.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ValueError(
            f"{path}: profile schema {schema!r}, expected {PROFILE_SCHEMA}"
        )
    return doc
