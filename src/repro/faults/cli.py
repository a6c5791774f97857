"""CLI for authoring and inspecting fault plans.

::

    python -m repro faults sample --horizon 1.0 --nodes 8 --dims 2,2,2 \\
        --node-mtbf 0.5 --link-mtbf 2.0 --seed 7 --out plan.json
    python -m repro faults show plan.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan


def _parse_dims(text: str) -> Tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected X,Y,Z dims, got {text!r}")
    return (parts[0], parts[1], parts[2])


def _cmd_sample(args: argparse.Namespace) -> int:
    plan = FaultPlan.sample(
        horizon_s=args.horizon,
        num_nodes=args.nodes,
        torus_dims=args.dims,
        node_mtbf_s=args.node_mtbf,
        link_mtbf_s=args.link_mtbf,
        nic_mtbf_s=args.nic_mtbf,
        mem_mtbf_s=args.mem_mtbf,
        noise_mtbf_s=args.noise_mtbf,
        link_outage_s=args.link_outage,
        seed=args.seed,
    )
    if args.out:
        plan.save(args.out)
        print(f"wrote {len(plan)} fault event(s) to {args.out}")
    else:
        import json

        json.dump(plan.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        plan = FaultPlan.load(args.plan)
    except (OSError, ValueError) as exc:
        print(f"repro faults: cannot load {args.plan}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.plan}: {len(plan)} fault event(s)")
    for ev in plan:
        where = f"node {ev.node}" if ev.node is not None else f"link {ev.link}"
        extra = ""
        if ev.duration_s:
            extra += f" for {ev.duration_s:.9g}s"
        if ev.factor != 1.0:
            extra += f" x{ev.factor:.9g}"
        print(f"  t={ev.t_s:<12.9g} {ev.kind:<12} {where}{extra}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Author and inspect deterministic fault plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser(
        "sample", help="sample a plan from per-component MTBF rates"
    )
    p_sample.add_argument("--horizon", type=float, required=True,
                          help="plan horizon in simulated seconds")
    p_sample.add_argument("--nodes", type=int, required=True,
                          help="number of nodes faults may target")
    p_sample.add_argument("--dims", type=_parse_dims, default=None,
                          help="torus dims X,Y,Z (required for link faults)")
    p_sample.add_argument("--node-mtbf", type=float, default=None,
                          help="per-node crash MTBF (s)")
    p_sample.add_argument("--link-mtbf", type=float, default=None,
                          help="per-link failure MTBF (s)")
    p_sample.add_argument("--nic-mtbf", type=float, default=None,
                          help="per-NIC stall MTBF (s)")
    p_sample.add_argument("--mem-mtbf", type=float, default=None,
                          help="per-node memory-throttle MTBF (s)")
    p_sample.add_argument("--noise-mtbf", type=float, default=None,
                          help="per-node OS-noise MTBF (s)")
    p_sample.add_argument("--link-outage", type=float, default=0.0,
                          help="link outage duration (s); 0 = permanent")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None, help="output JSON path")
    p_sample.set_defaults(func=_cmd_sample)

    p_show = sub.add_parser("show", help="pretty-print a plan JSON file")
    p_show.add_argument("plan")
    p_show.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    return args.func(args)
