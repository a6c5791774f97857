"""Run the benchmark over several seeds and report its run-to-run spread.

From the root of a checkout::

    python3 perfbench/sweep.py --seeds 10                 # every workload
    python3 perfbench/sweep.py --seeds 5 --workloads regen_warm --sets 2

Runs ``BENCHMARK.json``'s command once per seed and workload, interleaving
the workloads (seed 1 of each, then seed 2, ...) so that drift of the host
spreads over all of them instead of landing on one. For every end-to-end
metric it prints the median of the runs and the distance between their
first and third quartiles as a share of the median, next to the metric's
bound. ``--sets 2`` repeats the whole sweep and compares the two medians.
Exits 1 if a run fails its correctness check, if a spread (other than
``setup_s``'s) exceeds its bound, or if a second median is worse than the
first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from stats import summarize  # noqa: E402


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [
        *spec["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def sweep(spec: dict, workloads: List[str], seeds: List[int]
          ) -> Dict[str, Dict[str, List[float]]]:
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            result = run_once(spec, w, seed)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect output")
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    medians: List[Dict[str, Dict[str, float]]] = []
    for n in range(args.sets):
        print(f"set {n + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        values = sweep(spec, workloads, seeds)
        medians.append({})
        for w in workloads:
            medians[-1][w] = {}
            for name, vals in values[w].items():
                s = summarize(vals)
                bound = bounds[name]["bound"]
                flag = ""
                if name != "setup_s" and s.spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif s.spread > bound / 3:
                    flag = "  over a third of the bound"
                print(f"{w:12s} {name:12s} median {s.median:.6g} "
                      f"spread {s.spread:.4f} (bound {bound}, n={s.n}){flag}")
                medians[-1][w][name] = s.median
    if args.sets == 2:
        for w in workloads:
            for name, first in medians[0][w].items():
                second = medians[1][w][name]
                change = (second - first) / first
                if bounds[name]["better"] == "higher":
                    change = -change
                bad = change > bounds[name]["bound"]
                ok = ok and not bad
                print(f"{w:12s} {name:12s} set 2 vs set 1: {change:+.4f} "
                      f"worse{'  OVER BOUND' if bad else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
