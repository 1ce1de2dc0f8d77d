"""Repeat the benchmark over several seeds and report how steady it is.

    python3 bench/proof.py --runs 10
    python3 bench/proof.py --runs 5 --workloads families --first-seed 201
    python3 bench/proof.py --runs 10 --out bench/trajectory/NNN-label.json

For every workload it runs ``run.py`` once per seed with tracing off, then
gives each end-to-end metric's median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  A spread above a third of the metric's bound in
BENCHMARK.json is flagged.  With ``--out`` it also makes one traced run per
workload and writes everything, with the environment, as a trajectory point.
The exit code is nonzero when any run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode or 1, {}, {"correct": False, "failed": 1, "metrics": {}}
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    point = {"run_seconds": args.seconds, "seeds": list(range(args.first_seed, args.first_seed + args.runs)), "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in point["seeds"]:
            code, detail, line = run_once(workload, seed, args.seconds, 0)
            all_correct &= code == 0 and line["correct"]
            point.setdefault("environment", detail.get("environment"))
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: exit {code} failed {line['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        summary = {name: summarize(vals) for name, vals in values.items() if len(vals) >= 2}
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        point["workloads"][workload] = {"end_to_end": summary}
        if args.out:
            code, detail, line = run_once(workload, point["seeds"][0], args.seconds, 1)
            all_correct &= code == 0 and line["correct"]
            point["workloads"][workload]["per_layer"] = {k: v["value"] for k, v in line["metrics"].items()}
            point["workloads"][workload]["unmeasured"] = detail.get("unmeasured")
    if args.out:
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
