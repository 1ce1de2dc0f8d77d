"""packcrit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload radius1 --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository; it imports packcrit from the
checkout's ``src`` and needs nothing else.  Each pass of the workload runs
in a fresh worker process (bench/worker.py), one at a time, so each pass
pays packcrit's lazy enumeration cache once, as a user's ``packcrit verify``
does.  Passes repeat until the next one would end after ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported, scaled to the
reference speed that bench/reference.py measures while each pass runs.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are reported, unscaled, with the tracing
overhead.  Every figure is the median over the run's passes.  Every pass is checked against the pins in
bench/workloads.py, and any failure makes the exit code nonzero.

The second-to-last line of output is a JSON record of the run: environment,
seed, per-pass figures, failures and unmeasured call sites.  The last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import SpeedSampler
from spans import unit_of
from workloads import QUERY_PINS, SWEEP, SWEEP_PINS, WORKLOADS, planned_instances

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Every run must end within 180 s; stop starting passes well before that.
RUN_BUDGET_S = 165.0
# Set-up-only spawns per untraced run, and reference samples around each.
SETUP_SAMPLES = 9
SETUP_SPEED_SAMPLES = 10
# Tail latency is the highest of these percentiles that leaves at least
# TAIL_MIN_ABOVE instances above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_ABOVE = 10


# -- arithmetic ------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_MIN_ABOVE of ``n``
    instances above it; the median when there are too few instances."""
    for p in TAIL_LADDER:
        # n * (100 - p) / 100 >= TAIL_MIN_ABOVE, in integers (p has one decimal)
        if n * (1000 - round(p * 10)) >= TAIL_MIN_ABOVE * 1000:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolated linearly between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def count_failures(workload: str, items: list[dict] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one pass of ``workload``.

    ``items`` is the worker's per-item report, or None when the worker gave
    none; then every instance of the pass fails.  A sweep that raised,
    disagreed, or whose record count or digest differs from its pin fails
    with all its pinned instances.  A query fails when it raised, its value
    differs from its pin, or its witness is not a packing coloring.
    """
    attempted = planned_instances(workload)
    if items is None:
        return attempted, attempted, [f"{workload}: worker gave no result"]
    got = {(it["kind"], it["name"]): it for it in items}
    failed = 0
    reasons = []
    for kind, name in WORKLOADS[workload]:
        it = got.get((kind, name))
        if kind == SWEEP:
            count, digest = SWEEP_PINS[name]
            if it is None or it["error"]:
                why = it["error"] if it else "missing"
            elif it["count"] != count:
                why = f"{it['count']} records, pinned {count}"
            elif it["digest"] != digest:
                why = f"digest {it['digest'][:12]}, pinned {digest[:12]}"
            elif it["disagreements"]:
                why = f"{it['disagreements']} disagreements"
            else:
                continue
            failed += count
        else:
            if it is None or it["error"]:
                why = it["error"] if it else "missing"
            elif it["value"] != QUERY_PINS[name]:
                why = f"chi_rho {it['value']}, pinned {QUERY_PINS[name]}"
            elif not it["witness_ok"]:
                why = "witness is not a packing coloring"
            else:
                continue
            failed += 1
        reasons.append(f"{kind} {name}: {why}")
    return attempted, failed, reasons


# -- worker processes ---------------------------------------------------------


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so set and dict order cannot vary the work.
    env["PYTHONHASHSEED"] = "0"
    # The program's own size cap must not change the work set.
    env.pop("PACKCRIT_MAX_N", None)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float | None, dict | None, str | None]:
    """Run one worker.  Returns (set-up seconds, result, error): set-up is
    the time from spawning to ``import packcrit`` returning in the worker."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0,
        env=_worker_env(), cwd=str(ROOT),
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"ready\n":
        return None, None, f"worker did not start (exit {proc.returncode})"
    if proc.returncode != 0:
        return setup_s, None, f"worker exit {proc.returncode}"
    if "--setup-only" in args:
        return setup_s, None, None
    try:
        return setup_s, json.loads(out.decode().strip().splitlines()[-1]), None
    except (ValueError, IndexError) as exc:
        return setup_s, None, f"unreadable worker output: {exc}"


def read_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": read_commit(ROOT),
    }


# -- the run --------------------------------------------------------------------


def end_to_end(workload: str, results: list[dict], setups: list[float]) -> dict[str, dict]:
    """End-to-end metrics of a run's untraced passes, in seconds at the
    reference speed of reference.py.

    Each item's time and each instance's latency is scaled by the speed
    measured while its item ran (a run keeps one seed, so items and
    instances line up across passes).  An item's time is then its median
    over the passes.  An instance's latency is its minimum over the passes:
    the speed is measured per item, so a slow spell inside an item still
    lengthens the instances it hits, and a tail percentile would pick
    exactly those.  ``micros`` truncates, so a reading v stands for v + 0.5
    microseconds.
    """
    item_s: dict[str, list[float]] = {}
    per_pass = []
    for result in results:
        latencies = []
        for item in result["items"]:
            item_s.setdefault(item["name"], []).append(item["seconds"] * item["scale"])
            latencies.extend((us + 0.5) * item["scale"] for us in item["instances_us"])
        per_pass.append(latencies)
    latency_us = [min(col) for col in zip(*per_pass)]
    tail = tail_percentile(planned_instances(workload))
    return {
        "wall_s": {"value": sum(statistics.median(v) for v in item_s.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "instance_ms_p50": {"value": percentile(latency_us, 50.0) / 1000.0, "unit": "ms"},
        "instance_ms_tail": {"value": percentile(latency_us, tail) / 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0, "unit": "MB"},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; return (detail record, result line)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    attempted = failed = 0
    reasons: list[str] = []
    setups: list[float] = []
    passes: list[dict] = []
    results: list[dict] = []
    traced: list[dict] = []
    unmeasured: list[str] = []
    span_table = None

    # Compile bytecode and warm the file cache before timing set-up.
    spawn(base + ["--trace", "0", "--setup-only"], deadline)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            # Set-up is scaled by the speed measured around it, like the passes.
            sampler = SpeedSampler()
            for _ in range(SETUP_SPEED_SAMPLES):
                sampler.take()
            setup_s, _, err = spawn(base + ["--trace", "0", "--setup-only"], deadline)
            for _ in range(SETUP_SPEED_SAMPLES):
                sampler.take()
            if err:
                reasons.append(err)
            else:
                setups.append(setup_s * sampler.scale_since(0))

    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for traced_pass in ((False, True) if trace else (False,)):
            setup_s, result, err = spawn(base + ["--trace", str(int(traced_pass))], deadline)
            a, f, why = count_failures(workload, result["items"] if result else None)
            attempted += a
            failed += f
            reasons.extend(why)
            if err:
                reasons.append(err)
            if result is None:
                continue
            if traced_pass:
                traced.append({"wall_s": result["wall_s"], **result["layers"]})
                unmeasured = result["unmeasured"]
                span_table = result["span_table"]
            else:
                results.append(result)
                passes.append({
                    "setup_s": setup_s,
                    "wall_s": result["wall_s"],
                    "scaled_wall_s": sum(it["seconds"] * it["scale"] for it in result["items"]),
                    "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                })
        now = time.perf_counter()
        if now + (now - t_pass) > min(t_start + seconds, deadline):
            break

    med = lambda rows, key: statistics.median(r[key] for r in rows)
    metrics: dict[str, dict] = {}
    if trace and traced and passes:
        for key in traced[0]:
            if key != "wall_s":
                metrics[key] = {"value": med(traced, key), "unit": unit_of(key)}
        metrics["trace.overhead_s"] = {"value": med(traced, "wall_s") - med(passes, "wall_s"), "unit": "s"}
    elif not trace and results:
        metrics = end_to_end(workload, results, setups)
    correct = failed == 0 and not reasons and bool(metrics)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "tail_percentile": tail_percentile(planned_instances(workload)),
        "instances_per_pass": planned_instances(workload),
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": reasons,
        "setup_s": setups,
        "passes": passes,
        "traced_passes": traced,
        "unmeasured": unmeasured,
        "span_table": span_table,
    }
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return detail, line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "packcrit" / "__init__.py").is_file():
        print(f"error: no packcrit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    detail, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for why in detail["failures"]:
        print(f"FAIL {why}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
