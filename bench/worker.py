"""One pass of a benchmark workload, in a fresh process.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH.  It
prints ``ready`` as soon as ``import packcrit`` returns, so the parent can
time set-up, then runs the workload's items in the seed's order and prints
one JSON line with what it observed: per item its time, its instances'
latencies, the machine-speed scale measured while it ran (see reference.py)
and its results.  Judging the results against the pins is left to the
parent.

    python3 bench/worker.py --workload radius1 --seed 1 --trace 0
"""

import sys


def main(argv: list[str]) -> int:
    import packcrit

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import argparse
    import json
    import resource
    import time
    import traceback
    from pathlib import Path

    import spans
    from reference import SpeedSampler
    from workloads import SWEEP, plan, records_digest

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(packcrit.__file__).resolve().parent != src / "packcrit":
        print(f"packcrit imported from {packcrit.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        return 0

    from packcrit import families, packing, verify

    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()

    sampler = SpeedSampler()
    sampler.start()
    done = []  # (kind, name, seconds, output or None, error or None, scale)
    for kind, name in plan(args.workload, args.seed):
        output = error = None
        first = len(sampler.samples)
        sampler.take()
        handler_s = sampler.handler_s
        t0 = time.perf_counter()
        try:
            if kind == SWEEP:
                output = verify.run_sweep(name)
            else:
                graph = families.build(families.parse_spec(name)).graph
                q0 = time.perf_counter()
                value = packing.chi_rho(graph)
                output = (graph, value, int((time.perf_counter() - q0) * 1e6))
        except Exception as exc:  # one failing item must not hide the rest
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (sampler.handler_s - handler_s)
        sampler.take()
        done.append((kind, name, seconds, output, error, sampler.scale_since(first)))
    sampler.stop()
    wall_s = sum(item[2] for item in done)

    if recorder is not None:
        recorder.uninstall()

    items = []
    for kind, name, seconds, output, error, scale in done:
        item = {"kind": kind, "name": name, "seconds": seconds, "scale": scale,
                "error": error, "instances_us": []}
        if output is not None and kind == SWEEP:
            item["count"] = output.total
            item["digest"] = records_digest(output.records)
            item["disagreements"] = len(output.disagreements)
            item["instances_us"] = [rec["micros"] for rec in output.records]
        elif output is not None:
            graph, value, micros = output
            item["value"] = value.value
            item["witness_ok"] = packing.verify_packing_coloring(graph, value.witness).ok
            item["instances_us"] = [micros]
        items.append(item)

    result = {
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": items,
    }
    if recorder is not None:
        result["span_table"] = recorder.table()
        result["layers"] = spans.layer_metrics(recorder, result["span_table"])
        result["unmeasured"] = recorder.unmeasured
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
