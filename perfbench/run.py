"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload published --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload (see workloads.py) for at most --seconds,
and at least one round, checks every round's outputs, and prints one JSON object as the
last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics from a traced run with --trace 1.  A record of the run,
with its environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median, median_low

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# set-up is measured in this many fresh interpreters besides this one
SETUP_PROBES = 4

_SETUP_PROBE = f"""
import time
started = time.perf_counter()
import sys
sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]
import workloads
workloads.setup()
print(repr(time.perf_counter() - started))
"""


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypchrom", "__init__.py")):
        print(f"perfbench: no package sources in {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    g9, cfg = workloads.setup()
    setup_samples = [time.perf_counter() - started]
    setup_samples += [setup_probe() for _ in range(SETUP_PROBES)]

    from hypchrom.coloring import ACTIVE_BACKEND

    env = {
        "python": platform.python_version(),
        "backend": ACTIVE_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, record = measure(workloads, spec, g9, cfg, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = result
    else:
        metrics = dict(result)
        metrics["setup_s"] = median(setup_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(env=env, setup_samples=setup_samples, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"perfbench: {args.workload} seed {args.seed}: python {env['python']}, "
        f"backend {env['backend']}, nproc {env['nproc']}; {record['rounds']} rounds; "
        f"graph order {record['order']}, size {record['size']}; "
        f"4-colorable {record['four_colorable']}",
        flush=True,
    )
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", flush=True)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def measure(workloads, spec, g9, cfg, args, workdir):
    """Timed rounds until the time is up; returns (metrics, run record)."""
    tracer = None
    untraced = []
    if args.trace:
        from tracing import Tracer, install_layer_spans

        tracer = Tracer()

    samples: dict[str, list[float]] = {}
    layer_rounds = []
    problems: list[str] = []
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    try:
        # another round only if it should end within the time given
        while rounds == 0 or time.perf_counter() + last <= deadline:
            round_started = time.perf_counter()
            if tracer is not None:
                # growth without tracing first, to give the tracing overhead
                t0 = time.perf_counter()
                workloads.augment.grow_pipeline(g9, workloads.paper.SCHEDULE[: spec.phases], cfg)
                untraced.append(time.perf_counter() - t0)
                install_layer_spans(tracer)
                tracer.reset()
            times, out = workloads.run_round(spec, g9, cfg, args.seed, workdir, tracer)
            rounds += 1
            if tracer is not None:
                tracer.uninstall()
                layer = workloads.layer_metrics(tracer, out)
                layer["trace.pipeline_s"] = times["pipeline_s"][0]
                layer_rounds.append(layer)
            for name, values in times.items():
                samples.setdefault(name, []).extend(values)
            problems += workloads.check_round(spec, out, workdir)
            last = time.perf_counter() - round_started
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        # median_low keeps counts whole; they are equal in every round
        metrics = {name: median_low(r[name] for r in layer_rounds) for name in layer_rounds[0]}
        metrics["trace.overhead_s"] = metrics.pop("trace.pipeline_s") - median_low(untraced)
    else:
        metrics = {name: median(values) for name, values in samples.items()}
    g = out["graphs"][-1]
    spans = {} if tracer is None else {
        name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time, "hits": st.hits}
        for name, st in tracer.stats.items()
    }
    record = {
        "rounds": rounds,
        "attempted": rounds * workloads.ops_per_round(spec),
        "samples": samples,
        "untraced_pipeline_s": untraced,
        "order": g.order,
        "size": g.size,
        "four_colorable": out["decide4"][0] is not None,
        "problems": sorted(set(problems)),
        "last_round_spans": spans,
    }
    return metrics, record


if __name__ == "__main__":
    sys.exit(main())
