"""Benchmark of rollwave's public library API, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verdict-stable --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 0

One run sets up its inputs three times (``setup_s`` is the median), then
repeats whole rounds of its workload until ``--seconds`` have passed, checks
every round's output, and prints one JSON object as its last line.  With
``--trace 0`` that object holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the rounds run with every layer wrapped in spans and it
holds the per-layer metrics, normalised per round.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# The same threading for every run: one BLAS thread and one rollwave worker
# (the package default).  Set before the workloads import numpy.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "ROLLWAVE_THREADS": "1"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the whole package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rollwave.cli"], env=env,
                   check=True)
    return time.perf_counter() - start


def _layer_values(tracer, times, extras, span_cost) -> dict:
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    rounds = len(times)

    def s(name):
        return self_s.get(name, 0.0) / rounds

    def n(name):
        return calls.get(name, 0) / rounds

    def c(name):
        return counts.get(name, 0) / rounds

    frames = list(tracer.frames.values())
    computed = sum(ev.frames_computed for ev in tracer.evaluators)
    frames_s = self_s.get("evans.frames", 0.0)
    total = sum(times)
    return {
        "profile.limit_s": s("profile.limit"),
        "profile.solve_s": s("profile.solve"),
        "profile.solves": n("profile.solve"),
        "profile.solves_failed": c("profile.solve.raised"),
        "profile.residual_evals": c("profile.residual_evals"),
        "profile.n_final": max(tracer.profile_n, default=0),
        "fourier.diff_matrix_s": s("fourier.diff_matrix"),
        "fourier.diff_matrix_calls": n("fourier.diff_matrix"),
        "linearize.bloch_coeffs_s": s("linearize.bloch_coeffs"),
        "hill.spectrum_s": s("hill.spectrum"),
        "hill.assemble_s": s("hill.assemble"),
        "hill.eigensolve_s": s("hill.eigensolve"),
        "hill.eigensolves": n("hill.eigensolve"),
        "evans.verdict_s": s("evans.verdict"),
        "evans.setup_s": s("evans.setup"),
        "evans.frames": computed / rounds,
        "evans.frames_s": frames_s / rounds,
        "evans.ms_per_frame": 1e3 * frames_s / computed if computed else 0.0,
        "evans.steps_per_frame": (statistics.fmean(fr.n_steps for fr in frames)
                                  if frames else 0.0),
        "evans.taylor_s": s("evans.taylor"),
        "evans.winding_s": s("evans.winding"),
        "evans.winding_points": c("evans.winding_points"),
        "evans.winding_refinements": c("evans.winding_refinements"),
        "evans.value_calls": c("evans.value_calls"),
        "evans.liouville_max": max((fr.liouville_error for fr in frames),
                                   default=0.0),
        "kdv_limit.period_inverse_s": s("kdv_limit.period_inverse"),
        "kdv_limit.wave_s": s("kdv_limit.wave"),
        "kdv_limit.spectrum_s": s("kdv_limit.spectrum"),
        "kdv_limit.classifications": c("kdv_limit.classifications"),
        "sweep.map_s": s("sweep.map"),
        "sweep.point_s": s("sweep.point"),
        "sweep.store_append_s": s("sweep.store_append"),
        "sweep.store_bytes": extras.get("sweep.store_bytes", 0.0),
        "trace.op_s": statistics.median(times),
        "trace.untraced_s": (total - tracer.covered()) / rounds,
        "trace.spans": len(tracer.spans) / rounds,
        "trace.overhead_pct": 100.0 * len(tracer.spans) * span_cost / total,
    }


def run_one(args) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            boot = 0.0 if args.trace else _import_seconds()
            start = time.perf_counter()
            inputs = workload.setup(args.seed, tmp)
            setups.append(boot + time.perf_counter() - start)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        times, outputs = [], []
        try:
            start = time.perf_counter()
            while not times or time.perf_counter() - start < args.seconds:
                t0 = time.perf_counter()
                outputs.append(workload.run(inputs))
                times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.restore()
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, problems = workload.check(inputs, outputs)
        extras = workload.extras(outputs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        values = {"op_s": statistics.median(times),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": peak_mib}
        section = "end_to_end"
    else:
        values = _layer_values(tracer, times, extras, tracing.span_cost())
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}",
              file=sys.stderr)
        section = "per_layer"
    metrics = {}
    for m in _spec()[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": not problems,
            "attempted": workload.units * len(times),
            "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Run every workload in its own process and print a table."""
    results = {}
    for w in _spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[w["name"]] = res
        print(f"{w['name']}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    os.environ.update(THREAD_ENV)
    # a terminated run still removes its temporary store and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rollwave" / "__init__.py").is_file():
        print(f"error: no rollwave sources under {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in names:
        result = run_one(args)
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names + ['all']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
