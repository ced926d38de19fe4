"""Benchmark of the uncertain k-center program, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed``, sets up several times (the
median is ``setup_s``), then runs whole rounds of the workload's fixed op
list until about ``--seconds`` of ops have run, and checks every output
against the independent oracle (:mod:`oracle`) outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the same loop with every layer call wrapped (:mod:`tracing`).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed ops are
listed on standard error with their instance seed, and the exit code is 1
when any op failed.  See README.md in this directory.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# BLAS stays on one thread in this process and every process it starts:
# default threads compete with the server's pool workers for the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOAD_NAMES = ("approx_large", "exact_pruned", "exact_dense", "serve_sharded")
#: Set-ups per run; ``setup_s`` reports their median (plus the imports).
SETUP_REPEATS = 3
#: Import timings per run: this process's and fresh interpreters'.
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy, repro, tracing, workloads; "
    "print(time.perf_counter() - start)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "cost_ratio": "1",
}

PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "uncertain.reduction_s": "s",
    "deterministic.kcenter_s": "s",
    "geometry.median_s": "s",
    "geometry.median_calls": "count",
    "metrics.pairwise_s": "s",
    "metrics.pairwise_calls": "count",
    "assignments.label_s": "s",
    "assignments.polish_s": "s",
    "cost.context_s": "s",
    "cost.assigned_s": "s",
    "cost.assigned_rows": "count",
    "cost.unassigned_s": "s",
    "cost.unassigned_rows": "count",
    "cost.sweep_s": "s",
    "bounds.level1_s": "s",
    "bounds.level1_rows": "count",
    "bounds.pair_s": "s",
    "bounds.pair_rows": "count",
    "bounds.certificate_s": "s",
    "algorithms.self_s": "s",
    "baselines.self_s": "s",
    "baselines.total_rows": "count",
    "baselines.evaluated_rows": "count",
    "baselines.prune_rate": "1",
    "runtime.map_s": "s",
    "runtime.chunks_submitted": "count",
    "runtime.chunk_retries": "count",
    "runtime.store_hits": "count",
    "runtime.store_misses": "count",
    "serve.server_s_p50": "s",
    "serve.transport_s": "s",
    "serve.op_s_p90": "s",
    "trace.ops_per_s": "1/s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_loop(workload, seconds: float, tracer) -> tuple[list, float]:
    """Whole rounds of the op list, as many as fit in ``seconds`` (at least
    one, and at least the workload's ``MIN_OPS`` ops).  Returns ``(records,
    loop seconds)``; a record is ``(op id, op, output, error, op seconds)``.
    Garbage collection runs after every op, outside the timed region, so the
    loop time is the sum of the op times."""
    ops = workload.round_ops()
    records = []
    loop_seconds = 0.0
    round_index = 0
    gc.collect()
    gc.disable()
    try:
        while True:
            round_seconds = 0.0
            for index, op in enumerate(ops):
                op_id = (round_index, index)
                if tracer is not None:
                    tracer.op = op_id
                start = time.perf_counter()
                try:
                    output, error = workload.run_op(op), None
                except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                seconds_taken = time.perf_counter() - start
                round_seconds += seconds_taken
                records.append((op_id, op, output, error, seconds_taken))
                if tracer is not None:
                    tracer.op = None
                gc.collect()
            loop_seconds += round_seconds
            round_index += 1
            if len(records) >= workload.MIN_OPS and loop_seconds + round_seconds > seconds:
                return records, loop_seconds
    finally:
        gc.enable()


def probe_import_seconds() -> float:
    """Import time of the run's modules in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def row_counts(workload, records: list) -> dict[str, float]:
    """Enumeration rows from result metadata, per op, over successful ops."""
    total = evaluated = pruned = 0
    for _, _, output, error, _ in records:
        if error is not None:
            continue
        for meta in workload.metadata(output):
            total += int(meta.get("total_rows", 0))
            evaluated += int(meta.get("evaluated_rows", 0))
            pruned += int(meta.get("pruned_rows", 0))
    return {
        "baselines.total_rows": total / len(records),
        "baselines.evaluated_rows": evaluated / len(records),
        "baselines.prune_rate": pruned / total if total else 0.0,
    }


def layer_metrics(workload, tracer, records, loop_seconds, op_times, serve_spans) -> dict:
    import tracing

    ops = len(records)
    timed = {record[0] for record in records}
    spans = tracer.spans
    if serve_spans is not None:
        timed = {
            record[2]["request_id"] for record in records if record[3] is None
        }
        spans = serve_spans
    totals = tracing.layer_totals(spans, timed)
    values = {name: value / ops for name, value in totals.items()}
    values.update(row_counts(workload, records))
    values["workloads.generate_s"] = statistics.median(
        tracing.generate_seconds(tracer.spans, ("setup", rep)) for rep in range(SETUP_REPEATS)
    )
    for name, value in workload.layer_extras().items():
        values[name] = value / ops if PER_LAYER_UNITS[name] == "count" else value
    if "serve.server_s_p50" in values:
        values["serve.transport_s"] = percentile(op_times, 50) - values["serve.server_s_p50"]
        values["serve.op_s_p90"] = percentile(op_times, 90)
    values["trace.ops_per_s"] = ops / loop_seconds
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def check_records(workload, records: list) -> tuple[list[str], list[float], bool, int]:
    """Check every recorded output and the workload's extra instances.

    Returns ``(failures, cost ratios, whether a check failed, attempted)``.
    An op fails when it raised (or got a non-200 answer) or its output
    failed a check; each failure names the op and its instance seed.
    """
    failures: list[str] = []
    ratios: list[float] = []
    check_failed = False
    for op_id, op, output, error, _ in records:
        if error is None:
            try:
                problems, op_ratios = workload.check(op, output)
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                problems, op_ratios = [f"check raised {type(exc).__name__}: {exc}"], []
            ratios.extend(op_ratios)
            if problems:
                check_failed = True
                error = "; ".join(problems)
        if error is not None:
            failures.append(f"op {op_id} instance seed {workload.op_seed(op)}: {error}")
    extra = workload.extra_checks()
    for seed, problems in extra:
        if problems:
            check_failed = True
            failures.append(f"check instance seed {seed}: {'; '.join(problems)}")
    return failures, ratios, check_failed, len(records) + len(extra)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_seconds = time.perf_counter() - PROCESS_START
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        if missing:
            print(f"trace: not found, not traced: {', '.join(missing)}", file=sys.stderr)
    workload = workloads.WORKLOADS[args.workload]()
    serve_trace = None
    if args.trace and args.workload == "serve_sharded":
        os.makedirs(OUT_DIR, exist_ok=True)
        serve_trace = os.path.join(OUT_DIR, f"serve-spans-{args.seed}.json")
        workload.trace_out = serve_trace

    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if rep:
                workload.close()
            if tracer is not None:
                tracer.op = ("setup", rep)
            start = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        import_times = [import_seconds] + [
            probe_import_seconds() for _ in range(IMPORT_REPEATS - 1)
        ]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        print(
            "setup: imports "
            + ", ".join(f"{value:.3f}" for value in import_times)
            + " s; repeats "
            + ", ".join(f"{value:.3f}" for value in setup_times)
            + " s",
            file=sys.stderr,
        )

        workload.begin_loop()
        records, loop_seconds = run_loop(workload, args.seconds, tracer)
        workload.finish_loop()
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()

    # Checks, outside the timed region.
    if tracer is not None:
        tracer.op = "check"
    failures, ratios, check_failed, attempted = check_records(workload, records)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    op_times = [record[4] for record in records]
    if args.trace:
        serve_spans = None
        if serve_trace is not None:
            with open(serve_trace) as handle:
                serve_spans = [tuple(span) for span in json.load(handle)]
        metrics = layer_metrics(workload, tracer, records, loop_seconds, op_times, serve_spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"), "w") as handle:
            json.dump([span for span in tracer.spans if span is not None], handle)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(records) / loop_seconds,
            "op_s_p50": percentile(op_times, 50),
            "peak_rss_mb": peak_rss,
            "cost_ratio": statistics.fmean(ratios) if ratios else 0.0,
        }
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(
        json.dumps(
            {
                "correct": not check_failed,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
