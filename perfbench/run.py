"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload star_serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see ``perfbench/README.md``); the lines above it give
the same figures for people, with the raw wall-clock times beside the
speed-scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback

from refclock import RefClock
from spans import Tracer
from star_serve import StarServe
from tc_fixpoint import TcFixpoint
from view_stream import ViewStream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every run makes at least this many operations, so ten samples lie
#: beyond the 90th percentile.
MIN_OPS = 100

#: Operations per second of ``--seconds``: each workload's operation,
#: with its check and reference readings, takes about 0.2 s.
OPS_PER_SECOND = 5

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Per-layer metrics, with their units.  A layer a workload never enters
#: reads 0; a program counter that no longer exists reads null.
PER_LAYER = {
    "bench.ref_ms": "ms",
    "bench.trace_overhead": "ratio",
    "http.roundtrip_ms": "ms",
    "http.transport_ms": "ms",
    "io.encode_ms": "ms",
    "io.response_kb": "KiB",
    "dispatch.ms": "ms",
    "dispatch.view_answers": "count",
    "session.compile_ms": "ms",
    "session.apply_ms": "ms",
    "session.publish_ms": "ms",
    "relational.stats_ms": "ms",
    "relational.stats_collections": "count",
    "relational.plan_ms": "ms",
    "ctalgebra.eval_ms": "ms",
    "ctalgebra.join_ms": "ms",
    "ctalgebra.project_ms": "ms",
    "ctalgebra.select_ms": "ms",
    "ctalgebra.rows_out": "count",
    "ctalgebra.join_us_per_row": "us",
    "core.cond_lookups": "count",
    "core.cond_hit_ratio": "ratio",
    "fixpoint.compile_ms": "ms",
    "fixpoint.eval_ms": "ms",
    "fixpoint.rounds": "count",
    "fixpoint.derived_rows": "count",
    "fixpoint.delta_rows": "count",
    "fixpoint.us_per_derived_row": "us",
    "updates.apply_ms": "ms",
    "views.maintain_ms": "ms",
    "views.delta_rows": "count",
    "views.recomputed_nodes": "count",
}


def _workloads() -> dict:
    return {w.name: w for w in (StarServe(), TcFixpoint(), ViewStream())}


def _percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _attempt(fn, *args):
    """Run ``fn``; an exception counts as a failure, with its traceback
    on standard error."""
    try:
        return fn(*args), True
    except Exception:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        return None, False


def _pin_to_one_cpu() -> None:
    """Keep the client loop, the server thread and the reference loop on
    one CPU.  On a shared VM the vCPUs change speed independently; with
    the server thread free to run on another vCPU than the reference
    loop, the reference readings would not track the operation's speed.
    The program is bound by the interpreter lock either way."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    n_ops = max(MIN_OPS, seconds * OPS_PER_SECOND)
    workload.prepare(seed, n_ops)
    clock = RefClock()
    _clear_program_caches()
    setups = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        if repeat:
            workload.teardown()
            _clear_program_caches()
            gc.collect()
        setups.append(workload.setup(clock, traced=trace))

    tracer = Tracer() if trace else None
    samples: list[tuple[float, float]] = []  # (raw_s, scaled_s) of good ops
    traced_samples: list[float] = []
    layer_values: list[dict] = []
    failed = 0
    attempted = 0
    try:
        for i in range(n_ops):
            attempted += 1
            workload.load(i)
            if trace and i < n_ops // 2:
                tracer.begin(i)
                result, ok = _attempt(workload.traced_op, i, clock, tracer)
                if ok:
                    out, raw, scaled, values = result
                    layer_values.append(values)
            else:
                result, ok = _attempt(clock.call, workload.op, i)
                if ok:
                    out, raw, scaled = result
            if ok:
                checked, ok = _attempt(workload.check, i, out)
                ok = ok and checked
            if not ok:
                failed += 1
                print(f"operation {i} failed", file=sys.stderr)
            elif trace and i < n_ops // 2:
                traced_samples.append(scaled)
            else:
                samples.append((raw, scaled))
        known_faults = 0
        for probe in workload.probes():
            attempted += 1
            passed, ok = _attempt(probe)
            if not (ok and passed):
                failed += 1
                known_faults += 1
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{workload.name}-{seed}.json"))

    correct = failed == known_faults
    print(f"{workload.name} seed {seed}: {attempted} operations attempted, {failed} failed")
    if trace:
        metrics = _layer_metrics(layer_values, clock, samples, traced_samples)
    else:
        metrics = _end_to_end(samples, setups, clock)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _clear_program_caches() -> None:
    """Cold condition caches before each set-up, as in a fresh process."""
    try:
        from repro.core.conditions import clear_condition_caches
    except ImportError:
        return
    clear_condition_caches()


def _end_to_end(samples, setups, clock) -> dict:
    scaled = [s for _, s in samples]
    raw = [r for r, _ in samples]
    setup_scaled = statistics.median(s for s, _ in setups)
    setup_raw = statistics.median(r for _, r in setups)
    figures = {
        "setup_s": (setup_scaled, setup_raw, "s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, statistics.median(raw) * 1e3, "ms"),
        "op_p90_ms": (_percentile(scaled, 0.9) * 1e3, _percentile(raw, 0.9) * 1e3, "ms"),
        "throughput_ops_s": (len(scaled) / sum(scaled), len(raw) / sum(raw), "1/s"),
    }
    for name, (value, raw_value, unit) in figures.items():
        print(f"  {name:<18} {value:12.4f} {unit:<4} (raw {raw_value:.4f} {unit})")
    rss = _peak_rss_mib()
    print(f"  {'peak_rss_mb':<18} {rss:12.4f} MiB")
    print(
        f"  {len(scaled)} timed operations; reference loop median "
        f"{statistics.median(clock.refs) * 1e3:.4f} ms over {len(clock.refs)} readings"
    )
    metrics = {name: {"value": value, "unit": unit} for name, (value, _, unit) in figures.items()}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    return metrics


def _layer_metrics(layer_values, clock, untraced, traced) -> dict:
    """Per-layer metrics: the median over traced operations of each
    operation's figure; the tracing overhead compares the operation's
    own latency in the traced half against the untraced half."""
    out = {}
    for name, unit in PER_LAYER.items():
        values = [v.get(name, 0) for v in layer_values]
        if any(v is None for v in values) or not values:
            value = None
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    out["bench.ref_ms"]["value"] = statistics.median(clock.refs) * 1e3
    base = statistics.median(s for _, s in untraced)
    out["bench.trace_overhead"]["value"] = statistics.median(traced) / base - 1.0
    for name, metric in out.items():
        value = metric["value"]
        shown = "absent" if value is None else f"{value:.4f}"
        print(f"  {name:<30} {shown:>12} {metric['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    source = os.path.join(ROOT, "src")
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"the program was imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads)}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
