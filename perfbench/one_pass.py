"""One timed pass over a workload, in a fresh process.

Usage: python3 perfbench/one_pass.py <workload> <seed> <0|1|setup> <spans-file or ->

The third argument selects an untraced pass (0), a traced pass (1), or a
set-up alone (``setup``), which stops after the set-up and reports only
``setup_s``.

The process first caps its own address space, so a runaway op fails with
MemoryError instead of exhausting the machine.  It then imports biscount from
the checkout's ``src`` directory and builds the workload's instances (timed
as set-up), runs every op once in order (timed as the pass; one caller, one
op at a time), reads its peak resident memory, and only then computes the
oracle references and checks every output.  The result is one JSON line on
stdout.

Every pass runs ``calibrate.Speedometer`` from before the set-up to the end
of the last op: a reference slice, timed every 50 ms, that samples the
machine's speed.  Set-up, op and span times leave the slices out.
``wall_s``, the draw rates and the spans' self times are scaled to the
reference speed, so a drift in the host's speed cancels; the measured pass
time is reported as ``raw_wall_s``.  ``setup_s`` stays in measured seconds:
it is mostly imports, whose time does not follow the slice.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
AS_LIMIT = 2 << 30  # bytes of address space for this process only


def _layers(tracer, scale: float) -> dict[str, dict[str, float]]:
    """calls, self time (times ``scale``), items and hits per span name; the
    same again under ``sequential.<name>`` for spans inside sequential-sampler
    ops."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        keys = [span.name]
        if tracer.op_kinds.get(span.op) == "sequential":
            keys.append("sequential." + span.name)
        for key in keys:
            agg = out.setdefault(key, {"calls": 0, "self_s": 0.0, "items": 0, "hits": 0})
            agg["calls"] += 1
            agg["self_s"] += own * scale
            agg["items"] += span.items
            agg["hits"] += span.hits
    return out


def main(workload: str, seed: int, mode: str, spans_path: str) -> dict:
    trace = mode == "1"
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    meter = calibrate.Speedometer()
    clock = meter.clock
    meter.start()
    t0 = clock()
    sys.path.insert(0, str(SRC))
    import biscount

    if Path(biscount.__file__).resolve().parent != SRC / "biscount":
        raise SystemExit(f"biscount imported from {biscount.__file__}, not from {SRC}")
    import workloads

    w = workloads.build(workload, seed)
    setup_s = clock() - t0
    if mode == "setup":
        meter.stop()
        return {"setup_s": setup_s}

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(clock)
        tracer.install(biscount)
    runs = []
    wall_s = 0.0
    for op in w.ops:
        t_op = clock()
        try:
            with tracer.op(op.kind) if tracer else nullcontext():
                out, err = op.run(), None
        except Exception as exc:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t_op
        wall_s += dt
        runs.append((op, out, err, dt))
    meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    scale = meter.scale()
    checker = workloads.Checker(w)
    failures = []
    wrong = 0
    rel_errs = []
    bound_misses = 0
    secs = {"table": 0.0, "sequential": 0.0}
    draws = {"table": 0, "sequential": 0}
    for op, out, err, dt in runs:
        if err is None:
            err, rel, missed = checker.check(op, out)
            wrong += err is not None
            if rel is not None:
                rel_errs.append(rel)
                bound_misses += missed
        if err is not None:
            failures.append(f"{op.label}: {err}")
        if op.kind in secs:
            secs[op.kind] += dt * scale
            draws[op.kind] += op.draws

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s * scale,
        "raw_wall_s": wall_s,
        "calib_slice_s": meter.mean_slice_s(),
        "calib_slices": len(meter.slices),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(runs),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "approx_counts": len(rel_errs),
        "rel_err_max": max(rel_errs) if rel_errs else 0.0,
        "rel_err_median": statistics.median(rel_errs) if rel_errs else 0.0,
        "bound_misses": bound_misses,
        "table_draws_per_s": draws["table"] / secs["table"] if secs["table"] else 0.0,
        "sequential_draws_per_s":
            draws["sequential"] / secs["sequential"] if secs["sequential"] else 0.0,
    }
    if tracer:
        result["layers"] = _layers(tracer, scale)
        if spans_path != "-":
            tracer.dump(spans_path)
    return result


if __name__ == "__main__":
    name, seed_arg, mode_arg, spans = sys.argv[1:5]
    if mode_arg not in ("0", "1", "setup"):
        raise SystemExit(f"unknown mode {mode_arg!r}")
    print(json.dumps(main(name, int(seed_arg), mode_arg, spans)), flush=True)
