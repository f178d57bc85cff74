"""biscount benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workload names and metric units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload runs and why.

With ``--trace 0`` it first runs the set-up alone in a few fresh processes,
then fresh one-pass processes back to back (one caller, one op at a time)
for about ``--seconds`` seconds, at least two, and reports the end-to-end
metrics as medians over them (``setup_s`` over the set-ups too).  With
``--trace 1`` it runs one untraced pass and two traced passes, checks that
the two traced passes did exactly the same work, and reports the per-layer
metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
SETUP_RUNS = 5  # set-ups alone, before the passes, for a steadier setup_s
RUN_LIMIT_S = 170.0  # a run never starts a pass it could not finish by then
SPANS_DIR = HERE / "out"

# work counters that must repeat exactly between two traced passes
COUNTED_FIELDS = ("calls", "items", "hits")
ITEM_FIELDS = {"polymers", "clusters", "configs", "families", "samples"}
PASS_METRICS = ("rel_err_max", "rel_err_median", "bound_misses",
                "table_draws_per_s", "sequential_draws_per_s",
                "raw_wall_s", "calib_slice_s")


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, tag: str, deadline: float) -> dict:
    """One child process; ``mode`` is "0" (untraced), "1" (traced) or
    "setup" (the set-up alone)."""
    spans = "-"
    if mode == "1":
        SPANS_DIR.mkdir(exist_ok=True)
        spans = str(SPANS_DIR / f"spans-{workload}-{tag}.jsonl")
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), mode, spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metric(name: str, layers: dict) -> float:
    """Per-layer metrics are named <span name>.<field>; ``sequential.<span>``
    restricts the span to sequential-sampler ops."""
    span, field = name.rsplit(".", 1)
    agg = layers.get(span, {"calls": 0, "self_s": 0.0, "items": 0, "hits": 0})
    if field in ITEM_FIELDS:
        return agg["items"]
    if field == "hit_ratio":
        return agg["hits"] / agg["items"] if agg["items"] else 0.0
    return agg[field]


def counters(layers: dict) -> dict:
    return {(span, f): agg[f] for span, agg in layers.items() for f in COUNTED_FIELDS}


def summary_lines(workload: str, passes: list[dict]) -> list[str]:
    last = passes[-1]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    raws = ", ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
    slices = ", ".join(f"{p['calib_slice_s'] * 1e3:.3f} ms x {p['calib_slices']}"
                       for p in passes)
    lines = [f"workload {workload}: {len(passes)} passes of {last['attempted']} ops",
             f"  wall_s per pass: {walls} s at reference speed",
             f"  raw_wall_s per pass: {raws} s measured",
             f"  mean reference slice per pass: {slices}",
             f"  fail_rate {failed}/{attempted} failed/attempted ops"]
    for p in passes:
        lines.extend(f"  FAILED {f}" for f in p["failures"])
    if last["approx_counts"]:
        lines += [f"  rel_err_max {last['rel_err_max']:.6g} ratio",
                  f"  rel_err_median {last['rel_err_median']:.6g} ratio",
                  f"  bound_misses {last['bound_misses']}/{last['approx_counts']} count"]
    for key in ("table_draws_per_s", "sequential_draws_per_s"):
        vals = [p[key] for p in passes if p[key]]
        if vals:
            lines.append(f"  {key} {statistics.median(vals):.6g} draws/s")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="biscount benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "biscount" / "__init__.py").is_file():
        print(f"no biscount sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    try:
        if args.trace:
            untraced = run_pass(args.workload, args.seed, "0", "untraced", deadline)
            traced = [run_pass(args.workload, args.seed, "1", tag, deadline)
                      for tag in ("traced1", "traced2")]
            passes = [untraced] + traced
        else:
            setups = [run_pass(args.workload, args.seed, "setup", "", deadline)
                      for _ in range(SETUP_RUNS)]
            longest = 0.0
            while True:
                t = time.monotonic()
                passes.append(run_pass(args.workload, args.seed, "0",
                                       str(len(passes)), deadline))
                longest = max(longest, time.monotonic() - t)
                ahead = time.monotonic() + longest
                if ahead > deadline or (len(passes) >= MIN_PASSES
                                        and ahead - start > args.seconds):
                    break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    lines = summary_lines(args.workload, passes)
    correct = all(p["wrong"] == 0 for p in passes)
    metrics: dict[str, dict] = {}
    if args.trace:
        layers = [p["layers"] for p in traced]
        first, second = counters(layers[0]), counters(layers[1])
        if first != second:
            correct = False
            diff = sorted(k for k in first.keys() | second.keys()
                          if first.get(k) != second.get(k))
            lines.append(f"  WORK COUNTERS DIFFER between traced passes: {diff[:10]}")
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "traced_wall_s":
                value = traced_wall
            elif name == "trace_overhead_s":
                value = traced_wall - untraced["wall_s"]
            elif name in PASS_METRICS:
                value = untraced[name]
            elif name.endswith(".self_s"):
                value = statistics.median(layer_metric(name, ls) for ls in layers)
            else:
                value = layer_metric(name, layers[0])
            metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"  untraced wall_s {untraced['wall_s']:.4f} s, traced wall_s "
                     f"{traced_wall:.4f} s, overhead {traced_wall - untraced['wall_s']:.4f} s")
        lines.append("  note: count_expander and count_hardcore_expander run the X and Y "
                     "sides on two pool threads; under the GIL their spans' self_s include "
                     "GIL waits and may sum past the op's wall time")
    else:
        for m in spec["end_to_end"]:
            runs = setups + passes if m["name"] == "setup_s" else passes
            value = statistics.median(p[m["name"]] for p in runs)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"  {m['name']} {value:.6g} {m['unit']} (median of {len(runs)})")

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
