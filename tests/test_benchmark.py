"""What the benchmark harness under perfbench/ reads of the package.

The harness runs each op inside a guard that counts a failure, but it builds
the workloads, installs the tracer and checks the outputs outside that
guard: a name or field it reads there going missing ends the whole pass.
This runs those steps, without the speedometer that times a pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import biscount

ROOT = Path(__file__).resolve().parents[1]

# for each workload at seed 1: build it, trace every op, check every output
PASS = """
import time
import biscount, workloads
from tracing import Tracer

for name in ("expander-count", "general-count", "sample"):
    w = workloads.build(name, 1)
    tracer = Tracer(time.perf_counter)
    tracer.install(biscount)
    outs = []
    try:
        for op in w.ops:
            with tracer.op(op.kind):
                outs.append(op.run())
    finally:
        tracer.uninstall()
    assert len(tracer.self_times()) == len(tracer.spans) > len(w.ops)
    checker = workloads.Checker(w)
    for op, out in zip(w.ops, outs):
        err, _, _ = checker.check(op, out)
        print("ok" if err is None else f"FAIL {op.label}: {err}")
"""


def test_benchmark_workloads_build_trace_and_check():
    src = str(Path(biscount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, str(ROOT / "perfbench")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", PASS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line != "ok"] == []
    assert len(lines) == 50
