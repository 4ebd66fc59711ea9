"""One repetition of one workload, in a fresh interpreter.

Run by perfbench/run.py, never by hand:

    python3 -s perfbench/worker.py WORKLOAD SEED OUT_DIR MODE

It imports perimod and builds the workload's inputs from the seed.  MODE
`setup` stops there (a set-up probe); `trace` installs the layer spans; then
`run` and `trace` run each op through `perimod.cli.main` with stdout and
stderr captured.  Before the first op and after every op it measures the
host's speed on a fixed calibration kernel (see host_speed).  Its last
stdout line is one JSON object: the monotonic time at which set-up ended,
the host speeds and the time spent measuring them, the peak RSS, and per op
the exit code, time, output digest and (for small outputs) the output text.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import perimod.cli

import workloads

TEXT_LIMIT = 1 << 16  # outputs up to this size travel back for invariant checks
CALIBRATION_S = 0.2  # length of one host-speed window


def _calibration_kernel() -> int:
    """A fixed slice of pure-Python work of the kind perimod does: modular
    powers, small-int arithmetic, dict and list traffic."""
    table = {}
    acc = []
    for x in range(1, 300):
        y = pow(x, 7, 1009)
        table[x] = (y * y + x) % 1009
        acc.append(table.get(y, 0))
    return sum(acc)


def host_speed() -> tuple[float, float]:
    """Calibration kernel calls per second over a window of about
    CALIBRATION_S, and the window's length.  The collector is off meanwhile, so the op's
    heap does not change the kernel's cost."""
    gc.disable()
    try:
        calls = 0
        start = time.perf_counter()
        while True:
            _calibration_kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= CALIBRATION_S:
                return calls / elapsed, elapsed
    finally:
        gc.enable()


def run_op(op: workloads.Op, out_dir: str) -> dict:
    path = os.path.join(out_dir, f"{op.name}.out")
    argv = list(op.argv) + ["--output", path]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    gc.collect()  # leave the previous op's garbage out of this op's time
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = perimod.cli.main(argv)
    except BaseException:  # a crash is a failed op, recorded, not a dead worker
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    data = b""
    if os.path.exists(path):
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
    return {
        "name": op.name,
        "metric": op.metric,
        "key": op.key,
        "code": code,
        "error": error,
        "seconds": seconds,
        "sha256": hashlib.sha256(data).hexdigest() if data else None,
        "text": data.decode() if len(data) <= TEXT_LIMIT else None,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


def main(argv: list[str]) -> int:
    workload, seed, out_dir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    trace = mode == "trace"
    ops = workloads.make_ops(workload, seed)  # a set-up probe builds the inputs too
    if mode == "setup":
        ops = []
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    windows = [host_speed()]  # windows i and i + 1 bracket op i
    results = []
    for op in ops:
        results.append(run_op(op, out_dir))
        windows.append(host_speed())
    report = {
        "pid": os.getpid(),
        "ready": ready,
        "speeds": [speed for speed, _ in windows],
        "calibration_s": sum(seconds for _, seconds in windows),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        report["trace"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
