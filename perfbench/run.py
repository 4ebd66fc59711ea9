"""perimod benchmark runner.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 58 --trace 0

Runs repetitions of one workload for about --seconds seconds, each in a fresh
worker interpreter (perfbench/worker.py), one at a time: a closed loop with a
single client.  An untraced run first starts a few workers that only set up
and exit, so set-up time has more samples.  End-to-end times are scaled to a
host of fixed speed (see adjust).  Every op's output is checked.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, taken from traced
repetitions that alternate with untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
RUN_LIMIT_S = 150.0  # start no repetition after this; a run must end within 180 s
WORKER_DEADLINE_S = 175.0  # a worker still running at this point is killed
COUNT_SUFFIXES = (".calls", ".misses", ".cells", ".pairs")
# Set-up probes per untraced run; the first also warms the file and bytecode
# caches, so it is left out of setup_s.
SETUP_PROBES = 11
# Calibration kernel calls per second (worker.host_speed) of the host that
# adjusted times are scaled to.
REFERENCE_SPEED = 8000.0


def provenance(args: argparse.Namespace) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git not available)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def spawn(workload: str, seed: int, out_dir: str, mode: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter; times are taken from outside it.
    mode is run, trace or setup (import and build the inputs, run no op)."""
    trace = mode == "trace"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PERIMOD_"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
    )
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), workload, str(seed), out_dir, mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"worker did not finish within {timeout:.0f} s"}
    finally:  # never leave a worker behind, whatever interrupted the wait
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    end = time.monotonic()
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        report = None
    if report is None:
        return {"trace": trace, "error": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}
    return adjust(report, start, end) | {
        "trace": trace,
        "pid": report["pid"],
        "peak_rss_mib": report["maxrss_kib"] / 1024,
        "layers": report.get("trace"),
        "worker_stderr": err,
    }


def adjust(report: dict, start: float, end: float) -> dict:
    """The repetition's times, scaled to a host whose calibration kernel runs
    at REFERENCE_SPEED.

    The shared host's speed drifts by 20% and more between runs a few minutes
    apart, and the calibration kernel's speed follows perimod's.  So each
    interval is multiplied by the host's speed measured next to it over
    REFERENCE_SPEED: an op by the mean of the windows before and after it,
    and set-up by the window right after it.  wall_s is the sum of those
    parts and of the rest of the worker's life outside its calibration
    windows, that rest scaled by the mean of all windows.  Raw times are
    kept as raw_seconds and raw_wall_s."""
    scale = [speed / REFERENCE_SPEED for speed in report["speeds"]]
    setup = report["ready"] - start
    rest = end - start - report["calibration_s"] - setup
    ops = report["ops"]
    for i, op in enumerate(ops):
        op["raw_seconds"] = op["seconds"]
        op["seconds"] *= (scale[i] + scale[i + 1]) / 2
        rest -= op["raw_seconds"]
    adjusted_setup = setup * scale[0]
    return {
        "setup_s": adjusted_setup,
        "wall_s": adjusted_setup + sum(op["seconds"] for op in ops) + rest * statistics.mean(scale),
        "raw_wall_s": end - start,
        "host_speed": statistics.mean(scale),
        "ops": ops,
    }


def run_reps(args: argparse.Namespace, out_dir: str) -> tuple[list[dict], list[dict]]:
    """Set-up probes, then a closed loop: start the next repetition only after
    the previous one ended, while at least half of one of median length fits
    in --seconds, so a run ends within half a repetition of --seconds.
    Returns the probes and the repetitions."""
    start = time.monotonic()
    probes: list[dict] = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probes.append(spawn(args.workload, args.seed, out_dir, "setup", 60.0))
        if "error" in probes[-1]:
            return probes, []
    minimum = 3 if args.trace else 1  # traced runs need two traced and one untraced
    reps: list[dict] = []
    walls: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= minimum and elapsed + statistics.median(walls) / 2 > args.seconds:
            break
        if reps and elapsed + max(walls) > RUN_LIMIT_S:
            break
        mode = "trace" if args.trace and len(reps) % 2 == 0 else "run"
        rep = spawn(args.workload, args.seed, out_dir, mode, WORKER_DEADLINE_S - elapsed)
        reps.append(rep)
        if "error" in rep:
            break
        walls.append(rep["raw_wall_s"])
    return probes, reps


def check_op(op: dict, spec: workloads.Op, reference: dict) -> str | None:
    """Why the op failed, or None."""
    if op["error"] is not None:
        return f"raised:\n{op['error']}"
    if op["code"] != 0:
        return f"exit status {op['code']}: {op['stderr'].strip()}"
    if "Traceback" in op["stderr"] or "Traceback" in op["stdout"]:
        return f"printed a traceback:\n{op['stderr']}"
    if op["sha256"] is None:
        return "wrote no output"
    ref = reference["outputs"].get(op["key"])
    if ref is not None:
        if op["sha256"] != ref["sha256"]:
            return f"output digest {op['sha256']} != reference {ref['sha256']}"
        if op["stdout"] != ref["stdout"]:
            return f"summary {op['stdout']!r} != reference {ref['stdout']!r}"
        return None
    check = workloads.CHECKS.get(spec.name)
    if check is None or op["text"] is None:
        return "no reference output and no invariant check for this op"
    return check(spec, op["text"], op["stdout"])


def check_run(args, reps: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Check every op and the run as a whole; returns attempted, failed, problems."""
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, set] = {}
    for i, rep in enumerate(reps):
        specs = workloads.make_ops(args.workload, args.seed)
        attempted += len(specs)
        if "error" in rep:
            failed += len(specs)
            problems.append(f"repetition {i}: {rep['error']}")
            continue
        if rep["worker_stderr"].strip():
            problems.append(f"repetition {i} wrote to stderr: {rep['worker_stderr'].strip()}")
        for op, spec in zip(rep["ops"], specs):
            digests.setdefault(spec.name, set()).add(op["sha256"])
            why = check_op(op, spec, reference)
            if why is not None:
                failed += 1
                problems.append(f"repetition {i}, op {spec.name}: {why}")
    for name, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"op {name}: outputs differ between repetitions "
                            "(traced and untraced runs must be byte-identical)")
    good = [rep for rep in reps if "error" not in rep]
    traced = [rep for rep in good if rep["trace"]]
    if args.trace:
        expected_counts = reference["counts"][args.workload]
        for i, rep in enumerate(traced):
            layers = rep["layers"]
            for span in workloads.LAYERS_EXERCISED[args.workload]:
                if layers.get(f"{span}.calls", 0) == 0:
                    problems.append(f"traced repetition {i}: span {span} recorded no calls")
            counts = {k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}
            if counts != expected_counts:
                diff = {k: (counts.get(k), expected_counts.get(k))
                        for k in set(counts) | set(expected_counts)
                        if counts.get(k) != expected_counts.get(k)}
                problems.append(f"traced repetition {i}: counts (got, expected) differ: {diff}")
        if len(traced) < 2 or len(good) == len(traced):
            problems.append("a traced run needs two traced and one untraced repetition")
    return attempted, failed, problems


def samples(probes: list[dict], reps: list[dict]) -> dict[str, list[float]]:
    """Every sample of every end-to-end metric: one per repetition, and for
    setup_s also one per set-up probe but the first."""
    out: dict[str, list[float]] = {k: [rep[k] for rep in reps] for k in ("wall_s", "peak_rss_mib")}
    out["setup_s"] = [rep["setup_s"] for rep in probes[1:] + reps]
    for rep in reps:
        sums: dict[str, float] = {}
        for op in rep["ops"]:
            sums[op["metric"]] = sums.get(op["metric"], 0.0) + op["seconds"]
        for metric, seconds in sums.items():
            out.setdefault(metric, []).append(seconds)
    return out


def per_layer(reps: list[dict]) -> dict[str, float]:
    """Counts of the first traced repetition (all are checked to be equal),
    medians of span times over the traced repetitions."""
    traced = [rep["layers"] for rep in reps if rep["trace"]]
    out = {k: (traced[0][k] if k.endswith(COUNT_SUFFIXES)
               else statistics.median(t[k] for t in traced))
           for k in traced[0]}
    out["trace.overhead_s"] = (
        statistics.median(rep["wall_s"] for rep in reps if rep["trace"])
        - statistics.median(rep["wall_s"] for rep in reps if not rep["trace"])
    )
    return out


def measure(args: argparse.Namespace, config: dict, reference: dict) -> tuple[int, int, bool, dict]:
    """Run, check and summarise one workload; prints provenance, one line per
    repetition and one per metric.  Returns attempted, failed, correct, metrics."""
    info = provenance(args)
    BUILD.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD)
    try:
        probes, reps = run_reps(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted, failed, problems = check_run(args, reps, reference)
    problems += [f"set-up probe: {probe['error']}" for probe in probes if "error" in probe]
    if not reps:
        problems.append("no repetition ran")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    good = [rep for rep in reps if "error" not in rep]
    info["setup_probes"] = len(probes)
    info["repetitions"] = len(reps)
    info["worker_pids"] = [rep["pid"] for rep in good]  # one fresh interpreter each
    print("provenance " + json.dumps(info))
    for i, rep in enumerate(good):
        ops = " ".join(f"{op['name']}={op['seconds']:.3f}" for op in rep["ops"])
        print(f"  repetition {i}{' traced' if rep['trace'] else ''}: host_speed={rep['host_speed']:.3f} "
              f"raw_wall_s={rep['raw_wall_s']:.3f} setup_s={rep['setup_s']:.4f} "
              f"wall_s={rep['wall_s']:.3f} {ops}")

    metrics = {}
    if good and (not args.trace or not problems):
        if args.trace:
            values = per_layer(good)
        else:
            values = {k: statistics.median(v) for k, v in samples(probes, good).items()}
        names = workloads.OP_METRIC_NAMES[args.workload]
        for spec in config["per_layer" if args.trace else "end_to_end"]:
            name = spec["name"]
            metrics[name] = {"value": values[name], "unit": spec["unit"]}
            label = f"{name} ({names[name]})" if name in names else name
            print(f"  {label:<44} {values[name]:>14.6f} {spec['unit']}")
    print(f"  failed_ops {failed} of {attempted} ops attempted")
    correct = not problems and failed == 0 and bool(metrics)
    return attempted, failed, correct, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so spawn() kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "perimod" / "cli.py").is_file():
        print(f"error: no perimod sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())

    if args.workload != "all":
        attempted, failed, correct, metrics = measure(args, config, reference)
    else:  # every workload in turn; metric names gain the workload as prefix
        attempted = failed = 0
        correct, metrics = True, {}
        for workload in workloads.WORKLOADS:
            print(f"workload {workload}")
            one = argparse.Namespace(**dict(vars(args), workload=workload))
            a, f, c, m = measure(one, config, reference)
            attempted, failed, correct = attempted + a, failed + f, correct and c
            names = workloads.OP_METRIC_NAMES[workload]
            metrics.update({f"{workload}.{names.get(k, k)}": v for k, v in m.items()})
            metrics[f"{workload}.failed_ops"] = {"value": f, "unit": "count"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
