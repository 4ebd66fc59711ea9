"""Record perfbench/reference.json from the current perimod sources.

    python3 perfbench/make_reference.py

Stores the output digest and summary line of every op at seed 0, of the
density op for every DENSITY_CHOICES entry, and the exact per-layer counts of
one traced repetition per workload.  Run it only when a change is meant to
alter perimod's output or its call counts, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run
import workloads

SEED = 0


def _record(outputs: dict, rep: dict, specs: list[workloads.Op]) -> None:
    if "error" in rep:
        raise SystemExit(rep["error"])
    for op, spec in zip(rep["ops"], specs):
        if op["code"] != 0 or op["error"] is not None:
            raise SystemExit(f"{spec.name} failed: {op['error'] or op['stderr']}")
        outputs[spec.key] = {
            "op": spec.name,
            "argv": " ".join(spec.argv)[:160],
            "sha256": op["sha256"],
            "stdout": op["stdout"],
        }


def main() -> None:
    run.BUILD.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=run.BUILD)
    outputs: dict = {}
    counts: dict = {}
    try:
        for workload in workloads.WORKLOADS:
            rep = run.spawn(workload, SEED, out_dir, "trace", 600)
            _record(outputs, rep, workloads.make_ops(workload, SEED))
            counts[workload] = {
                k: v for k, v in rep["layers"].items() if k.endswith(run.COUNT_SUFFIXES)
            }
        for choice in workloads.DENSITY_CHOICES:
            seed = next(s for s in range(1000) if workloads.density_choice(s) == choice)
            specs = workloads.make_ops("stats", seed)
            if specs[1].key not in outputs:
                _record(outputs, run.spawn("stats", seed, out_dir, "run", 600), specs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    reference = {"seed": SEED, "outputs": outputs, "counts": counts}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
