"""One benchmark process: set up a workload's inputs, or run one pass over them.

    python3 bench/worker.py setup WORKLOAD SEED WORKDIR RESULT
    python3 bench/worker.py pass WORKLOAD TRACE WORKDIR RESULT

``run.py`` starts a fresh interpreter for each set-up and each pass, with
``src`` on ``PYTHONPATH``, and reads the JSON written to RESULT.  A pass runs
every op once, in order, each starting after the previous one has returned
and been checked.  An op that raises is recorded as failed and the pass goes
on.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int, workdir: Path) -> dict:
    start = time.perf_counter()
    import workloads  # imports hirzebruch: part of set-up

    ops = workloads.make_inputs(workload, seed, ROOT, workdir)
    (workdir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "inputs": workloads.digest(json.dumps([op["key"] for op in ops]))}


def run_pass(workload: str, trace: bool, workdir: Path) -> dict:
    import tracing
    import workloads

    ops = json.loads((workdir / "ops.json").read_text(encoding="utf-8"))
    run_op = workloads.OPS[workload]
    scratch = workdir / "out"
    scratch.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    results = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        with tracer.op(i) if tracer else contextlib.nullcontext():
            try:
                results.append([op["key"], run_op(op, scratch), None])
            except Exception as exc:  # a failed op is counted, the pass goes on
                results.append([op["key"], None, f"{type(exc).__name__}: {exc}"])
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "trace": tracer.summary() if tracer else None,
    }


def main(argv: list[str]) -> int:
    mode, workload, arg, workdir, result = argv
    if mode == "setup":
        out = setup(workload, int(arg), Path(workdir))
    else:
        out = run_pass(workload, arg == "1", Path(workdir))
    Path(result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
