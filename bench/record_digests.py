"""Rewrite ``expected_digests.json`` from the library as it is now.

    python3 bench/record_digests.py

Runs one pass of every workload at the default seed and stores, per op, a
digest of its canonical output keyed by a digest of its input.  Benchmark
runs compare each op they can look up here.  Rerun this only when a change
is meant to alter the library's output.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile

import run


def main() -> int:
    recorded = {}
    workroot = run.ROOT / ".bench-work"
    workroot.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        workdir = run.Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=workroot))
        try:
            run.run_setups(workload, run.DEFAULT_SEED, workdir, 1)
            result = run.run_pass(workload, False, workdir / "setup0", 600)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        errors = [f"{key}: {error}" for key, _, error in result["ops"] if error]
        if errors:
            raise SystemExit(f"{workload}: ops failed, nothing recorded:\n" + "\n".join(errors))
        recorded[workload] = {key: dig for key, dig, _ in result["ops"]}
    with contextlib.suppress(OSError):
        workroot.rmdir()
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
