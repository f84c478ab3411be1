"""Benchmark of the hirzebruch library: one workload, one seed, one run.

    python3 bench/run.py --workload {corpus,ladder,cli_verify} \\
        [--seed 20260811] [--seconds 25] [--trace 0|1]

Run from the root of a source tree.  Set-up (import plus making the inputs)
runs SETUP_RUNS times, each in a fresh interpreter, and the inputs must come
out identical every time.  Then passes over the inputs run, each in a fresh
interpreter, until ``--seconds`` have gone by; ``cases_per_s`` is the
median of the passes' throughputs.  With ``--trace 1`` untraced
and traced passes alternate, and the per-layer metrics of the traced passes
are reported instead of the end-to-end ones.

Every metric is printed by name with its unit and sample count, then a JSON
record of the machine, the interpreter, the commit and the seed, and last a
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2
means the library was not found; 1 that a benchmark process itself failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("corpus", "ladder", "cli_verify")
DEFAULT_SEED = 20260811
SETUP_RUNS = 5
# No pass starts when the last one would then end past this many seconds,
# which keeps a run inside its 180-second limit.
DEADLINE_S = 140
EXPECTED = BENCH / "expected_digests.json"


class BenchError(Exception):
    """A benchmark process failed; the run reports no result."""


def _child(args: list[str], result: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args, str(result)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_setups(workload: str, seed: int, workdir: Path, runs: int) -> list[dict]:
    """Set up ``runs`` times; the first set-up's directory holds the inputs."""
    out = []
    for k in range(runs):
        target = workdir / f"setup{k}"
        target.mkdir()
        out.append(_child(["setup", workload, str(seed), str(target)], workdir / "setup.json", 120))
    return out


def run_pass(workload: str, trace: bool, inputs: Path, timeout: float) -> dict:
    args = ["pass", workload, "1" if trace else "0", str(inputs)]
    return _child(args, inputs / "pass.json", timeout)


def expected_digests(workload: str) -> dict[str, str]:
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a source tree inside another repository has no commit
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def run_passes(workload: str, seconds: float, trace: bool, inputs: Path):
    """Untraced (and, with ``trace``, traced) passes until ``seconds`` are up."""
    plain, traced = [], []
    began = time.perf_counter()
    while True:
        for kind in [False, True] if trace else [False]:
            remaining = DEADLINE_S + 30 - (time.perf_counter() - began)
            (traced if kind else plain).append(run_pass(workload, kind, inputs, remaining))
        elapsed = time.perf_counter() - began
        rounds = len(plain)
        if elapsed >= seconds or elapsed * (rounds + 1) / rounds > DEADLINE_S:
            return plain, traced


def check_ops(passes: list[dict], expected: dict[str, str]):
    """Count attempted and failed ops; an op whose digest is on record must match it."""
    attempted, checked, failures = 0, 0, []
    for result in passes:
        for key, dig, error in result["ops"]:
            attempted += 1
            if error is None and key in expected:
                checked += 1
                if expected[key] != dig:
                    error = f"digest {dig} != expected {expected[key]}"
            if error is not None:
                failures.append(f"{key}: {error}")
    return attempted, checked, failures


def end_to_end_metrics(plain: list[dict], setups: list[dict]):
    ops = len(plain[0]["ops"])
    metrics = {
        "cases_per_s": (statistics.median([ops / p["wall_s"] for p in plain]), "1/s"),
        "peak_rss_mb": (statistics.median([p["maxrss_kb"] for p in plain]) / 1024, "MB"),
        "setup_s": (statistics.median([s["setup_s"] for s in setups]), "s"),
    }
    samples = {"cases_per_s": len(plain), "peak_rss_mb": len(plain), "setup_s": len(setups)}
    return metrics, samples


def traced_metrics(plain: list[dict], traced: list[dict]):
    per_pass = [tracing.layer_metrics(p["trace"]) for p in traced]
    metrics = {
        name: (statistics.median([m[name][0] for m in per_pass]), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    metrics["trace.overhead_ratio"] = (
        traced_wall / statistics.median([p["wall_s"] for p in plain]),
        "ratio",
    )
    samples = {name: len(traced) for name in metrics}
    samples["trace.overhead_ratio"] = len(traced) + len(plain)
    shares = {}
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / traced_wall
    return metrics, samples, shares


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    setups = run_setups(workload, seed, workdir, SETUP_RUNS)
    same_inputs = len({s["inputs"] for s in setups}) == 1
    plain, traced = run_passes(workload, seconds, trace, workdir / "setup0")
    attempted, checked, failures = check_ops(plain + traced, expected_digests(workload))
    ops_per_pass = len(plain[0]["ops"])
    absent = sorted({t for p in traced for t in p["trace"]["absent"]})

    print(
        f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(plain)} "
        f"untraced, {len(traced)} traced, {ops_per_pass} ops each"
    )
    if trace:
        metrics, samples, shares = traced_metrics(plain, traced)
    else:
        metrics, samples = end_to_end_metrics(plain, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples[name]}")
    print(f"{'ops_failed':40s} {len(failures):14d} {'count':6s} of {attempted} attempted")
    if trace:
        share = ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        print(f"self time share of traced wall: {share}")
        if absent:
            print("absent targets: " + ", ".join(absent))
    for line in failures[:10]:
        print(f"failed {line}", file=sys.stderr)
    if not same_inputs:
        print("set-up runs made different inputs from one seed", file=sys.stderr)

    record = machine_record(seed)
    record.update(
        workload=workload,
        trace=int(trace),
        samples=samples,
        ops_per_pass=ops_per_pass,
        setup_s=[s["setup_s"] for s in setups],
        pass_wall_s=[p["wall_s"] for p in plain],
        pass_cpu_s=[p["cpu_s"] for p in plain],
        traced_wall_s=[p["wall_s"] for p in traced],
        digest_checked=checked,
        absent=absent,
    )
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures and same_inputs,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hirzebruch" / "__init__.py").is_file():
        print(f"no hirzebruch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workroot = ROOT / ".bench-work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workroot.rmdir()


if __name__ == "__main__":
    sys.exit(main())
