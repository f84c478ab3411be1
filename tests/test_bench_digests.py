"""Byte identity at benchmark sizes: every op of every benchmark workload, at
the default seed, gives the output digest recorded in
``bench/expected_digests.json``.

The benchmark's own modules are loaded by path and only read; the ops run
in-process into a temporary directory.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["corpus", "ladder", "cli_verify"])
def test_default_seed_ops_match_the_recorded_digests(monkeypatch, tmp_path, workload):
    # The bench modules import each other by their bare names.
    monkeypatch.syspath_prepend(str(BENCH))
    run, workloads = _load("run"), _load("workloads")
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[workload]
    ops = workloads.make_inputs(workload, run.DEFAULT_SEED, run.ROOT, tmp_path)
    scratch = tmp_path / "out"
    scratch.mkdir()
    run_op = workloads.OPS[workload]
    # An op drawn twice shares its key, and its digest, with the first draw.
    assert {op["key"] for op in ops} == set(expected)
    assert [run_op(op, scratch) for op in ops] == [expected[op["key"]] for op in ops]
