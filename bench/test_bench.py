"""Tests of the benchmark's own pieces: the corpus sampler and the tracer."""

import importlib.util
from pathlib import Path

import hirzebruch
import sampler
import tracing
from hirzebruch import lattice

ROOT = Path(__file__).resolve().parent.parent


def _tier1_corpus():
    spec = importlib.util.spec_from_file_location("tier1_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return conftest.corpus.__wrapped__()


def test_default_seed_reproduces_tier1_corpus():
    tier1 = [(tuple(val.beta_bar), flag.eta, d.a, d.b) for val, flag, d in _tier1_corpus()]
    ours = [
        (tuple(s["beta_bar"]), s["eta"], s["a"], s["b"])
        for s in sampler.corpus(sampler.DEFAULT_SEED)
    ]
    assert len(tier1) == 220
    assert ours == tier1


def test_other_seeds_keep_the_size_mix():
    sizes = [len(s["points"]) for s in sampler.corpus(7)[:: sampler.CASES_PER_VALUATION]]
    assert {r: sizes.count(r) for r in set(sizes)} == sampler.RADIUS_QUOTA


def test_absent_targets_are_reported_and_present_ones_traced():
    tracer = tracing.Tracer(["lattice.pair", "lattice.no_such_function", "no_such_layer.f"])
    original = lattice.pair
    tracer.install()
    try:
        assert hirzebruch.pair is lattice.pair is not original
        x = hirzebruch.exceptional(0, 2, 1)
        with tracer.op(0):
            hirzebruch.pair(x, x)
    finally:
        tracer.uninstall()
    assert hirzebruch.pair is lattice.pair is original
    summary = tracer.summary()
    assert summary["absent"] == ["lattice.no_such_function", "no_such_layer.f"]
    assert summary["calls"]["lattice.pair"] == 1
    metrics = tracing.layer_metrics(summary)
    assert metrics["lattice.pair.calls"] == (1, "count")
    assert "lattice.no_such_function.calls" not in metrics
