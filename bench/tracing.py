"""Span tracing of the library's layers, installed from outside the library.

Each target ``layer.function`` is wrapped once, and every module of the
package that holds the original object under some name is rebound to the
wrapper.  Calls through module globals, ``from`` imports and the package
namespace are therefore all seen; nothing under ``src/`` changes.  A target
that does not exist is listed in ``absent`` and the run goes on without it.

Spans (name, start, end, parent, op id) are kept in memory in flat arrays.
A span's self time is its duration minus the durations of its direct
children: calls are strictly nested on one thread, so the children never
overlap and their sum is the part of the interval they cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "hirzebruch"
TARGETS = (
    "cluster.from_maximal_contact",
    "cluster.maximal_contact_values",
    "cluster.divisorial_valuation",
    "cluster.truncate_valuation",
    "cluster.truncation_pairing",
    "lattice.pair",
    "lattice.is_negative_definite",
    "lattice.curve_basis",
    "lattice.dual_graph",
    "zariski.zariski_decompose",
    "zariski.alpha_beta",
    "zariski.t_values",
    "seshadri.mu_hat",
    "seshadri.is_minimal",
    "okounkov.newton_okounkov_body",
    "okounkov.sweep_body",
    "okounkov.verify_body",
    "caseio.load_case",
    "caseio.body_payload",
    "caseio.dump_payload",
)
# Layers whose call counts only restate the number of ops: self time only.
SELF_TIME_ONLY = ("caseio",)
CACHE_LAYERS = ("cluster", "lattice")
DECOMPOSE = "zariski.zariski_decompose"
SAMPLE = "zariski.alpha_beta"
SWEEP = "okounkov.sweep_body"
OP = "op"


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [OP, *self.targets]
        self.absent: list[str] = []
        self.op_id = -1
        self._kind = array("H")
        self._parent = array("l")
        self._op = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, list] = {}
        self._gram = Counter()

    def _open(self, kind: int) -> int:
        idx = len(self._start)
        self._kind.append(kind)
        self._parent.append(self._stack[-1])
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """A root span around one op; library spans inside it carry its id."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, kind: int, observe):
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_decomposition(self, zp) -> None:
        self._gram["decompositions"] += 1
        self._gram["generators"] += len(zp.basis.names)
        self._gram["support"] += len(zp.components)

    def install(self) -> None:
        layers = {}
        for layer in {t.split(".")[0] for t in self.targets} | set(CACHE_LAYERS):
            try:
                layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
        for layer in CACHE_LAYERS:
            module = layers.get(layer)
            if module is not None:
                self._caches[layer] = [
                    value
                    for value in vars(module).values()
                    if hasattr(value, "cache_info")
                    and getattr(value, "__module__", None) == module.__name__
                ]
        holders = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for kind, target in enumerate(self.targets, start=1):
            layer, func = target.split(".", 1)
            original = getattr(layers.get(layer), func, None)
            if not callable(original):
                self.absent.append(target)
                continue
            observe = self._observe_decomposition if target == DECOMPOSE else None
            wrapper = self._wrap(original, kind, observe)
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-target call counts and self times, plus the derived counters."""
        n = len(self._start)
        kind, parent, start, end = self._kind, self._parent, self._start, self._end
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            calls[kind[i]] += 1
            self_s[kind[i]] += end[i] - start[i] - child[i]
        names = self.names
        sweep = names.index(SWEEP) if SWEEP in names else -1
        sample = names.index(SAMPLE) if SAMPLE in names else -1
        samples_in_sweeps = 0
        for i in range(n):
            if sample >= 0 and kind[i] == sample:
                p = parent[i]
                while p >= 0 and kind[p] != sweep:
                    p = parent[p]
                samples_in_sweeps += p >= 0
        caches = {}
        for layer, functions in self._caches.items():
            infos = [f.cache_info() for f in functions]
            caches[layer] = [sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)]
        return {
            "calls": {names[k]: int(calls[k]) for k in range(1, len(names))},
            "self_s": {names[k]: self_s[k] for k in range(1, len(names))},
            "absent": list(self.absent),
            "caches": caches,
            "decompositions": dict(self._gram),
            "sweeps": int(calls[sweep]) if sweep >= 0 else 0,
            "samples_in_sweeps": samples_in_sweeps,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name, with their units."""
    out = {}
    for target in summary["calls"]:
        if target in summary["absent"]:
            continue
        if target.split(".")[0] not in SELF_TIME_ONLY:
            out[f"{target}.calls"] = (summary["calls"][target], "count")
        out[f"{target}.self_s"] = (summary["self_s"][target], "s")
    for layer, (hits, lookups) in summary["caches"].items():
        out[f"{layer}.cache_hit_ratio"] = (_ratio(hits, lookups), "ratio")
    if DECOMPOSE not in summary["absent"]:
        dec = summary["decompositions"]
        count = dec.get("decompositions", 0)
        out["zariski.gram_size.mean"] = (_ratio(dec.get("generators", 0), count), "count")
        out["zariski.support_size.mean"] = (_ratio(dec.get("support", 0), count), "count")
    if SWEEP not in summary["absent"] and SAMPLE not in summary["absent"]:
        out["okounkov.sweep_samples.mean"] = (
            _ratio(summary["samples_in_sweeps"], summary["sweeps"]),
            "count",
        )
    return out
