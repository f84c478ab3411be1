"""The benchmark's workloads: inputs made from a seed, one op per case, and
the checks each op's output must pass.

Ops reach the library only through the top-level ``hirzebruch`` exports and
``hirzebruch.cli.main``, looked up at call time so that a tracer installed
after import sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import hirzebruch as hz
from hirzebruch import cli

LADDER_RUNGS = (92, 212, 352, 512)
CLI_VERIFY_R = 17
SHIPPED_CASES = ("minimal_f0.json", "nonspecial_f2.json", "special_f2.json")
PASSING = ("pass", "skipped")


class OpFailed(Exception):
    """An op exited non-zero or its output failed a check."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def free_tail_case(r: int) -> dict:
    """``special_f2`` with its free tail extended to ``r`` points."""
    return {
        "surface": {"delta": 2, "point_kind": "special"},
        "beta_bar": [20, 28, 153, 612 + (r - 12)],
        "on_f1": 1,
        "on_m": 2,
        "divisor": {"a": 1, "b": 2},
    }


def nonspecial_tail_case(r: int) -> dict:
    """``nonspecial_f2`` with its free tail extended to ``r`` points."""
    return {
        "surface": {"delta": 2, "point_kind": "general"},
        "beta_bar": [15, 51, 262, 786 + (r - 12)],
        "on_f1": 1,
        "on_m": 3,
        "divisor": {"a": 2, "b": 5},
    }


def satellite_block_case(r: int) -> dict:
    """One satellite block: ``beta_bar = [n, n+1, n^2+n]`` with ``r = n+1``
    points, ``n-1`` of them satellite; there is no free tail to shortcut."""
    n = r - 1
    return {
        "surface": {"delta": 2, "point_kind": "special"},
        "beta_bar": [n, n + 1, n * n + n],
        "on_f1": 1,
        "on_m": 1,
        "divisor": {"a": 1, "b": 2},
    }


def _flagged(case: dict, eta: int | None) -> dict:
    flag = {"kind": "free"} if eta is None else {"kind": "satellite", "eta": eta}
    return {**case, "flag": flag}


def _family_cases(families, rungs) -> list[tuple[str, dict]]:
    """Each family at each rung, with a free flag and with ``eta = r-1``."""
    out = []
    for family, build in families:
        for r in rungs:
            for eta in (None, r - 1):
                label = "free" if eta is None else f"eta{eta}"
                out.append((f"{family}-r{r}-{label}", _flagged(build(r), eta)))
    return out


def _write_cases(cases, workdir: Path) -> list[dict]:
    (workdir / "cases").mkdir(parents=True, exist_ok=True)
    ops = []
    for name, case in cases:
        text = json.dumps(case, indent=2) + "\n"
        path = workdir / "cases" / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        div = case["divisor"]
        ops.append(
            {
                "key": digest(text),
                "name": name,
                "case": str(path),
                "delta": case["surface"]["delta"],
                "a": div["a"],
                "b": div["b"],
            }
        )
    return ops


def make_inputs(workload: str, seed: int, root: Path, workdir: Path) -> list[dict]:
    """Make the workload's inputs for ``seed`` (writing case files into
    ``workdir``) and return its ops in the order they run."""
    if workload == "corpus":
        import sampler

        return [
            {"key": digest(json.dumps(spec, sort_keys=True)), "spec": spec}
            for spec in sampler.corpus(seed)
        ]
    if workload == "ladder":
        families = (("tail", free_tail_case), ("block", satellite_block_case))
        ops = _write_cases(_family_cases(families, LADDER_RUNGS), workdir)
    elif workload == "cli_verify":
        families = (
            ("tail", free_tail_case),
            ("nonspecial", nonspecial_tail_case),
            ("block", satellite_block_case),
        )
        ops = _write_cases(_family_cases(families, (CLI_VERIFY_R,)), workdir)
        for name in SHIPPED_CASES:
            path = root / "cases" / name
            ops.append(
                {
                    "key": digest(path.read_text(encoding="utf-8")),
                    "name": name,
                    "case": str(path),
                }
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def _cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def _points(rows) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(y)) for x, y in rows]


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _area2(vertices) -> Fraction:
    n = len(vertices)
    return abs(sum(_cross((0, 0), vertices[i], vertices[(i + 1) % n]) for i in range(n)))


def check_body_identities(payload: dict, delta: int, a: int, b: int) -> None:
    """``2 * area == vol(D)`` and the body lies in its cone triangle, computed
    here from the emitted vertices; ``D = aF + bM`` is nef and big."""
    body = _points(payload["vertices"])
    triangle = _points(payload["cone_triangle"])
    volume = 2 * a * b + delta * b * b
    if _area2(body) != volume or Fraction(payload["area2"]) != volume:
        raise OpFailed(f"2*area {_area2(body)} (reported {payload['area2']}) != vol {volume}")
    orientation = 1 if _cross(*triangle) > 0 else -1
    for p in body:
        if any(
            orientation * _cross(triangle[i], triangle[(i + 1) % 3], p) < 0
            for i in range(3)
        ):
            raise OpFailed(f"vertex {p} escapes the cone triangle")


def corpus_op(op: dict, scratch: Path) -> str:
    """``newton_okounkov_body`` then ``verify_body``; digest of the vertices."""
    spec = op["spec"]
    surface = hz.Surface(spec["delta"], spec["point_kind"])
    val = hz.divisorial_valuation(surface, hz.build_configuration(surface, spec["points"]))
    flag = hz.flag_valuation(val, spec["eta"])
    d = hz.BigDivisor(spec["a"], spec["b"])
    body = hz.newton_okounkov_body(flag, d)
    report = hz.verify_body(flag, d)
    if not report.passed():
        raise OpFailed(f"verification {report.checks}")
    return digest(";".join(f"{x},{y}" for x, y in body.vertices))


def ladder_op(op: dict, scratch: Path) -> str:
    """``classify`` then ``body``; digest of both JSON outputs."""
    classify_out, body_out = scratch / "classify.json", scratch / "body.json"
    _cli(["classify", op["case"], "-o", str(classify_out)])
    _cli(["body", op["case"], "-o", str(body_out)])
    classify_text = classify_out.read_text(encoding="utf-8")
    body_text = body_out.read_text(encoding="utf-8")
    check_body_identities(json.loads(body_text), op["delta"], op["a"], op["b"])
    return digest(classify_text + body_text)


def cli_verify_op(op: dict, scratch: Path) -> str:
    """``body --verify --oracle``; digest of the JSON output."""
    out = scratch / "body.json"
    _cli(["body", op["case"], "--verify", "--oracle", "-o", str(out)])
    text = out.read_text(encoding="utf-8")
    checks = json.loads(text)["verification"]
    if not all(status in PASSING for _, status in checks):
        raise OpFailed(f"verification {checks}")
    return digest(text)


OPS = {"corpus": corpus_op, "ladder": ladder_op, "cli_verify": cli_verify_op}
