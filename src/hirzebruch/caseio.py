"""Case files and deterministic result serialization.

A case file is a JSON object with these fields:

* ``surface``: ``{"delta": int, "point_kind": "special" | "general"}``;
* exactly one of

  - ``configuration``: ``{"points": [{"parent"?, "extra_proximity"?,
    "on_f1"?, "on_m"?}, ...]}`` (``parent`` is optional and must name the
    previous point; ``extra_proximity`` marks satellite points), or
  - ``beta_bar``: the maximal contact values, with chain lengths ``on_f1``
    (default 1) and ``on_m`` (default 1 on special centers, 0 otherwise);

* ``flag``: ``{"kind": "free"}`` or ``{"kind": "satellite", "eta": int}``;
* ``divisor``: ``{"a": int, "b": int}``.

A field not listed here, at any level, is refused.

All emitted numbers are reduced rational strings ``p/q`` (``q > 0``, plain
``p`` when integral); key order and formatting are fixed so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .cluster import (
    DivisorialValuation,
    FlagValuation,
    Surface,
    build_configuration,
    divisorial_valuation,
    flag_valuation,
    from_maximal_contact,
    is_npi,
    _Record,
)
from .errors import CaseFormatError, NumberTooLarge
from .okounkov import (
    cone_triangle,
    newton_okounkov_body,
    sweep_body,
    verify_body,
)
from .seshadri import BigDivisor, is_minimal, mu_hat, never_minimal, theta


class Case(_Record):
    _fields = ("surface", "valuation", "flag", "divisor")

    def __init__(
        self, surface: Surface, valuation: DivisorialValuation, flag: FlagValuation,
        divisor: BigDivisor,
    ):
        vars(self).update(surface=surface, valuation=valuation, flag=flag, divisor=divisor)


def rational(x) -> str:
    f = Fraction(x)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        # Past the int-to-str digit limit, which this library leaves as it is.
        limit = sys.get_int_max_str_digits()
        raise NumberTooLarge(f"a number of the result has more than {limit} digits") from None


def divisor_label(d: BigDivisor) -> str:
    def term(coeff, symbol):
        if coeff == 0:
            return None
        if coeff == 1:
            return symbol
        if coeff == -1:
            return f"-{symbol}"
        return f"{coeff}{symbol}"

    parts = [t for t in (term(d.a, "F"), term(d.b, "M")) if t]
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _expect(condition, message):
    if not condition:
        raise CaseFormatError(message)


def _integer(value, name: str) -> int:
    # bool is an int subclass, but a JSON true is not a count.
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer",
    )
    return value


def _known_fields(fields: dict, name: str, *known: str) -> None:
    unknown = set(fields) - set(known)
    _expect(not unknown, f"unknown {name} fields: {sorted(unknown)}")


def case_from_mapping(data) -> Case:
    _expect(isinstance(data, dict), "case must be a JSON object")
    _known_fields(
        data, "case", "surface", "configuration", "beta_bar", "on_f1", "on_m", "flag", "divisor"
    )

    surf = data.get("surface")
    _expect(isinstance(surf, dict), "missing surface object")
    _known_fields(surf, "surface", "delta", "point_kind")
    delta = _integer(surf.get("delta"), "surface.delta")
    try:
        surface = Surface(delta, surf.get("point_kind", "special"))
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from None

    has_config = "configuration" in data
    has_beta = "beta_bar" in data
    _expect(
        has_config != has_beta,
        "exactly one of 'configuration' and 'beta_bar' must be present",
    )
    if has_config:
        _expect(
            "on_f1" not in data and "on_m" not in data,
            "chain lengths belong inside the point records",
        )
        conf = data["configuration"]
        _expect(
            isinstance(conf, dict) and isinstance(conf.get("points"), list),
            "configuration must hold a list of points",
        )
        _known_fields(conf, "configuration", "points")
        config = build_configuration(surface, conf["points"])
    else:
        beta = data["beta_bar"]
        _expect(isinstance(beta, list), "beta_bar must be a list of integers")
        for k, x in enumerate(beta):
            _integer(x, f"beta_bar[{k}]")
        on_f1 = _integer(data.get("on_f1", 1), "on_f1")
        on_m = data.get("on_m")
        if on_m is not None:
            _integer(on_m, "on_m")
        config = from_maximal_contact(surface, beta, on_f1, on_m)
    valuation = divisorial_valuation(surface, config)

    flag_data = data.get("flag")
    _expect(isinstance(flag_data, dict), "missing flag object")
    _known_fields(flag_data, "flag", "kind", "eta")
    kind = flag_data.get("kind")
    _expect(kind in ("free", "satellite"), "flag kind must be 'free' or 'satellite'")
    if kind == "satellite":
        eta = _integer(flag_data.get("eta"), "flag.eta")
        flag = flag_valuation(valuation, eta)
    else:
        _expect("eta" not in flag_data, "a free flag has no 'eta'")
        flag = flag_valuation(valuation, None)

    div = data.get("divisor")
    _expect(isinstance(div, dict), "missing divisor object")
    _known_fields(div, "divisor", "a", "b")
    a = _integer(div.get("a"), "divisor.a")
    b = _integer(div.get("b"), "divisor.b")
    return Case(surface, valuation, flag, BigDivisor(a, b))


def load_case(path) -> Case:
    """The case in a file; a file that cannot be opened raises its ``OSError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"case file is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Syntax errors, integers past the digit limit and deep nesting.
        raise CaseFormatError(f"invalid JSON: {exc}") from None
    return case_from_mapping(data)


def _vertices(polygon):
    return [[rational(x), rational(y)] for x, y in polygon.vertices]


def classify_payload(case: Case) -> dict:
    val, d = case.valuation, case.divisor
    npi = is_npi(val)
    payload = {
        "classification": val.kind,
        "npi": npi,
        "beta_bar": list(val.beta_bar),
        "fiber_value": val.phi_f1,
        "section_value": val.phi_m,
        "divisor": divisor_label(d),
    }
    if npi:
        payload["never_minimal"] = never_minimal(val)
        if d.is_nef() and d.is_big(val.delta):
            payload["minimal"] = is_minimal(val, d)
        else:
            payload["minimal"] = None
        payload["mu_hat"] = rational(mu_hat(val, d))
    else:
        payload["never_minimal"] = None
        payload["minimal"] = None
        payload["mu_hat"] = None
    return payload


def classify_text(payload: dict) -> str:
    parts = [payload["classification"], "NPI" if payload["npi"] else "not NPI"]
    if payload["npi"]:
        if payload["minimal"]:
            parts.append("minimal")
        elif payload["never_minimal"]:
            parts.append("never-minimal")
        else:
            parts.append("non-minimal")
        parts.append(f"mu_hat({payload['divisor']}) = {payload['mu_hat']}")
    return ", ".join(parts)


def body_payload(case: Case, verify: bool = False, oracle: bool = False):
    val, flag, d = case.valuation, case.flag, case.divisor
    if verify:
        report = verify_body(flag, d)
        body, triangle = report.body, report.triangle
    else:
        report = None
        body = newton_okounkov_body(flag, d)
        triangle = cone_triangle(flag, d)
    payload = {
        "classification": val.kind,
        "flag": {"kind": "satellite" if flag.is_satellite else "free"},
        "divisor": divisor_label(d),
        "theta": rational(theta(val, d)),
        "mu_hat": rational(mu_hat(val, d)),
        "shape": body.shape(),
        "vertices": _vertices(body),
        "cone_triangle": _vertices(triangle),
        "area2": rational(body.area2),
    }
    if flag.is_satellite:
        payload["flag"]["eta"] = flag.eta
    if oracle:
        # Verification has already swept the body unless it skipped the oracle.
        sweep = report.sweep if report is not None else None
        if sweep is None:
            sweep = sweep_body(flag, d)
        payload["oracle_vertices"] = _vertices(sweep)
    if report is not None:
        payload["verification"] = [list(item) for item in report.checks]
    return payload, body, triangle, report


def dump_payload(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
