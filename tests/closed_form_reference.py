"""The ``Fraction`` closed form, kept as the test reference.

This is ``okounkov.q_points`` and the hull assembly of
``okounkov.newton_okounkov_body`` as they were before the closed form moved
onto integers over one denominator: every breakpoint value is built as a
``Fraction`` from the fields of the regime record, each point on its own
denominator, and the body is the ``Fraction`` hull of
:mod:`polygon_reference`.  Production must agree with it on every
breakpoint value, on every refusal and on the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hirzebruch.cluster import truncation_pairing, _stage
from hirzebruch.errors import EtaNotNPI, InvariantBroken, MinimalValuation, NotNPI
from hirzebruch.okounkov import cone_rays
from hirzebruch.seshadri import (
    BigDivisor,
    as_divisor,
    is_minimal,
    mu_hat,
    _positive_scale,
    _require_big,
    _require_npi,
)
from hirzebruch.zariski import _regime

import polygon_reference

Point = tuple[Fraction, Fraction]


def at_stage(rec, val, i) -> tuple[Fraction, Fraction]:
    """Values on the stage-``i`` curvette at the lower and upper breakpoint:
    ``lower * nu`` and ``(upper * nu + sign * theta * c) / denom``."""
    nu = truncation_pairing(val.config, val.r, i)
    c = truncation_pairing(val.config, rec.chain, i) if rec.chain else 0
    return rec.lower * nu, Fraction(rec.upper * nu + rec.sign * rec.theta * c, rec.denom)


def t_values(val, d) -> tuple[Fraction, Fraction]:
    lo, hi = at_stage(_regime(val, d), val, val.r)
    mu = mu_hat(val, d)
    if not (0 <= lo <= hi <= mu):
        raise InvariantBroken("breakpoints", f"{lo}, {hi} escape [0, {mu}]")
    return lo, hi


@dataclass(frozen=True)
class QPoints:
    theta: int
    t_lower: Fraction
    t_upper: Fraction
    bottom_lower: Point
    top_lower: Point
    bottom_upper: Point
    top_upper: Point
    cap: Point


def q_points(flag, d) -> QPoints:
    val = flag.base
    d = as_divisor(d)
    if is_minimal(val, d):
        raise MinimalValuation("a minimal valuation has no breakpoint vertices")
    t_lo, t_hi = t_values(val, d)
    rec = _regime(val, d)
    bot_lo = bot_hi = cap_y = Fraction(0)
    if flag.is_satellite:
        bot_lo, bot_hi = at_stage(rec, val, flag.eta)
        try:
            cap_y = mu_hat(_stage(val.surface, val.config, flag.eta), d)
        except NotNPI as exc:
            raise EtaNotNPI(
                f"the truncation at E{flag.eta} is not non-positive at infinity"
            ) from exc
    return QPoints(
        theta=rec.theta,
        t_lower=t_lo,
        t_upper=t_hi,
        bottom_lower=(t_lo, bot_lo),
        top_lower=(t_lo, bot_lo + rec.lower),
        bottom_upper=(t_hi, bot_hi),
        top_upper=(t_hi, bot_hi + Fraction(rec.upper, rec.denom)),
        cap=(mu_hat(val, d), cap_y),
    )


def newton_okounkov_body(flag, d) -> tuple[Point, ...]:
    """The vertices of the body: the cone triangle for a minimal valuation,
    the scaled section body for a class that is not nef, and otherwise the
    hull of the origin and the six breakpoint points."""
    val = flag.base
    d = as_divisor(d)
    _require_npi(val)
    _require_big(val, d)
    if not d.is_nef():
        s = _positive_scale(val.delta, d)
        section = newton_okounkov_body(flag, BigDivisor(0, 1))
        return polygon_reference.hull([(s * x, s * y) for x, y in section])
    origin = (Fraction(0), Fraction(0))
    if is_minimal(val, d):
        mu = mu_hat(val, d)
        return polygon_reference.hull(
            [origin, *((mu, mu * Fraction(ry, rx)) for rx, ry in cone_rays(flag))]
        )
    qp = q_points(flag, d)
    return polygon_reference.hull(
        [origin, qp.bottom_lower, qp.top_lower, qp.bottom_upper, qp.top_upper, qp.cap]
    )
