"""Assembly and verification of the Newton-Okounkov polygon of a flag.

The body of a big class with respect to a flag on the last exceptional
divisor is a polygon with rational vertices.  It is assembled here from the
closed-form breakpoint data (:func:`newton_okounkov_body`) and certified
against an independent oracle that sweeps Zariski decompositions across the
breakpoint set (:func:`sweep_body`), plus exact area, containment and
value-sequence identity checks (:func:`verify_body`).

Polygon geometry runs in integers: hull, area and containment clear their
points to one common denominator, and only the hull vertices are built as
``Fraction`` again.  A ``Fraction`` version of the same geometry is kept
in the tests as the reference.

Nothing here builds a truncated valuation: the cap reads the stage-``eta``
numbers from a curvette row, the unimodularity clause reads the stage's
sieved values from the configuration, and the cone rays compare integer
slopes along two rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cluster import (
    FlagValuation,
    maximal_contact_values,
    truncation_pairing,
    _stage,
)
from .errors import (
    EtaNotNPI,
    InvariantBroken,
    MinimalValuation,
    NotNPI,
    VerificationFailed,
)
from .lattice import dual_graph, precedes
from .seshadri import (
    BigDivisor,
    as_divisor,
    is_minimal,
    mu_hat,
    vol,
    _positive_scale,
    _require_big,
    _require_npi,
)
from .zariski import alpha_beta, t_values, _regime

Point = tuple[Fraction, Fraction]


def _cross(o, a, b):
    """Twice the signed area of the triangle ``o, a, b``, for ``int`` or
    ``Fraction`` coordinates alike."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cleared(points) -> tuple[list[tuple[int, int]], int]:
    """Rational points over one common denominator: the integer numerators
    of each point and the denominator.

    Scaling by a positive integer keeps the lexicographic order and the sign
    of every cross product, so hull, area and containment run in ``int``.
    """
    den = 1
    for x, y in points:
        den = lcm(den, x.denominator, y.denominator)
    return [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in points
    ], den


@dataclass(frozen=True)
class Polygon:
    """A convex polygon with exact rational vertices.

    Vertices run counterclockwise starting at the lexicographically least
    one, with duplicate and collinear interior points removed.
    """

    vertices: tuple[Point, ...]

    @classmethod
    def from_points(cls, points) -> "Polygon":
        # Only coordinates other than ``int`` and ``Fraction`` are converted.
        exact = (int, Fraction)
        cleared, den = _cleared(
            [tuple(c if isinstance(c, exact) else Fraction(c) for c in p) for p in points]
        )
        hull = pts = sorted(set(cleared))
        if len(pts) > 2:
            # Both chains keep their first point, so a collinear set comes
            # out as its two sorted end points.
            lower: list[tuple[int, int]] = []
            for p in pts:
                while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                    lower.pop()
                lower.append(p)
            upper: list[tuple[int, int]] = []
            for p in reversed(pts):
                while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                    upper.pop()
                upper.append(p)
            hull = lower[:-1] + upper[:-1]
        return cls(tuple((Fraction(x, den), Fraction(y, den)) for x, y in hull))

    def scaled(self, factor) -> "Polygon":
        s = Fraction(factor)
        return Polygon.from_points([(s * x, s * y) for x, y in self.vertices])

    @property
    def area2(self) -> Fraction:
        v, den = _cleared(self.vertices)
        total = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]))
        return Fraction(total, den * den)

    def contains(self, point: Point) -> bool:
        if len(self.vertices) < 3:
            return point in self.vertices
        (*v, p), _ = _cleared((*self.vertices, point))
        return all(_cross(a, b, p) >= 0 for a, b in zip(v, v[1:] + v[:1]))

    def shape(self) -> str:
        return {3: "triangle", 4: "quadrilateral"}.get(
            len(self.vertices), f"{len(self.vertices)}-gon"
        )


def cone_rays(flag: FlagValuation) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive directions of the two extremal rays of the value cone.

    For a free flag point the cone sits between the horizontal axis and the
    ray of the final curvette pair.  For a satellite flag point the value
    pairs of all stage curvettes are read from the two curvette rows and
    the extreme slopes are taken; on flags continuing a satellite block
    these are the ratios of the matching semigroup generators of the two
    valuations.  First coordinates are positive, so slopes compare by
    integer cross-multiplication; on a tie the first pair is kept.
    """
    val = flag.base
    if not flag.is_satellite:
        return (1, 0), (val.last_contact, 1)
    config = val.config
    pairs = zip(config.curvette_values(val.r), config.curvette_values(flag.eta))
    low = high = next(pairs)
    for p in pairs:
        if p[1] * low[0] < low[1] * p[0]:
            low = p
        elif p[1] * high[0] > high[1] * p[0]:
            high = p

    def primitive(p):
        g = gcd(p[0], p[1])
        return (p[0] // g, p[1] // g)

    return primitive(low), primitive(high)


def cone_triangle(flag: FlagValuation, d) -> Polygon:
    """The value cone cut by the half-plane at the Seshadri-type constant.

    Contains the body; equals it exactly for minimal valuations.
    """
    val = flag.base
    d = as_divisor(d)
    mu = mu_hat(val, d)
    rays = cone_rays(flag)
    pts = [(Fraction(0), Fraction(0))]
    for rx, ry in rays:
        pts.append((mu, mu * Fraction(ry, rx)))
    poly = Polygon.from_points(pts)
    if len(poly.vertices) != 3:
        raise InvariantBroken("cone", f"degenerate value cone: {poly.vertices}")
    return poly


@dataclass(frozen=True)
class QPoints:
    """Candidate vertices of the body at the two support breakpoints.

    ``bottom``/``top`` are the lower and upper boundary points above each
    breakpoint; ``cap`` is the single boundary point at the constant.
    ``theta`` is the sign invariant that selected the formulas.
    """

    theta: int
    t_lower: Fraction
    t_upper: Fraction
    bottom_lower: Point
    top_lower: Point
    bottom_upper: Point
    top_upper: Point
    cap: Point


def q_points(flag: FlagValuation, d) -> QPoints:
    """Exact evaluation of the breakpoint vertices for a non-minimal valuation."""
    val = flag.base
    d = as_divisor(d)
    if is_minimal(val, d):
        raise MinimalValuation("a minimal valuation has no breakpoint vertices")
    t_lo, t_hi = t_values(val, d)
    rec = _regime(val, d)
    bot_lo = bot_hi = cap_y = Fraction(0)
    if flag.is_satellite:
        bot_lo, bot_hi = rec.at_stage(val, flag.eta)
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


def _flag_precedes(flag: FlagValuation) -> bool:
    graph = dual_graph(flag.base)
    return precedes(graph, flag.base.r, flag.eta)


def newton_okounkov_body(flag: FlagValuation, d) -> Polygon:
    """The Newton-Okounkov polygon of a big class with respect to the flag.

    Minimal valuations fill the whole cone triangle.  A big class that is
    not nef scales the body of the section class by the coefficient of its
    positive part.  Otherwise the body is the hull of the boundary points
    above the two support breakpoints together with the origin and the cap:
    the boundary functions are affine away from the breakpoints, so these
    are the only candidate vertices.  Degenerate coincidences (a vanishing
    sign invariant, points falling on an edge) collapse the hull to a
    triangle during normalization.
    """
    val = flag.base
    d = as_divisor(d)
    _require_npi(val)
    _require_big(val, d)
    if not d.is_nef():
        scale = _positive_scale(val.delta, d)
        return newton_okounkov_body(flag, BigDivisor(0, 1)).scaled(scale)
    if is_minimal(val, d):
        return cone_triangle(flag, d)
    qp = q_points(flag, d)
    origin = (Fraction(0), Fraction(0))
    pts = [
        origin,
        qp.bottom_lower,
        qp.top_lower,
        qp.bottom_upper,
        qp.top_upper,
        qp.cap,
    ]
    return Polygon.from_points(pts)


def sweep_breakpoints(flag: FlagValuation, d) -> list[Fraction]:
    """Sample abscissas for the oracle: breakpoints plus midpoints.

    A big class that is not nef samples the scaled range of the section
    class.  On a center on the negative section that range ends below the
    constant of the class, which also counts the value of the fixed part.
    """
    val = flag.base
    d = as_divisor(d)
    _require_big(val, d)
    if not d.is_nef():
        scale = _positive_scale(val.delta, d)
        return [scale * t for t in sweep_breakpoints(flag, BigDivisor(0, 1))]
    lo, hi = t_values(val, d)
    base = sorted({Fraction(0), lo, hi, mu_hat(val, d)})
    out = []
    for i, t in enumerate(base):
        if i:
            out.append((base[i - 1] + t) / 2)
        out.append(t)
    return out


def sweep_body(flag: FlagValuation, d) -> Polygon:
    """Oracle polygon: the hull of the boundary values over the sweep.

    Between breakpoints both boundary functions are affine, so the hull
    over breakpoints and midpoints reconstructs the body exactly; a hidden
    breakpoint would make the comparison with the closed form fail.  The
    samples ascend, and each starts the engine from the support of the one
    before.
    """
    val = flag.base
    d = as_divisor(d)
    _require_npi(val)
    pts = [(Fraction(0), Fraction(0))]
    carry: list[int] = []
    for t in sweep_breakpoints(flag, d):
        lo, hi = alpha_beta(flag, d, t, _carry=carry)
        pts.append((t, lo))
        pts.append((t, hi))
    return Polygon.from_points(pts)


@dataclass(frozen=True)
class BodyReport:
    """Outcome of the cross-checks run by :func:`verify_body`."""

    body: Polygon
    triangle: Polygon
    sweep: Polygon | None
    checks: tuple[tuple[str, str], ...]

    def passed(self) -> bool:
        return all(status in ("pass", "skipped") for _, status in self.checks)


def verify_body(flag: FlagValuation, d) -> BodyReport:
    """Certify the computed body against every independent oracle.

    Checks, in order: the area accounts for the full volume of the class;
    the polygon equals the decomposition-sweep hull; it sits inside the
    cone triangle; and on flags whose divisor separates the dual graph the
    exact unimodularity identities between the two value sequences hold.
    Raises :class:`VerificationFailed` on the first violated clause.
    """
    val = flag.base
    d = as_divisor(d)
    body = newton_okounkov_body(flag, d)
    triangle = cone_triangle(flag, d)
    checks: list[tuple[str, str]] = []

    expected_area2 = vol(val, d)
    if body.area2 != expected_area2:
        raise VerificationFailed(
            "area", f"2*area = {body.area2}, volume = {expected_area2}"
        )
    checks.append(("area", "pass"))

    sweep = None
    skip_sweep = (not d.is_nef()) and val.surface.point_kind == "special"
    if skip_sweep:
        # The class sheds the negative section, which passes through the
        # center here, so the position contract behind the sweep fails.
        checks.append(("oracle", "skipped"))
    else:
        sweep = sweep_body(flag, d)
        if sweep.vertices != body.vertices:
            raise VerificationFailed(
                "oracle", f"sweep gave {sweep.vertices}, body is {body.vertices}"
            )
        checks.append(("oracle", "pass"))

    for p in body.vertices:
        if not triangle.contains(p):
            raise VerificationFailed("containment", f"{p} escapes the cone triangle")
    checks.append(("containment", "pass"))

    if flag.is_satellite and _flag_precedes(flag):
        eta_beta = maximal_contact_values(val.config, flag.eta)
        g = len(val.beta_bar) - 2
        nrpe = truncation_pairing(val.config, val.r, flag.eta)
        total = val.last_contact
        ok = (
            g < len(eta_beta)
            and nrpe * val.beta_bar[0] == total * eta_beta[0]
            and (nrpe + 1) * val.beta_bar[g] == total * eta_beta[g]
        )
        if not ok:
            raise VerificationFailed(
                "unimodularity",
                f"value sequences {val.beta_bar} / {eta_beta} fail the "
                f"index identities at {nrpe}",
            )
        checks.append(("unimodularity", "pass"))
    else:
        checks.append(("unimodularity", "skipped"))

    return BodyReport(body, triangle, sweep, tuple(checks))
