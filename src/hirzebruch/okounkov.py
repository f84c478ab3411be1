"""Assembly and verification of the Newton-Okounkov polygon of a flag.

The body of a big class with respect to a flag on the last exceptional
divisor is a polygon with rational vertices.  It is assembled here from the
closed-form breakpoint data (:func:`newton_okounkov_body`) and certified
(:func:`verify_body`) against an independent oracle that walks the Zariski
chambers of ``D* - t E_r*`` (:func:`sweep_body`), finding every wall and
the end of the walk from the decompositions alone, plus exact area,
containment and value-sequence identity checks.

Both routes hand their points to the polygon as integer numerators over
one denominator; the polygon keeps its vertices in that form for equality,
area and containment, and builds them as ``Fraction`` only when they are
read.  The body checks the valuation and the class once, and the
valuation keeps the last body, so :func:`verify_body` certifies the very
polygon the caller holds.  The ``Fraction`` geometry and closed form are
kept in the tests as references.  Nothing here builds a truncated
valuation: the cap and the cone rays read curvette rows, the
unimodularity clause the stage's contact values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cluster import FlagValuation, maximal_contact_values, npi_excess, truncation_pairing
from .cluster import _Record, _pair_ends, _stage
from .errors import (
    EtaNotNPI,
    InvariantBroken,
    MinimalValuation,
    VerificationFailed,
)
from .lattice import dual_graph, precedes
from .seshadri import (
    BigDivisor,
    as_divisor,
    is_minimal,
    mu_hat,
    vol,
    _mu_hat,
    _positive_scale,
    _require_big,
    _require_npi,
)
from .zariski import _breakpoints, _chamber_walk, _regime

Point = tuple[Fraction, Fraction]


def _cross(o, a, b):
    """Twice the signed area of the triangle ``o, a, b``."""
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


class Polygon:
    """A convex polygon with exact rational vertices.

    Vertices run counterclockwise starting at the lexicographically least
    one, with duplicate and collinear interior points removed.  The polygon
    keeps them as integer numerators over one denominator and builds
    ``vertices`` as ``Fraction`` only when it is first read; equality,
    area, containment and scaling run on the integer form.  A polygon is
    immutable.
    """

    def __init__(self, vertices):
        self.__dict__["vertices"] = tuple(vertices)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def from_points(cls, points) -> "Polygon":
        # Only coordinates other than ``int`` and ``Fraction`` are converted.
        exact = (int, Fraction)
        points = [[c if isinstance(c, exact) else Fraction(c) for c in p] for p in points]
        return cls._hull(*_cleared(points))

    @classmethod
    def _hull(cls, points: list[tuple[int, int]], den: int) -> "Polygon":
        """The hull of integer points over a positive denominator, the entry
        of both routes."""
        hull = pts = sorted(set(points))
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
        poly = cls.__new__(cls)
        poly.__dict__["_integral"] = (hull, den)
        return poly

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        v, den = self._integral
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in v)

    @cached_property
    def _integral(self) -> tuple[list[tuple[int, int]], int]:
        """The vertices as integer numerators over one denominator."""
        return _cleared(self.vertices)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        (v, d), (w, e) = self._integral, other._integral
        return len(v) == len(w) and all(
            x * e == y * d and x1 * e == y1 * d for (x, x1), (y, y1) in zip(v, w)
        )

    def __hash__(self):
        return hash((self.vertices,))

    def __repr__(self):
        return f"Polygon(vertices={self.vertices!r})"

    def scaled(self, factor) -> "Polygon":
        s = Fraction(factor)
        v, den = self._integral
        n = s.numerator
        return Polygon._hull([(x * n, y * n) for x, y in v], den * s.denominator)

    @property
    def area2(self) -> Fraction:
        v, den = self._integral
        total = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]))
        return Fraction(total, den * den)

    def _outside(self, points: list[tuple[int, int]], q: int) -> tuple[int, int] | None:
        """The first of the integer points over ``q`` that the polygon does
        not contain, or ``None``."""
        v, den = self._integral
        edges = list(zip(v, v[1:] + v[:1]))
        for x, y in points:
            px, py = x * den, y * den  # both sides over den * q
            if len(v) < 3:
                inside = any(px == a0 * q and py == a1 * q for a0, a1 in v)
            else:
                inside = all(
                    (b0 - a0) * (py - a1 * q) >= (b1 - a1) * (px - a0 * q)
                    for (a0, a1), (b0, b1) in edges
                )
            if not inside:
                return x, y
        return None

    def contains(self, point: Point) -> bool:
        x, y = point
        p = (x.numerator * y.denominator, y.numerator * x.denominator)
        return self._outside([p], x.denominator * y.denominator) is None

    def shape(self) -> str:
        n = len(self._integral[0])
        return {3: "triangle", 4: "quadrilateral"}.get(n, f"{n}-gon")


def cone_rays(flag: FlagValuation) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive directions of the two extremal rays of the value cone.

    For a free flag point the cone sits between the horizontal axis and the
    ray of the final curvette pair.  For a satellite flag point the value
    pairs of all stage curvettes are read from the two curvette rows and
    the extreme slopes are taken; on flags continuing a satellite block
    these are the ratios of the matching semigroup generators of the two
    valuations.  Both rows are affine on each of their common pieces, where
    the slope is monotone, so only the two ends of each piece are read.
    First coordinates are positive, so slopes compare by integer
    cross-multiplication; equal slopes give the same primitive ray.
    """
    val = flag.base
    if not flag.is_satellite:
        return (1, 0), (val.last_contact, 1)
    pairs = _pair_ends(val.config, val.r, flag.eta)
    low = high = pairs[0]
    for p in pairs:
        if p[1] * low[0] < low[1] * p[0]:
            low = p
        elif p[1] * high[0] > high[1] * p[0]:
            high = p
    return tuple((x // gcd(x, y), y // gcd(x, y)) for x, y in (low, high))


def cone_triangle(flag: FlagValuation, d) -> Polygon:
    """The value cone cut by the half-plane at the Seshadri-type constant.

    Contains the body; equals it exactly for minimal valuations.
    """
    return _cone_triangle(flag, mu_hat(flag.base, d))


def _cone_triangle(flag: FlagValuation, mu: Fraction) -> Polygon:
    """The cone triangle at the constant ``mu`` of a checked class."""
    rays = cone_rays(flag)
    # Over ``mu.denominator * unit`` the corners ``(mu, mu * ry / rx)`` are integral.
    unit = lcm(*(rx for rx, _ in rays))
    corners = [(mu.numerator * unit, mu.numerator * ry * (unit // rx)) for rx, ry in rays]
    poly = Polygon._hull([(0, 0), *corners], mu.denominator * unit)
    if len(poly._integral[0]) != 3:
        raise InvariantBroken("cone", f"degenerate value cone: {poly.vertices}")
    return poly


def _qpoint(k: int) -> property:
    """The ``k``-th point of :class:`QPoints`, read as ``Fraction``."""
    return property(lambda qp: tuple(Fraction(c, qp.den) for c in qp.points[k]))


class QPoints(_Record):
    """Candidate vertices of the body at the two support breakpoints.

    ``bottom``/``top`` are the lower and upper boundary points above each
    breakpoint; ``cap`` is the single boundary point at the constant.
    ``theta`` is the sign invariant that selected the formulas.  ``points``
    holds them in that order as integer numerators over ``den``.
    """

    _fields = ("theta", "den", "points")

    def __init__(self, theta: int, den: int, points: tuple[tuple[int, int], ...]):
        vars(self).update(theta=theta, den=den, points=points)

    bottom_lower = _qpoint(0)
    top_lower = _qpoint(1)
    bottom_upper = _qpoint(2)
    top_upper = _qpoint(3)
    cap = _qpoint(4)
    t_lower = property(lambda qp: qp.bottom_lower[0])
    t_upper = property(lambda qp: qp.bottom_upper[0])


def q_points(flag: FlagValuation, d) -> QPoints:
    """Exact evaluation of the breakpoint vertices for a non-minimal valuation,
    over the regime's scale: the constants of a nef class are integers.

    The minimality check validates the valuation and the class; everything
    after it reads them as checked.
    """
    val = flag.base
    d = as_divisor(d)
    if is_minimal(val, d):
        raise MinimalValuation("a minimal valuation has no breakpoint vertices")
    rec = _regime(val, d)
    scale, lower, upper, _ = rec.steps()
    mu = _mu_hat(val, d)
    t_lo, t_hi = _breakpoints(val, rec, mu)
    bot_lo = bot_hi = cap_y = 0
    if flag.is_satellite:
        bot_lo, bot_hi = rec.at_stage(val, flag.eta)
        stage = _stage(val.surface, val.config, flag.eta)
        if npi_excess(stage) < 0:
            raise EtaNotNPI(f"the truncation at E{flag.eta} is not non-positive at infinity")
        cap_y = _mu_hat(stage, d).numerator
    lows = ((t_lo, bot_lo), (t_lo, bot_lo + lower))
    highs = ((t_hi, bot_hi), (t_hi, bot_hi + upper))
    cap = (mu.numerator * scale, cap_y * scale)
    return QPoints(rec.theta, scale, (*lows, *highs, cap))


def newton_okounkov_body(flag: FlagValuation, d) -> Polygon:
    """The Newton-Okounkov polygon of a big class with respect to the flag.

    Minimal valuations, which :func:`q_points` refuses, fill the whole cone
    triangle.  A big class that is not nef scales the body of the section
    class by the coefficient of its positive part.  Otherwise the body is
    the hull of the origin and the points of :func:`q_points`: the boundary
    functions are affine away from the breakpoints, so these are the only
    candidate vertices.  Degenerate coincidences (a vanishing sign
    invariant, points falling on an edge) collapse the hull to a triangle.

    The valuation keeps the last body it was asked for, by flag and class,
    and returns that same polygon when asked again.
    """
    val = flag.base
    d = as_divisor(d)
    key = (flag.eta, d)
    last = val._tables.get("body")
    if last is not None and last[0] == key:
        return last[1]
    if not d.is_big(val.delta):
        _require_npi(val)  # a valuation that is not NPI is refused first
        _require_big(val, d)
    if not d.is_nef():
        scale = _positive_scale(val.delta, d)
        body = newton_okounkov_body(flag, BigDivisor(0, 1)).scaled(scale)
    else:
        try:
            qp = q_points(flag, d)
        except MinimalValuation:
            body = _cone_triangle(flag, _mu_hat(val, d))
        else:
            body = Polygon._hull([(0, 0), *qp.points], qp.den)
    val._tables["body"] = (key, body)
    return body


def sweep_body(flag: FlagValuation, d) -> Polygon:
    """Oracle polygon: the hull of the boundary values at the walls of the
    Zariski chambers of ``D* - t E_r*`` and where the walk ends.

    Both boundary functions are affine on each chamber, and the walk
    certifies every chamber and finds every wall from the decompositions
    alone, so the hull is the body; it reads nothing of the closed form.
    """
    val = flag.base
    d = as_divisor(d)
    _require_npi(val)
    _require_big(val, d)
    return Polygon._hull(*_chamber_walk(flag, d))


class BodyReport(_Record):
    """Outcome of the cross-checks run by :func:`verify_body`."""

    _fields = ("body", "triangle", "sweep", "checks")

    def __init__(
        self, body: Polygon, triangle: Polygon, sweep: Polygon | None, checks: tuple[tuple, ...]
    ):
        vars(self).update(body=body, triangle=triangle, sweep=sweep, checks=checks)

    def passed(self) -> bool:
        return all(status in ("pass", "skipped") for _, status in self.checks)


def verify_body(flag: FlagValuation, d) -> BodyReport:
    """Certify the computed body against every independent oracle.

    Checks, in order: the area accounts for the full volume of the class;
    the polygon equals the chamber-walk hull; it sits inside the
    cone triangle; and on flags whose divisor separates the dual graph the
    exact unimodularity identities between the two value sequences hold.
    The body is the one :func:`newton_okounkov_body` keeps on the
    valuation; the oracle and containment clauses compare integers.
    Raises :class:`VerificationFailed` on the first violated clause.
    """
    val = flag.base
    d = as_divisor(d)
    # The body refuses an invalid valuation or class: the triangle reads them checked.
    body = newton_okounkov_body(flag, d)
    triangle = _cone_triangle(flag, _mu_hat(val, d))
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
        if sweep != body:
            raise VerificationFailed(
                "oracle", f"sweep gave {sweep.vertices}, body is {body.vertices}"
            )
        checks.append(("oracle", "pass"))

    points, den = body._integral
    out = triangle._outside(points, den)
    if out is not None:
        raise VerificationFailed(
            "containment",
            f"{(Fraction(out[0], den), Fraction(out[1], den))} escapes the cone triangle",
        )
    checks.append(("containment", "pass"))

    if flag.is_satellite and precedes(dual_graph(val), val.r, flag.eta):
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
