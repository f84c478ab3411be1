import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch import (
    BigDivisor,
    Polygon,
    Surface,
    build_configuration,
    cone_rays,
    cone_triangle,
    divisorial_valuation,
    dual_graph,
    flag_valuation,
    mu_hat,
    newton_okounkov_body,
    precedes,
    q_points,
    sweep_body,
    theta,
    verify_body,
)
from hirzebruch.errors import MinimalValuation, NotBig, VerificationFailed
from hirzebruch.cluster import truncation_pairing
from hirzebruch.okounkov import _cross

from hirzebruch import caseio, okounkov

import polygon_reference

from conftest import (
    CASES,
    ladder_configuration,
    minimal_four_point_valuation,
    nonspecial_example_valuation,
    random_valuation,
    special_example_valuation,
)


def fr(a, b=1):
    return Fraction(a, b)


def order_valuation():
    surface = Surface(0)
    config = build_configuration(surface, [{"on_f1": True, "on_m": True}])
    return divisorial_valuation(surface, config)


def cusp_on_f2():
    surface = Surface(2, "special")
    config = build_configuration(
        surface,
        [{"on_f1": True, "on_m": True}, {}, {"extra_proximity": 1}],
    )
    return divisorial_valuation(surface, config)


# -------------------------------------------------------------------- polygons


def test_polygon_normalization_dedups_and_orders():
    poly = Polygon.from_points([(0, 0), (2, 0), (2, 2), (1, 1), (0, 0), (2, 1)])
    assert poly.vertices == ((fr(0), fr(0)), (fr(2), fr(0)), (fr(2), fr(2)))
    assert poly.area2 == 4  # twice the Euclidean area


def test_polygon_contains():
    tri = Polygon.from_points([(0, 0), (4, 0), (4, 4)])
    assert tri.contains((fr(2), fr(1)))
    assert tri.contains((fr(4), fr(4)))
    assert not tri.contains((fr(1), fr(2)))
    # Boundary points, and points just outside, with large coprime denominators.
    corner = (fr(10**9 + 7, 999983), fr(2**61 - 1, 1000003))
    tri = Polygon.from_points([(0, 0), (corner[0], 0), corner])
    s = fr(123456791, 987654323)  # a point of the hypotenuse, strictly inside it
    on_hypotenuse = (s * corner[0], s * corner[1])
    on_base = (s * corner[0], fr(0))
    on_side = (corner[0], s * corner[1])
    for p in (on_hypotenuse, on_base, on_side, corner):
        assert tri.contains(p)
        assert polygon_reference.contains(tri.vertices, p)
    nudge = fr(1, 10**18 + 9)
    for p in (
        (on_hypotenuse[0], on_hypotenuse[1] + nudge),
        (on_base[0], -nudge),
        (corner[0] + nudge, on_side[1]),
    ):
        assert not tri.contains(p)
        assert not polygon_reference.contains(tri.vertices, p)


_rational = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
_unit = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)).filter(
    lambda s: s <= 1
)


@st.composite
def _point_sets(draw):
    """Rational point lists of 1-10 points with mixed denominators: free,
    all on one line, or with extra points on the edges of their hull; plus
    repeated points, in any order."""
    pts = draw(st.lists(st.tuples(_rational, _rational), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["free", "collinear", "edge"]))
    if kind == "collinear":
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        steps = draw(st.lists(_rational, min_size=1, max_size=8))
        pts = [(x0 + s * (x1 - x0), y0 + s * (y1 - y0)) for s in steps]
    elif kind == "edge":
        v = polygon_reference.hull(pts)
        for a, b in zip(v, v[1:] + v[:1]):
            s = draw(_unit)
            pts.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(points=_point_sets(), queries=st.lists(st.tuples(_rational, _rational), max_size=4))
def test_polygon_geometry_equals_fraction_reference(points, queries):
    poly = Polygon.from_points(points)
    want = polygon_reference.hull(points)
    assert poly.vertices == want
    assert poly.area2 == polygon_reference.area2(want)
    edge_points = [
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(want, want[1:] + want[:1])
    ]
    for q in (*want, *edge_points, *points, *queries):
        assert poly.contains(q) == polygon_reference.contains(want, q)


_coordinate = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=12))
def test_polygon_normalization_is_idempotent(points):
    poly = Polygon.from_points(points)
    assert Polygon.from_points(poly.vertices) == poly


# ------------------------------------------------------------------- cone rays


def test_cone_rays_free_single_point():
    flag = flag_valuation(order_valuation(), None)
    assert cone_rays(flag) == ((1, 0), (1, 1))


def test_cone_rays_satellite_shipped_example():
    val = special_example_valuation()
    rays = cone_rays(flag_valuation(val, 8))
    assert set(rays) == {(4, 1), (153, 38)}


def test_cone_rays_free_on_shipped_base():
    val = special_example_valuation()
    assert cone_rays(flag_valuation(val, None)) == ((1, 0), (612, 1))


def test_cone_ray_gap_is_reciprocal_volume(corpus):
    # unimodularity of the value pairs: the slope gap is 1/beta_bar[-1]
    for val, flag, _ in corpus[:70]:
        (x0, y0), (x1, y1) = cone_rays(flag)
        gap = abs(Fraction(y1, x1) - Fraction(y0, x0))
        assert gap == Fraction(1, val.last_contact)


def fraction_cone_rays(flag):
    """Reference for :func:`cone_rays`: one pairing call per stage and
    ``Fraction`` slope keys, the first extreme pair kept on ties."""
    val = flag.base
    if not flag.is_satellite:
        return (1, 0), (val.last_contact, 1)
    pairs = [
        (truncation_pairing(val.config, val.r, i), truncation_pairing(val.config, flag.eta, i))
        for i in range(1, val.r + 1)
    ]

    def primitive(p):
        g = gcd(p[0], p[1])
        return (p[0] // g, p[1] // g)

    low = min(pairs, key=lambda p: Fraction(p[1], p[0]))
    high = max(pairs, key=lambda p: Fraction(p[1], p[0]))
    return primitive(low), primitive(high)


def satellite_flags(val):
    return [
        flag_valuation(val, eta)
        for eta in sorted({val.r - 1, val.config.extra(val.r)} - {None, 0})
    ]


def test_cone_rays_match_fraction_reference_on_corpus(corpus):
    checked = 0
    for val in dict.fromkeys(val for val, _, _ in corpus):
        for flag in [flag_valuation(val, None), *satellite_flags(val)]:
            assert cone_rays(flag) == fraction_cone_rays(flag)
            checked += flag.is_satellite
    assert checked >= 50


@pytest.mark.parametrize("r", [17, 92, 212])
@pytest.mark.parametrize("family", ["tail", "block"])
def test_cone_rays_match_fraction_reference_on_ladder(family, r):
    val = divisorial_valuation(Surface(2, "special"), ladder_configuration(family, r))
    for flag in satellite_flags(val):
        assert cone_rays(flag) == fraction_cone_rays(flag)


# --------------------------------------------------------------- cone triangle


def test_cone_triangle_satellite_shipped_example():
    val = special_example_valuation()
    tri = cone_triangle(flag_valuation(val, 8), (1, 2))
    assert tri.vertices == (
        (fr(0), fr(0)),
        (fr(156), fr(1976, 51)),
        (fr(156), fr(39)),
    )


def test_cone_triangle_free_minimal_example():
    val = minimal_four_point_valuation()
    tri = cone_triangle(flag_valuation(val, None), (2, 1))
    assert tri.vertices == ((fr(0), fr(0)), (fr(4), fr(0)), (fr(4), fr(1)))


def test_cone_triangle_area(corpus):
    for val, flag, d in corpus[:40]:
        mu = mu_hat(val, d)
        assert cone_triangle(flag, d).area2 == Fraction(mu * mu, val.last_contact)


# ---------------------------------------------------------- breakpoint points


def test_q_points_special_example_example():
    val = special_example_valuation()
    qp = q_points(flag_valuation(val, 8), (1, 2))
    assert qp.theta == -36
    assert qp.bottom_lower == (fr(612, 28), fr(152, 28))
    assert qp.bottom_upper == (fr(4068, 68), fr(1012, 68))
    assert qp.top_lower == (fr(612, 28), fr(152, 28) + fr(1, 28))
    assert qp.top_upper == (fr(4068, 68), fr(1012, 68) + fr(5, 68))
    assert qp.cap == (fr(156), fr(39))


def test_q_points_nonspecial_example_example():
    val = nonspecial_example_valuation()
    qp = q_points(flag_valuation(val, 9), (2, 5))
    assert qp.theta == -45
    assert qp.bottom_lower == (fr(9432, 45), fr(3132, 45))
    assert qp.bottom_upper == (fr(3597, 15), fr(1197, 15))
    assert qp.cap == (fr(255), fr(85))


def test_q_points_rejects_minimal_valuations():
    val = minimal_four_point_valuation()
    with pytest.raises(MinimalValuation):
        q_points(flag_valuation(val, None), (2, 1))


def test_q_points_collapse_when_theta_vanishes():
    val = special_example_valuation()
    qp = q_points(flag_valuation(val, 8), (7, 5))
    assert qp.theta == 0
    assert qp.bottom_lower == qp.bottom_upper
    assert qp.top_lower == qp.top_upper


# ----------------------------------------------------------------------- body


def test_body_special_example_example():
    val = special_example_valuation()
    body = newton_okounkov_body(flag_valuation(val, 8), (1, 2))
    assert body.vertices == (
        (fr(0), fr(0)),
        (fr(612, 28), fr(152, 28)),
        (fr(4068, 68), fr(1012, 68)),
        (fr(156), fr(39)),
    )


def test_body_nonspecial_example_example():
    val = nonspecial_example_valuation()
    body = newton_okounkov_body(flag_valuation(val, 9), (2, 5))
    assert body.vertices == (
        (fr(0), fr(0)),
        (fr(9432, 45), fr(3132, 45)),
        (fr(3597, 15), fr(1197, 15)),
        (fr(255), fr(85)),
    )


def test_body_minimal_example_is_the_cone_triangle():
    val = minimal_four_point_valuation()
    flag = flag_valuation(val, None)
    body = newton_okounkov_body(flag, (2, 1))
    assert body.vertices == ((fr(0), fr(0)), (fr(4), fr(0)), (fr(4), fr(1)))
    assert body == sweep_body(flag, (2, 1))


def test_body_triangle_when_theta_vanishes():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    body = newton_okounkov_body(flag, (7, 5))
    assert len(body.vertices) == 3
    assert body == sweep_body(flag, (7, 5))


def test_body_scales_with_the_class():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    body = newton_okounkov_body(flag, (1, 2))
    tripled = newton_okounkov_body(flag, (3, 6))
    assert tripled == body.scaled(3)


def test_body_requires_big_class():
    val = special_example_valuation()
    with pytest.raises(NotBig):
        newton_okounkov_body(flag_valuation(val, 8), (-4, 2))


def test_body_big_not_nef_scales_the_section_body():
    val = nonspecial_example_valuation()
    flag = flag_valuation(val, 9)
    body = newton_okounkov_body(flag, (-1, 1))
    section_body = newton_okounkov_body(flag, (0, 1))
    assert body == section_body.scaled(Fraction(1, 2))
    # honest oracle on the non-nef class itself
    assert body == sweep_body(flag, (-1, 1))


def test_upper_vertices_used_when_last_divisor_separates():
    # the last vertex lies on the dual-graph path to the flag divisor here
    val = cusp_on_f2()
    flag = flag_valuation(val, 2)
    graph = dual_graph(val)
    assert precedes(graph, val.r, 2)
    d = BigDivisor(1, 1)
    qp = q_points(flag, d)
    body = newton_okounkov_body(flag, d)
    assert qp.top_lower in body.vertices
    assert body == sweep_body(flag, d)


# --------------------------------------------------------------- verification


def test_verify_shipped_examples():
    report = verify_body(flag_valuation(special_example_valuation(), 8), (1, 2))
    assert report.passed()
    assert dict(report.checks)["oracle"] == "pass"
    report = verify_body(flag_valuation(nonspecial_example_valuation(), 9), (2, 5))
    assert report.passed()
    assert report.body.area2 == 2 * 2 * 5 + 25 * 2


def test_verified_body_payload_builds_the_body_once(monkeypatch):
    # With verification on, the payload takes body and cone triangle from
    # the report; its keys are those of the plain payload plus two, in order.
    case = caseio.load_case(CASES / "special_f2.json")
    plain = caseio.body_payload(case)[0]
    calls = []
    build = okounkov.newton_okounkov_body

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(okounkov, "newton_okounkov_body", counting)
    monkeypatch.setattr(caseio, "newton_okounkov_body", counting)
    payload, body, triangle, report = caseio.body_payload(
        case, verify=True, oracle=True
    )
    assert len(calls) == 1
    assert (body, triangle) == (report.body, report.triangle)
    assert list(payload) == [*plain, "oracle_vertices", "verification"]
    assert {k: payload[k] for k in plain} == plain


def test_verify_minimal_example():
    report = verify_body(flag_valuation(minimal_four_point_valuation(), None), (2, 1))
    assert report.passed()
    assert dict(report.checks)["unimodularity"] == "skipped"


def test_verify_unimodularity_clause_runs():
    val = cusp_on_f2()
    report = verify_body(flag_valuation(val, 2), (1, 1))
    assert dict(report.checks)["unimodularity"] == "pass"


def test_verify_catches_area_mismatch(monkeypatch):
    import hirzebruch.okounkov as ok

    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    real = ok.newton_okounkov_body

    def broken(f, d):
        poly = real(f, d)
        return Polygon(poly.vertices[:-1] + ((fr(160), fr(40)),))

    monkeypatch.setattr(ok, "newton_okounkov_body", broken)
    with pytest.raises(VerificationFailed):
        ok.verify_body(flag, (1, 2))


# ------------------------------------------------------------------ properties


def test_shape_matches_sign_predicate_on_fixed_cases():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    for d, expected in (((1, 2), 4), ((7, 5), 3), ((0, 1), 3), ((10, 1), 4)):
        body = newton_okounkov_body(flag, d)
        a = d[0]
        predicted = 4 if a != 0 and theta(val, d) != 0 else 3
        assert len(body.vertices) == predicted == expected


def test_unlisted_points_are_collinear_with_the_cap():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    qp = q_points(flag, (1, 2))
    origin = (fr(0), fr(0))
    # the flag divisor does not separate here, so the upper points are unlisted
    assert _cross(origin, qp.cap, qp.top_lower) == 0
    assert _cross(origin, qp.cap, qp.top_upper) == 0


def test_mixed_vertex_counterexample():
    """A satellite flag where one upper and one lower breakpoint point are
    vertices simultaneously.

    Two points on the second-ruling section of the delta=0 surface, flag at
    the intersection of the two exceptional curves, class 2F + 18M.  The
    section cut out by the square of the fiber coordinate times a generic
    curve in |18M| has value pair (2, 2), which lies strictly above the
    chord from the origin to the cap; so the upper point at the first
    breakpoint is a genuine vertex even though the lower points are the
    collinear ones there.
    """
    surface = Surface(0)
    config = build_configuration(
        surface,
        [{"on_f1": True, "on_m": True}, {"on_m": True}],
    )
    val = divisorial_valuation(surface, config)
    flag = flag_valuation(val, 1)
    # the section chain runs past E1, outside the collinearity hypothesis
    assert not _conforming_satellite(val, flag)
    d = BigDivisor(2, 18)
    qp = q_points(flag, d)
    assert qp.bottom_lower == (fr(2), fr(1))
    assert qp.top_lower == (fr(2), fr(2))
    assert qp.bottom_upper == (fr(36), fr(18))
    assert qp.cap == (fr(38), fr(20))
    body = newton_okounkov_body(flag, d)
    assert body.vertices == (
        (fr(0), fr(0)),
        (fr(36), fr(18)),
        (fr(38), fr(20)),
        (fr(2), fr(2)),
    )
    assert body == sweep_body(flag, d)
    assert body.area2 == 2 * 2 * 18  # the full volume; pure selections lose area
    # both one lower and one upper point survive as vertices
    assert qp.bottom_upper in body.vertices and qp.top_lower in body.vertices


def _conforming_satellite(val, flag):
    """Flags for which the proportionality behind the collinearity claim holds:
    every incidence-chain point is visible at the flag divisor and the later
    points funnel through it.

    The hypothesis of acceptance criterion 9
    (``test_acceptance.test_criterion_09_collinearity``) and of
    ``test_collinearity_holds_on_conforming_flags``.
    """
    if not flag.is_satellite:
        return True
    chains_end = max(
        max(val.config.f1_chain, default=1), max(val.config.m_chain, default=1)
    )
    if chains_end > flag.eta:
        return False
    for j in range(flag.eta + 1, val.r + 1):
        extra = val.config.extra(j)
        if extra is not None and extra < flag.eta:
            return False
    return True


def _listed_and_unlisted(val, flag, qp):
    """The breakpoint points the vertex-selection rule keeps, and the two it
    leaves out (claimed collinear with the origin and the cap).

    The lower points are kept when the flag divisor separates, that is on a
    satellite flag whose ``E_eta`` does not precede ``E_r``; otherwise the
    upper ones.  Shared by criterion 9 and
    ``test_collinearity_holds_on_conforming_flags``.
    """
    lower = (qp.bottom_lower, qp.bottom_upper)
    upper = (qp.top_lower, qp.top_upper)
    if flag.is_satellite and not precedes(dual_graph(val), val.r, flag.eta):
        return lower, upper
    return upper, lower


def test_collinearity_holds_on_conforming_flags(corpus):
    origin = (fr(0), fr(0))
    checked = 0
    for val, flag, d in corpus:
        if not _conforming_satellite(val, flag):
            continue
        try:
            qp = q_points(flag, d)
        except MinimalValuation:
            continue
        _, unlisted = _listed_and_unlisted(val, flag, qp)
        for p in unlisted:
            assert _cross(origin, qp.cap, p) == 0
        checked += 1
    assert checked >= 150


def test_random_minimal_valuations_fill_the_triangle():
    rng = random.Random(41)
    found = 0
    for _ in range(300):
        val = random_valuation(rng, r_max=6, max_total=400)
        if not val.is_special or val.phi_f1 == 0:
            continue
        quad = 2 * val.phi_m * val.phi_f1 + val.delta * val.phi_f1**2
        if quad != val.last_contact:
            continue
        # pick a class aligned with the section/fiber ratio
        a, b = val.phi_m, val.phi_f1
        if a == 0 or not BigDivisor(a, b).is_big(val.delta):
            continue
        flag = flag_valuation(val, None)
        body = newton_okounkov_body(flag, (a, b))
        assert body == cone_triangle(flag, (a, b))
        assert body == sweep_body(flag, (a, b))
        found += 1
        if found >= 3:
            break
    assert found >= 1
