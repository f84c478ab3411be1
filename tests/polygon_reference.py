"""The ``Fraction`` polygon geometry, kept as the test reference.

This is ``okounkov.Polygon`` as it was before its geometry moved onto one
integer denominator: Andrew's monotone chain with a ``Fraction`` cross
product, the shoelace sum over ``Fraction`` vertices and the edge turn test
for containment.  The production polygon must agree with it on vertices,
twice the area and containment.
"""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> tuple[Point, ...]:
    """Normalized vertices of the hull, as ``Polygon.from_points`` builds them."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return tuple(sorted(hull))
    return tuple(hull)


def area2(v: tuple[Point, ...]) -> Fraction:
    total = Fraction(0)
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        total += x0 * y1 - x1 * y0
    return total


def contains(v: tuple[Point, ...], point: Point) -> bool:
    if len(v) < 3:
        return point in v
    return all(
        _cross(v[i], v[(i + 1) % len(v)], point) >= 0 for i in range(len(v))
    )
