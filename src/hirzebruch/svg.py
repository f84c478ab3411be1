"""Minimal SVG rendering of a body inside its cone triangle.

The data stays exact everywhere else; floats appear only here, formatted
with a fixed precision so identical inputs give byte-identical files.
"""

from __future__ import annotations

from .errors import NumberTooLarge
from .okounkov import Polygon

_WIDTH = 640.0
_HEIGHT = 440.0
_MARGIN = 40.0


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _floats(polygon: Polygon) -> list[tuple[float, float]]:
    try:
        return [(float(x), float(y)) for x, y in polygon.vertices]
    except OverflowError:
        raise NumberTooLarge("too large to plot: a vertex is past the float range") from None


def render_svg(triangle: Polygon, body: Polygon) -> str:
    corners, vertices = _floats(triangle), _floats(body)
    xs = [x for x, _ in corners]
    ys = [y for _, y in corners]
    x0, x1 = min(xs + [0.0]), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    sx = (_WIDTH - 2 * _MARGIN) / span_x
    sy = (_HEIGHT - 2 * _MARGIN) / span_y

    def to_px(p):
        x, y = p
        return (
            _MARGIN + (x - x0) * sx,
            _HEIGHT - _MARGIN - (y - y0) * sy,
        )

    def points_attr(points):
        return " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, points))

    origin = to_px((0, 0))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'  <line x1="{_fmt(_MARGIN / 2)}" y1="{_fmt(origin[1])}" '
        f'x2="{_fmt(_WIDTH - _MARGIN / 2)}" y2="{_fmt(origin[1])}" '
        'stroke="#404040" stroke-width="1"/>',
        f'  <line x1="{_fmt(origin[0])}" y1="{_fmt(_MARGIN / 2)}" '
        f'x2="{_fmt(origin[0])}" y2="{_fmt(_HEIGHT - _MARGIN / 2)}" '
        'stroke="#404040" stroke-width="1"/>',
        f'  <polygon points="{points_attr(corners)}" fill="#e3e3e3" '
        'stroke="#b5b5b5" stroke-width="1.5"/>',
        f'  <polygon points="{points_attr(vertices)}" fill="#8a8a8a" '
        'fill-opacity="0.75" stroke="#555555" stroke-width="1.5"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
