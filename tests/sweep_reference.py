"""The sampled sweep, kept as the test reference for the chamber walk.

This is the oracle as it was before it walked the Zariski chambers: it
samples ``D* - t E_r*`` at the closed-form breakpoints, at the constant
and at the midpoints between them, decomposes each sample on its own
(:func:`hirzebruch.alpha_beta`) and takes the hull of the boundary values.
It reads the breakpoints from production's closed forms, so it is not
independent of the body it checks; :func:`hirzebruch.sweep_body` must
agree with it on vertices and on refusals.
"""

from __future__ import annotations

from fractions import Fraction

from hirzebruch.okounkov import Polygon
from hirzebruch.seshadri import (
    BigDivisor,
    as_divisor,
    mu_hat,
    _positive_scale,
    _require_big,
    _require_npi,
)
from hirzebruch.zariski import alpha_beta, t_values


def sweep_breakpoints(flag, d) -> list[Fraction]:
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


def sweep_body(flag, d) -> Polygon:
    """Oracle polygon: the hull of the boundary values over the sweep.

    Between breakpoints both boundary functions are affine, so the hull
    over breakpoints and midpoints reconstructs the body exactly; a hidden
    breakpoint would make the comparison with the closed form fail.  Each
    sample is an independent decomposition.
    """
    val = flag.base
    d = as_divisor(d)
    _require_npi(val)
    pts = [(Fraction(0), Fraction(0))]
    for t in sweep_breakpoints(flag, d):
        lo, hi = alpha_beta(flag, d, t)
        pts.append((t, lo))
        pts.append((t, hi))
    return Polygon.from_points(pts)
