"""Zariski decompositions on the blown-up surface.

The closed forms are the production route.  One sign-regime record
(fiber, special section or non-special section) yields, as integers over
one scale, the breakpoints (:func:`t_values`) and, read at stage ``eta``,
the breakpoint vertices of the Newton-Okounkov body; read at the stages
below ``r`` it gives the negative parts at the breakpoints, which the
tests compare with the engine.

One growth step (:func:`_grow`) serves both oracles.  Read just after a
wall ``t`` of the line ``D* - t E_r*``, it grows the support of the
negative part inside the finite list of cone generators until the
remainder is nef just after ``t``, solving the orthogonality conditions
exactly, and drives the chamber walk (:func:`_chamber_walk`) behind the
oracle polygon: between two walls, a Zariski chamber
(Bauer-Kuronya-Szemberg 2004), the negative part and the remainder's
pairings are affine in ``t``, so one solve with two right-hand sides gives
a whole chamber, and nothing of the closed form is read.  The iterative
engine (:func:`zariski_decompose`) is the same step on a line of slope
zero at ``t = 0``: the class alone.
:func:`alpha_beta` decomposes one point of the line, as the tests'
reference for the walk.

Everything runs in integers on the sparse rows of the basis; the walk's
walls are reduced integer pairs, and a ``Fraction`` only prints a refusal.
The generators are strict transforms of a tree of smooth rational curves,
so every support system is a principal submatrix of a forest Gram matrix
with non-negative edges, eliminated leaves first (:func:`_forest_solve`).
The dense ``Fraction`` engine this replaced is the tests' reference.

Every decomposition starts from its forced support (:func:`_forced`), a
subset of the support of the negative part from which the engine reaches
the same decomposition (Bauer, *A simple proof for the existence of
Zariski decompositions on surfaces*, 2009); for ``D* - t E_r`` just after
``t = 0`` it is the whole first chamber ``E_1 ... E_{r-1}``.  On generators
whose distinct members meet non-negatively, every support the iteration
visits stays inside the negative part's, which is negative definite
(Bauer-Kuronya-Szemberg 2004), so a reduced pivot that is not negative
refuses the class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .cluster import DivisorialValuation, FlagValuation, truncation_pairing, _Record
from .errors import InvariantBroken, NegativePartOnEr, NotPseudoeffective
from .lattice import CurveBasis, DivisorClassZ, curve_basis
from .seshadri import (
    BigDivisor,
    as_divisor,
    mu_hat,
    theta,
    _require_nef_big,
    _require_npi,
)


class ZariskiPair(_Record):
    """An exact decomposition ``divisor = positive + negative``.

    The negative part is stored as coefficients on named cone generators,
    in the basis order; the positive part is built from the two on first
    read.  It is nef against the generator list, orthogonal to every
    component and the support Gram matrix is negative definite; these are
    enforced at construction sites.  ``pairings`` are the positive part's
    pairings with every generator, as integers ``values`` over one
    denominator ``denom``: the engine's final remainder.
    """

    _fields = ("divisor", "components", "basis", "pairings")

    def __init__(
        self, divisor: DivisorClassZ, components: tuple[tuple[str, Fraction], ...],
        basis: CurveBasis, pairings: tuple[list[int], int],
    ):
        vars(self).update(divisor=divisor, components=components, basis=basis, pairings=pairings)

    @cached_property
    def positive(self) -> DivisorClassZ:
        positive = self.divisor
        for name, coeff in self.components:
            positive = positive - coeff * self.basis.get(name)
        return positive

    def coefficient(self, name: str) -> Fraction:
        return dict(self.components).get(name, Fraction(0))

    def positive_pairing(self, name: str) -> Fraction:
        """The pairing of the positive part with the named generator."""
        values, denom = self.pairings
        return Fraction(values[self.basis.index[name]], denom)


def _forest_solve(gram, names, support: list[int], *columns: list[int]):
    """Integer solutions ``x / det`` of a negative-definite support system,
    one per right-hand side column, from one elimination: ``(*xs, det)``.

    ``gram`` holds the non-zero Gram entries of each generator by row; on
    the support they must form a forest whose edges are positive, and a
    cycle or a negative edge is refused as a broken invariant.  A walk
    fixes a parent for every vertex.  Leaves first, each vertex ``v``
    carries the integers ``(P, Q, R)`` of its reduced pivot ``P / Q`` and
    reduced right-hand sides ``R / Q``, and is eliminated into its parent
    ``u`` over the edge weight ``w``: ``P_u <- P_u P_v - w^2 Q_v Q_u``,
    ``R_u <- R_u P_v - w R_v Q_u``, ``Q_u <- Q_u P_v``.  So ``P`` is the
    determinant of the subtree and ``Q`` the product of the children's.
    Back substitution divides exactly, since ``det * x`` is integral by
    Cramer's rule.  Every table is a list by support position.

    The support is negative definite exactly when every reduced pivot is
    negative; the first one that is not refuses the class, which the
    engine only asks to solve inside its negative part.
    """
    n = len(support)
    at = {g: j for j, g in enumerate(support)}
    # The roots hang under a vertex ``n`` of pivot 1, whose pivot ends as
    # the product of the roots' subtree determinants.
    parent: list[int | None] = [None] * n
    up = [0] * (n + 1)  # the weight of the edge to the parent, 0 at a root
    order: list[int] = []
    for root in range(n):
        if parent[root] is None:
            parent[root], stack = n, [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for g, w in gram[support[v]].items():
                    u = at.get(g)
                    if u is None or u == v or u == parent[v]:
                        continue
                    if w < 0 or parent[u] is not None:
                        why = f"meet at {w}" if w < 0 else "close a cycle"
                        why = f"{names[support[v]]} and {names[g]} {why}"
                        raise _broken("generator forest", names, support, why)
                    parent[u], up[u] = v, w
                    stack.append(u)
    P, Q = [gram[g].get(g, 0) for g in support] + [1], [1] * (n + 1)
    Rs = [[rhs[g] for g in support] + [0] for rhs in columns]
    for v in reversed(order):
        pv, qv = P[v], Q[v]
        if pv == 0 or (pv > 0) == (qv > 0):
            raise NotPseudoeffective(
                f"{_named(names, support)}: support Gram matrix is not negative "
                f"definite, reduced pivot of {names[support[v]]} is {Fraction(pv, qv)}"
            )
        u, w = parent[v], up[v]
        qu = Q[u]
        P[u] = P[u] * pv - w * w * qv * qu
        for R in Rs:
            R[u] = R[u] * pv - w * R[v] * qu
        Q[u] = qu * pv
    det = P[n]
    for R in Rs:  # in place, parents first; the root vertex ``n`` has weight 0
        for v in order:
            R[v] = (det * R[v] - up[v] * Q[v] * R[parent[v]]) // P[v]
        R.pop()
    return (*Rs, det)


def _forced(gram, rhs: list[int]) -> list[int]:
    """The generators every decomposition of the class has in its support:
    those it meets negatively, then, by a walk over the Gram rows, each
    generator it meets at zero with a positive entry against one found.

    If such a ``C`` were outside the support ``N``, then ``N.C > 0`` and the
    positive part would meet it negatively, ``P.C = D.C - N.C < 0``.  Only
    the signs of ``rhs`` are read.
    """
    forced = [k for k, v in enumerate(rhs) if v < 0]
    seen = set(forced)
    for i in forced:  # breadth first: the list grows while it is read
        for k, w in gram[i].items():
            if w > 0 and rhs[k] == 0 and k not in seen:
                seen.add(k)
                forced.append(k)
    return forced


def _grow(gram, names, columns, scale: int, t: tuple[int, int], chamber):
    """The engine's support growth for ``D + s L`` just after ``s = t``.

    ``columns`` holds the pairings of ``D`` and of ``L`` with every
    generator over ``scale``.  A chamber ``(support, xs, det, rs)`` solves a
    support for both columns, so the negative part and the remainder's
    pairings are ``(xa + s xb) / det`` and ``(ra + s rb) / det``;
    ``chamber`` is the one solved so far.  ``t = p / q`` comes as the pair
    ``(p, q)``, ``q > 0``, and just after it ``v + s w`` has the sign of
    ``v q + w p``, else of ``w``.  The generators the remainder meets
    negatively there join, with those the forced walk (:func:`_forced`)
    reaches over the ones it meets at zero with slope zero.  The enlarged
    support is solved for both columns in one elimination, the remainder's
    pairings follow by linearity over the non-zero Gram entries, and the
    support grows again until the remainder meets no generator negatively
    just after ``t``.  With ``L = 0`` from ``t = 0`` this is
    :func:`zariski_decompose`.

    A class with a decomposition visits only negative-definite supports,
    so one that is not is refused as not pseudoeffective.  A generator the
    walk forced in that is not positive just after ``t`` is a broken
    invariant, not a refusal of the class.
    """
    support, xs, det, rs = chamber
    p, q = t
    inside = set(support)
    signs = [(v * q + w * p or w) * det for v, w in zip(*rs)]
    for k in support:  # the support itself cannot join
        signs[k] = 1
    joining = start = _forced(gram, signs)
    while joining:
        inside.update(joining)
        support = support + joining
        *xs, det = _forest_solve(gram, names, support, *columns)
        rs = ra, rb = [[det * v for v in column] for column in columns]
        for i, x, y in zip(support, *xs):  # both columns in one pass over the rows
            if x:
                for k, g in gram[i].items():
                    ra[k] -= x * g
                    rb[k] -= y * g
            elif y:  # the first chamber's D* column solves to 0
                for k, g in gram[i].items():
                    rb[k] -= y * g
        falling = (k for k, (v, w) in enumerate(zip(ra, rb)) if (v * q + w * p or w) * det < 0)
        joining = [k for k in falling if k not in inside]
    xa, xb = xs
    for j, k in enumerate(start, len(chamber[0])):  # the start joined first
        if signs[k] == 0 and ((at := xa[j] * q + xb[j] * p) or xb[j]) * det <= 0:
            raise _broken("forced support", names, support, f"forced generator {names[k]} "
                          f"ends at {Fraction(at, q * det * scale)}")
    return support, xs, det, rs


def zariski_decompose(d: DivisorClassZ, basis: CurveBasis) -> ZariskiPair:
    """Iterative decomposition over the finite cone-generator list.

    Starting from the forced support, repeatedly solve for the negative
    part orthogonal to the remainder and enlarge the support by every
    generator the remainder still meets negatively: the growth step of
    the chamber walk (:func:`_grow`) on the line ``d + s 0`` at ``s = 0``.
    The support only grows, so the loop stabilizes.  No coefficient goes
    negative: minus the support Gram is an M-matrix, and the forced start
    and each later round's increment solve for right-hand sides ``<= 0``.
    """
    names, gram = basis.names, basis.sparse_gram
    rhs, scale = basis.pairings(d)
    zero = [0] * len(rhs)
    support, (x, _), det, (rest, _) = _grow(
        gram, names, (rhs, zero), scale, (0, 1), ([], [[], []], 1, [rhs, zero])
    )
    chosen = sorted((idx, xi) for idx, xi in zip(support, x) if xi * det > 0)
    components = tuple((names[idx], Fraction(xi, det * scale)) for idx, xi in chosen)
    return ZariskiPair(d, components, basis, (rest, det * scale))


def _named(names, indices) -> str:
    return "support " + ", ".join(names[i] for i in sorted(indices))


def _broken(what: str, names, support, why: str) -> InvariantBroken:
    return InvariantBroken(what, f"{_named(names, support)}: {why}")


class _Regime(NamedTuple):
    """The sign regime behind every breakpoint formula.

    ``theta >= 0`` selects the fiber regime (named curve ``F1``), otherwise
    the special (``M0``) or non-special (``M1``) section regime.  With ``nu``
    the value of a stage curvette and ``c`` that of the germ along the named
    curve's chain ``p_1, ..., p_chain`` under the stage valuation, the lower
    breakpoint gives ``lower * nu`` and the upper one
    ``(upper * nu + sign * theta * c) / denom``.  The named
    curve joins the negative part at the upper breakpoint with coefficient
    ``sign * theta / denom``.
    """

    theta: int
    lower: Fraction
    upper: int
    denom: int
    named: str
    chain: int
    sign: int

    def steps(self) -> tuple[int, int, int, int]:
        """``(scale, lower, upper, twist)``: the least common denominator of
        both formulas and, over it, ``lower``, ``upper / denom`` and
        ``sign * theta / denom``."""
        num, den = self.lower.numerator, self.lower.denominator
        scale = lcm(den, self.denom)
        unit = scale // self.denom
        twist = self.sign * self.theta * unit
        return scale, num * (scale // den), self.upper * unit, twist

    def at_stage(self, val: DivisorialValuation, i: int) -> tuple[int, int]:
        """Values on the stage-``i`` curvette at the lower and upper
        breakpoint, as numerators over the scale of :meth:`steps`.

        Stage ``r`` gives the breakpoints themselves, stage ``i < r`` the
        negative-part coefficient on ``E_i``.  The chain is an initial run
        of free points, so its germ is the curvette at ``p_chain`` and, by
        symmetry of the curvette pairing, ``c`` is entry ``chain`` of the
        stage-``i`` row: no row of the chain's stage is built.
        """
        _, lower, upper, twist = self.steps()
        nu = truncation_pairing(val.config, val.r, i)
        k = self.chain
        c = truncation_pairing(val.config, i, k) if k else 0
        return lower * nu, upper * nu + twist * c


def _regime(val: DivisorialValuation, d: BigDivisor) -> _Regime:
    """The regime record of a nef and big class on an NPI valuation; the
    caller has checked both."""
    a, b, delta = d.a, d.b, val.delta
    phi_f, phi_m = val.phi_f1, val.phi_m
    th = theta(val, d)
    if th >= 0:
        return _Regime(th, Fraction(b, phi_f), b, phi_f, "F1", val.config.n_f1, 1)
    n_m = val.config.n_m
    if val.is_special:
        denom = phi_m + delta * phi_f
        return _Regime(th, Fraction(a, phi_m), a + b * delta, denom, "M0", n_m, -1)
    denom = phi_m - delta * phi_f
    return _Regime(th, Fraction(a + b * delta, phi_m), a, denom, "M1", n_m, -1)


def _breakpoints(val: DivisorialValuation, rec: _Regime, mu: Fraction) -> tuple[int, int]:
    """Both breakpoints as numerators over the regime's scale, certified to
    lie between 0 and the Seshadri-type constant ``mu``."""
    scale = rec.steps()[0]
    lo, hi = rec.at_stage(val, val.r)
    if not (0 <= lo <= hi and hi * mu.denominator <= mu.numerator * scale):
        lo, hi = Fraction(lo, scale), Fraction(hi, scale)
        raise InvariantBroken("breakpoints", f"{lo}, {hi} escape [0, {mu}]")
    return lo, hi


def t_values(val: DivisorialValuation, d) -> tuple[Fraction, Fraction]:
    """The two breakpoints of the negative-part support for this sign regime.

    Both are certified to lie between 0 and the Seshadri-type constant.
    """
    d = as_divisor(d)
    _require_npi(val)
    _require_nef_big(val, d)
    rec = _regime(val, d)
    scale = rec.steps()[0]
    return tuple(Fraction(t, scale) for t in _breakpoints(val, rec, mu_hat(val, d)))


def _swept_class(val: DivisorialValuation, d: BigDivisor, t: Fraction) -> DivisorClassZ:
    """The class ``D* - t E_r*``, built directly from its coordinates, with
    one zero shared by the first ``r - 1`` of them."""
    zero = Fraction(0)
    e = (zero,) * (val.r - 1) + (-t,)
    return DivisorClassZ(val.delta, Fraction(d.a), Fraction(d.b), e)


def alpha_beta(flag: FlagValuation, d, t) -> tuple[Fraction, Fraction]:
    """Lower and upper boundary values of the body above abscissa ``t``.

    Decomposes ``D* - t E_r``; the lower value is the negative-part
    coefficient on the second divisor through the flag point (zero for a
    free flag point), the upper value adds the pairing of the positive part
    with the last exceptional curve, read without building that class.
    """
    val = flag.base
    d = as_divisor(d)
    t = Fraction(t)
    if t < 0:
        raise ValueError("the sweep parameter must be non-negative")
    zp = zariski_decompose(_swept_class(val, d, t), curve_basis(val))
    last = f"E{val.r}"
    if zp.coefficient(last) != 0:
        raise NegativePartOnEr(
            f"E{val.r} entered the negative part at t = {t}; "
            "the position contract is violated"
        )
    alpha = zp.coefficient(f"E{flag.eta}") if flag.is_satellite else Fraction(0)
    beta = alpha + zp.positive_pairing(last)
    return alpha, beta


def _chamber_walk(flag: FlagValuation, d: BigDivisor) -> tuple[list[tuple[int, int]], int]:
    """The boundary points of the body at every wall of the Zariski chambers
    of ``D* - t E_r*`` and at its end, as integer numerators over one
    denominator, each chamber solved once and certified.

    The pairings of every generator are ``a + t b``: on a basis row
    ``(f, m, e)``, ``a = A m + B f + delta B m`` for ``D* = A F* + B M*``
    and ``b`` is the ``E_r*`` entry of ``e``.  From ``t = 0``, each wall a
    reduced pair of integers, the support grows by the engine's rule just
    after each wall (:func:`_grow`).  The chamber that follows is certified by its negative
    pivots, its orthogonality by construction, coefficients ``>= 0`` at both
    ends and a remainder that meets every generator outside the support
    non-negatively up to the next wall: the least ``s > t`` at which a
    decreasing outside pairing reaches 0 (Bauer-Kuronya-Szemberg 2004).  So
    the boundary values, read from the coefficient on ``E_eta`` and the
    pairing with ``E_r``, are affine on each chamber.  The walk ends where
    ``P(s)^2 = D*^2 - s^2 - N(s).(D* - s E_r*)``, an integer quadratic over
    ``det``, reaches 0; that root is rational.  The body is a triangle or a
    quadrilateral, so the support changes at two walls at most: a fourth
    chamber is a broken invariant.
    """
    val = flag.base
    basis = curve_basis(val)
    names, gram, rows = basis.names, basis.sparse_gram, basis.rows
    delta, j = val.delta, val.r - 1
    a = [d.a * m + d.b * (f + delta * m) for f, m, _ in rows]
    b = [e.get(j, 0) for _, _, e in rows]
    last = basis.index[f"E{val.r}"]
    eta = basis.index[f"E{flag.eta}"] if flag.is_satellite else None
    t = p, q = 0, 1
    chamber = ([], [[], []], 1, [a, b])
    points = [(0, 0, 1)]  # the origin; each point is (x, y, denominator)
    for _ in range(3):
        chamber = _grow(gram, names, (a, b), 1, t, chamber)
        support, (xa, xb), det, (ra, rb) = chamber
        if last in support:
            raise NegativePartOnEr(
                f"E{val.r} entered the negative part at t = {Fraction(p, q)}; "
                "the position contract is violated"
            )
        # The least root ``-v / w`` of a falling pairing, over ``m > 0``.
        flip = det < 0
        n = m = None
        for v, w in zip(ra, rb):
            if w and (w < 0) != flip and (m is None or (v * m + n * w) * w > 0):
                n, m = (-v, w) if w > 0 else (v, -w)
        if m is not None and n * q <= p * m:
            why = "the remainder meets a generator negatively just after t = "
            raise _broken("chamber", names, support, why + str(Fraction(p, q)))
        # det * P(s)^2 = c2 s^2 + c1 s + c0 on this chamber.
        c2, c1, c0 = -det, 0, det * d.b * (2 * d.a + delta * d.b)  # det * D*^2
        for i, x, y in zip(support, xa, xb):
            c2, c1, c0 = c2 - y * b[i], c1 - x * b[i] - y * a[i], c0 - x * a[i]
        done = m is None or (c2 * n * n + c1 * n * m + c0 * m * m) * det <= 0
        end = _least_root_after(c2, c1, c0, t) if done else (n // (g := gcd(n, m)), m // g)
        if end is None:
            why = f"P^2 = ({c2}) s^2 + ({c1}) s + ({c0}) has no rational root after t = "
            raise _broken("chamber", names, support, why + str(Fraction(p, q)))
        k = support.index(eta) if eta in support else None
        for sp, sq in (t, end):
            for i, x, y in zip(support, xa, xb):
                if (c := x * sq + y * sp) and (c < 0) != flip:
                    raise _broken("chamber", names, support, f"coefficient of {names[i]} is "
                                  f"{Fraction(c, sq * det)} at t = {Fraction(sp, sq)}")
            alpha = xa[k] * sq + xb[k] * sp if k is not None else 0
            beta = alpha + ra[last] * sq + rb[last] * sp
            points += [(sp * det, alpha, sq * det), (sp * det, beta, sq * det)]
        if done:
            den = lcm(*(c for _, _, c in points))
            return [(x * (den // c), y * (den // c)) for x, y, c in points], den
        t = p, q = end
    raise _broken("chamber", names, support, f"a fourth chamber starts at t = {Fraction(p, q)}")


def _least_root_after(c2: int, c1: int, c0: int, t: tuple[int, int]) -> tuple[int, int] | None:
    """The least rational root ``s > t`` of ``c2 s^2 + c1 s + c0``, if any,
    as a reduced pair ``(p, q)`` with ``q > 0``; ``t`` is such a pair too."""
    disc = c1 * c1 - 4 * c2 * c0
    root = isqrt(disc) if disc >= 0 else -1
    if c2 and root * root == disc:
        nums, den = (-c1 - root, -c1 + root), 2 * c2
    elif c1 and not c2:
        nums, den = (-c0,), c1
    else:
        return None
    if den < 0:
        nums, den = [-n for n in nums], -den
    p, q = t
    n = min((n for n in nums if n * q > p * den), default=None)
    return None if n is None else (n // (g := gcd(n, den)), den // g)
