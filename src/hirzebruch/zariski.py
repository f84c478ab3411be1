"""Zariski decompositions on the blown-up surface.

The closed forms are the production route.  One sign-regime record
(fiber, special section or non-special section) yields the breakpoints
(:func:`t_values`) and, read at stage ``eta``, the breakpoint vertices of
the Newton-Okounkov body; read at the stages below ``r`` it gives the
negative parts at the breakpoints, which the tests compare with the
engine.  The iterative engine (:func:`zariski_decompose`)
grows the support of the negative part inside the finite list of cone
generators until the remainder is nef, solving the orthogonality conditions
exactly at each step; it and the sweep built on it (:func:`alpha_beta`) are
the independent oracles that the closed forms are checked against.

The engine and the sweep run in integers from input to output, on the
sparse integer rows of the basis.  The generators are strict transforms of
a tree of smooth rational curves, so every support system is a principal
submatrix of a forest Gram matrix with non-negative edges; each round
solves it from scratch by leaf-first elimination (:func:`_forest_solve`).
The positive class is built only when a
caller reads it: every decomposition carries the engine's final remainder
pairings, and the sweep reads the pairing of the positive part with
``E_r`` from them.
The dense ``Fraction`` engine it replaced is kept in the tests as the
reference.

Every decomposition starts from its forced support (:func:`_forced`), a
subset of the support of the negative part, from which the engine reaches
the same decomposition (Bauer, *A simple proof for the existence of
Zariski decompositions on surfaces*, 2009).  For ``D* - t E_r`` with
``t > 0`` it is ``E_1 ... E_{r-1}``, the whole first chamber of the sweep.
On generators whose distinct members meet non-negatively, the same proof
keeps every support the iteration visits inside the support of the
negative part, which is negative definite (Bauer-Kuronya-Szemberg 2004).
So the engine solves only negative-definite supports, and the first
reduced pivot that is not negative refuses the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cluster import (
    DivisorialValuation,
    FlagValuation,
    truncation_pairing,
)
from .errors import (
    InvariantBroken,
    NegativePartOnEr,
    NotPseudoeffective,
)
from .lattice import (
    CurveBasis,
    DivisorClassZ,
    curve_basis,
)
from .seshadri import (
    BigDivisor,
    as_divisor,
    mu_hat,
    theta,
    _require_nef_big,
    _require_npi,
)


@dataclass(frozen=True)
class ZariskiPair:
    """An exact decomposition ``divisor = positive + negative``.

    The negative part is stored as coefficients on named cone generators,
    in the basis order; the positive part is built from the two on first
    read.  It is nef against the generator list, orthogonal to every
    component and the support Gram matrix is negative definite; these are
    enforced at construction sites.  ``pairings`` are the positive part's
    pairings with every generator, as integers ``values`` over one
    denominator ``denom``: the engine's final remainder.
    """

    divisor: DivisorClassZ
    components: tuple[tuple[str, Fraction], ...]
    basis: CurveBasis
    pairings: tuple[list[int], int]

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


def _forest_solve(
    gram, names, support: list[int], rhs: list[int]
) -> tuple[list[int], int]:
    """Integer solution ``x / det`` of a negative-definite support system.

    ``gram`` holds the non-zero Gram entries of each generator by row; on
    the support they must form a forest whose edges are positive, and a
    cycle or a negative edge is refused as a broken invariant.  A walk
    fixes a parent for every vertex.  Leaves first, each vertex ``v``
    carries the integers ``(P, Q, R)`` of its reduced pivot ``P / Q`` and
    reduced right-hand side ``R / Q``, and is eliminated into its parent
    ``u`` over the edge weight ``w``: ``P_u <- P_u P_v - w^2 Q_v Q_u``,
    ``R_u <- R_u P_v - w R_v Q_u``, ``Q_u <- Q_u P_v``.  So ``P`` is the
    determinant of the subtree and ``Q`` the product of the children's.
    Back substitution divides exactly, since ``det * x`` is integral by
    Cramer's rule.

    The support is negative definite exactly when every reduced pivot is
    negative; the first one that is not refuses the class, which the
    engine only asks to solve inside its negative part.
    """
    inside = set(support)
    parent: dict[int, int | None] = {}
    up: dict[int, int] = {}  # the weight of the edge to the parent, 0 at a root
    order: list[int] = []
    for root in support:
        if root in parent:
            continue
        parent[root], up[root] = None, 0
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for g, w in gram[v].items():
                if g == v or g == parent[v] or g not in inside:
                    continue
                if w < 0 or g in parent:
                    why = f"meet at {w}" if w < 0 else "close a cycle"
                    raise InvariantBroken(
                        "generator forest",
                        f"{_named(names, support)}: {names[v]} and {names[g]} {why}",
                    )
                parent[g], up[g] = v, w
                stack.append(g)
    # The roots hang under a vertex ``None`` of pivot 1, whose pivot ends as
    # the product of the roots' subtree determinants.
    P = {g: gram[g].get(g, 0) for g in support}
    Q = dict.fromkeys(support, 1)
    R = {g: rhs[g] for g in support}
    P[None], Q[None], R[None] = 1, 1, 0
    for v in reversed(order):
        if P[v] == 0 or (P[v] > 0) == (Q[v] > 0):
            raise NotPseudoeffective(
                f"{_named(names, support)}: support Gram matrix is not negative "
                f"definite, reduced pivot of {names[v]} is {Fraction(P[v], Q[v])}"
            )
        u = parent[v]
        P[u] = P[u] * P[v] - up[v] * up[v] * Q[v] * Q[u]
        R[u] = R[u] * P[v] - up[v] * R[v] * Q[u]
        Q[u] *= P[v]
    det = P[None]
    x = {None: 0}
    for v in order:
        x[v] = (det * R[v] - up[v] * Q[v] * x[parent[v]]) // P[v]
    return [x[g] for g in support], det


def _forced(gram, rhs: list[int]) -> list[int]:
    """The generators every decomposition of the class has in its support:
    those it meets negatively, then, by a walk over the Gram rows, each
    generator it meets at zero with a positive entry against one found.

    If such a ``C`` were outside the support ``N``, then ``N.C > 0`` and the
    positive part would meet it negatively, ``P.C = D.C - N.C < 0``.
    """
    forced = [k for k, v in enumerate(rhs) if v < 0]
    seen = set(forced)
    for i in forced:  # breadth first: the list grows while it is read
        for k, w in gram[i].items():
            if w > 0 and rhs[k] == 0 and k not in seen:
                seen.add(k)
                forced.append(k)
    return forced


def zariski_decompose(d: DivisorClassZ, basis: CurveBasis) -> ZariskiPair:
    """Iterative decomposition over the finite cone-generator list.

    Starting from the forced support, repeatedly solve for the negative
    part orthogonal to the remainder and enlarge the support by every
    generator the remainder still meets negatively.  The support only
    grows, so the loop stabilizes.  A class with a decomposition visits
    only supports inside its negative part (Bauer 2009), which are
    negative definite (Bauer-Kuronya-Szemberg 2004); so a support that is
    not means the class is not pseudoeffective.  No coefficient goes
    negative: minus the support Gram is an M-matrix, and the forced start
    and each later round's increment solve for right-hand sides ``<= 0``.

    The pairings of ``d`` with the generators are integers over one
    scale, and those of the remainder follow from them by linearity over
    the non-zero Gram entries.

    A generator the walk forced in that ends without a positive coefficient
    is a broken invariant, not a refusal of ``d``.
    """
    names, gram = basis.names, basis.sparse_gram
    rhs, scale = basis.pairings(d)
    # The remainder's pairings are ``rest[k] / (det * scale)``.
    support: list[int] = []
    x: list[int] = []
    det = 1
    rest = rhs
    joining = start = _forced(gram, rhs)
    while joining:
        support += joining
        x, det = _forest_solve(gram, names, support, rhs)
        rest = [det * v for v in rhs]
        for i, xi in zip(support, x):
            for k, g in gram[i].items():
                rest[k] -= xi * g
        inside = set(support)
        joining = [k for k, v in enumerate(rest) if k not in inside and v * det < 0]
    coeffs = [Fraction(xi, det * scale) for xi in x]
    chosen = sorted((idx, c) for idx, c in zip(support, coeffs) if c > 0)
    for idx, c in zip(start, coeffs):
        if rhs[idx] == 0 and c <= 0:
            raise InvariantBroken(
                "forced support",
                f"{_named(names, support)}: forced generator {names[idx]} ends at {c}",
            )
    components = tuple((names[idx], c) for idx, c in chosen)
    return ZariskiPair(d, components, basis, (rest, det * scale))


def _named(names, indices) -> str:
    return "support " + ", ".join(names[i] for i in sorted(indices))


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

    def at_stage(self, val: DivisorialValuation, i: int) -> tuple[Fraction, Fraction]:
        """Values on the stage-``i`` curvette at the lower and upper breakpoint.

        Stage ``r`` gives the breakpoints themselves, stage ``i < r`` the
        negative-part coefficient on ``E_i``.  The chain is an initial run
        of free points, so its germ is the curvette at ``p_chain`` and,
        by symmetry of the curvette pairing, ``c`` is entry ``i`` of that
        curvette's row.
        """
        nu = truncation_pairing(val.config, val.r, i)
        k = self.chain
        c = truncation_pairing(val.config, k, i) if k else 0
        return (
            self.lower * nu,
            Fraction(self.upper * nu + self.sign * self.theta * c, self.denom),
        )


def _regime(val: DivisorialValuation, d: BigDivisor) -> _Regime:
    """The regime record of a nef and big class on an NPI valuation."""
    _require_npi(val)
    _require_nef_big(val, d)
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


def t_values(val: DivisorialValuation, d) -> tuple[Fraction, Fraction]:
    """The two breakpoints of the negative-part support for this sign regime.

    Both are certified to lie between 0 and the Seshadri-type constant.
    """
    d = as_divisor(d)
    lo, hi = _regime(val, d).at_stage(val, val.r)
    mu = mu_hat(val, d)
    if not (0 <= lo <= hi <= mu):
        raise InvariantBroken("breakpoints", f"{lo}, {hi} escape [0, {mu}]")
    return lo, hi


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
