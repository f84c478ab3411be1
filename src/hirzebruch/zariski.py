"""Zariski decompositions on the base surface and on the blown-up surface.

The closed forms are the production route.  One sign-regime record
(fiber, special section or non-special section) yields the breakpoints
(:func:`t_values`), the negative parts there
(:func:`closed_form_decomposition`) and the breakpoint vertices of the
Newton-Okounkov body.  The iterative engine (:func:`zariski_decompose`)
grows the support of the negative part inside the finite list of cone
generators until the remainder is nef, solving the orthogonality conditions
exactly at each step; it and the sweep built on it (:func:`alpha_beta`) are
the independent oracles that the closed forms are checked against.

The engine and the sweep run in integers from input to output, on the
sparse integer rows of the basis.  The generators are strict transforms of
a tree of smooth rational curves, so every support system is a principal
submatrix of a forest Gram matrix; each round solves it from scratch by
leaf-first elimination (:func:`_forest_solve`), which also tells whether
the support is negative definite.  The positive class is built only when a
caller reads it: the engine hands over its final remainder pairings, and
the sweep reads the pairing of the positive part with ``E_r`` from them.
The dense ``Fraction`` engine it replaced is kept in the tests as the
reference.

A sweep carries its support from one sample to the next.  The negative
part of ``D* - t E_r`` only grows with ``t`` while ``E_r`` stays out of it
(Lazarsfeld-Mustata, *Convex bodies associated to linear series*, section
6), and the engine reaches the same decomposition from any subset of the
support (Bauer, *A simple proof for the existence of Zariski decompositions
on surfaces*, 2009).  So each sample starts from the previous sample's
components, and only the first sample with a negative part grows it from
nothing; the engine refuses a start generator that ends without a positive
coefficient as a broken invariant.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    definiteness_failure,
)
from .seshadri import (
    BigDivisor,
    as_divisor,
    mu_hat,
    theta,
    _positive_scale,
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
    enforced at construction sites.  ``pairings`` optionally seeds the
    positive part's pairings with the generators (see :attr:`_pairings`).
    """

    divisor: DivisorClassZ
    components: tuple[tuple[str, Fraction], ...]
    basis: CurveBasis
    pairings: InitVar[tuple[list[int], int] | None] = None

    def __post_init__(self, pairings):
        if pairings is not None:
            # Seeds the cached property below, as its first read would.
            self.__dict__["_pairings"] = pairings

    @cached_property
    def positive(self) -> DivisorClassZ:
        positive = self.divisor
        for name, coeff in self.components:
            positive = positive - coeff * self.basis.get(name)
        return positive

    @cached_property
    def _pairings(self) -> tuple[list[int], int]:
        """The positive part's pairings with every generator, as integers
        ``values`` over one denominator.

        Unless the engine seeded them with its final remainder, they are
        read from the integer pairing of the divisor and the non-zero Gram
        entries of the components, without building the positive class.
        """
        values, scale = self.basis.pairings(self.divisor)
        denom = lcm(scale, *(c.denominator for _, c in self.components))
        values = [v * (denom // scale) for v in values]
        sparse_gram, index = self.basis.sparse_gram, self.basis.index
        for name, c in self.components:
            weight = c.numerator * (denom // c.denominator)
            for k, g in sparse_gram[index[name]].items():
                values[k] -= weight * g
        return values, denom

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.components:
            if n == name:
                return c
        return Fraction(0)

    def positive_pairing(self, name: str) -> Fraction:
        """The pairing of the positive part with the named generator."""
        values, denom = self._pairings
        return Fraction(values[self.basis.index[name]], denom)


@dataclass(frozen=True)
class BaseDecomposition:
    """Decomposition of ``a F + b M`` on the base surface itself."""

    positive: tuple[Fraction, Fraction]
    negative_m0: Fraction


def zariski_fano_base(delta: int, d) -> BaseDecomposition:
    """Positive and negative parts of a pseudoeffective class on the base.

    Nef classes are their own positive part; a big-but-not-nef class sheds a
    multiple of the negative section.
    """
    d = as_divisor(d)
    if not d.is_pseudoeffective(delta):
        raise NotPseudoeffective(f"{d.a} F + {d.b} M is not pseudoeffective")
    if d.a >= 0:
        return BaseDecomposition((Fraction(d.a), Fraction(d.b)), Fraction(0))
    scale = _positive_scale(delta, d)
    return BaseDecomposition((Fraction(0), scale), d.b - scale)


def _forest_solve(
    gram, names, support: list[int], rhs: list[int]
) -> tuple[list[int], int, bool] | None:
    """Integer solution ``x / det`` of the support system and whether the
    support is negative definite, or ``None`` when the system is singular.

    ``gram`` holds the non-zero Gram entries of each generator by row; on
    the support they must form a forest, and a cycle is refused.  A walk
    fixes a parent for every vertex.  Leaves first, each vertex ``v``
    carries the integers ``(P, Q, R)`` of its reduced pivot ``P / Q`` and
    reduced right-hand side ``R / Q``, and is eliminated into its parent
    ``u`` over the edge weight ``w``: ``P_u <- P_u P_v - w^2 Q_v Q_u``,
    ``R_u <- R_u P_v - w R_v Q_u``, ``Q_u <- Q_u P_v``.  So ``P`` is the
    determinant of the subtree and ``Q`` the product of the children's.

    A vertex whose reduced pivot is zero pairs with its parent instead: the
    2x2 block has determinant ``-w^2``, the child's equation fixes the
    parent's value, and the grandparent keeps its pivot while its
    right-hand side moves.  A zero pivot at a root, or a second zero-pivot
    child of one parent, makes the system singular.  Back substitution
    divides exactly, since ``det * x`` is integral by Cramer's rule.  The
    support is negative definite exactly when every reduced pivot is
    negative and no pair was formed.
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
                if g in parent:
                    raise InvariantBroken(
                        "generator forest",
                        f"{_named(names, support)}: {names[v]} and {names[g]} close a cycle",
                    )
                parent[g], up[g] = v, w
                stack.append(g)
    # The roots hang under a vertex ``None`` of pivot 1, whose pivot ends as
    # the product of the roots' subtree determinants.
    P = {g: gram[g].get(g, 0) for g in support}
    Q = dict.fromkeys(support, 1)
    R = {g: rhs[g] for g in support}
    P[None], Q[None], R[None] = 1, 1, 0
    mate: dict[int, int] = {}  # the zero-pivot child paired with a vertex
    definite = True
    for v in reversed(order):
        u = parent[v]
        if v in mate:
            c = mate[v]
            block = -up[c] * up[c] * Q[c] * Q[v]
            R[u] = R[u] * block + up[v] * up[c] * R[c] * Q[v] * Q[u]
            P[u] *= block
            Q[u] *= block
        elif P[v] == 0:
            if u is None or u in mate:
                return None
            mate[u] = v
            definite = False
        else:
            definite = definite and (P[v] < 0) != (Q[v] < 0)
            P[u] = P[u] * P[v] - up[v] * up[v] * Q[v] * Q[u]
            R[u] = R[u] * P[v] - up[v] * R[v] * Q[u]
            Q[u] *= P[v]
    det = P[None]
    x = {None: 0}
    for v in order:
        u = parent[v]
        if v in mate:
            c = mate[v]
            x[v] = det * R[c] // (Q[c] * up[c])
        elif mate.get(u) == v:
            rest = det * R[u] - P[u] * x[u] - up[u] * Q[u] * x[parent[u]]
            x[v] = rest // (Q[u] * up[v])
        else:
            x[v] = (det * R[v] - up[v] * Q[v] * x[u]) // P[v]
    return [x[g] for g in support], det, definite


def zariski_decompose(
    d: DivisorClassZ, basis: CurveBasis, *, _start: list[int] | tuple[int, ...] = ()
) -> ZariskiPair:
    """Iterative decomposition over the finite cone-generator list.

    Starting from an empty support, repeatedly solve for the negative part
    orthogonal to the remainder and enlarge the support by every generator
    the remainder still meets negatively.  The support only grows, so the
    loop stabilizes; failure to produce non-negative coefficients with a
    negative-definite support means the class is not pseudoeffective.

    The pairings of ``d`` with the generators are integers over one
    scale, and those of the remainder follow from them by linearity over
    the non-zero Gram entries.  A support the solve finds negative definite
    makes every part of it so; only otherwise are the chosen rows checked.

    ``_start`` is state the sweep carries from one sample to the next, not
    an option: indices of generators in the support of the negative part,
    from which the loop starts instead of the empty support.  From any such
    subset the loop reaches the same decomposition (Bauer 2009), with a
    positive coefficient on each of them; a start generator that ends
    without one is a broken invariant, not a refusal of ``d``.
    """
    names, gram = basis.names, basis.sparse_gram
    n = len(names)
    rhs, scale = basis.pairings(d)
    # The remainder's pairings are ``rest[k] / (det * scale)``.
    support: list[int] = []
    x: list[int] = []
    det = 1
    definite = True
    rest = rhs
    joining = list(_start) or [k for k in range(n) if rhs[k] < 0]
    while joining:
        support += joining
        solved = _forest_solve(gram, names, support, rhs)
        if solved is None:
            raise NotPseudoeffective(
                f"{_named(names, support)}: orthogonality system is singular"
            )
        x, det, definite = solved
        rest = [det * v for v in rhs]
        for i, xi in zip(support, x):
            for k, g in gram[i].items():
                rest[k] -= xi * g
        inside = set(support)
        joining = [k for k in range(n) if k not in inside and rest[k] * det < 0]
    coeffs = [Fraction(xi, det * scale) for xi in x]
    for idx, c in zip(support[: len(_start)], coeffs):
        if c <= 0:
            raise InvariantBroken(
                "sweep support",
                f"{_named(names, support)}: start generator {names[idx]} ends at {c}",
            )
    for idx, c in zip(support, coeffs):
        if c < 0:
            raise NotPseudoeffective(
                f"{_named(names, support)}: negative part would need a negative "
                f"coefficient, {names[idx]} = {c}"
            )
    chosen = sorted((idx, c) for idx, c in zip(support, coeffs) if c > 0)
    if chosen and not definite:
        rows = [idx for idx, _ in chosen]
        failure = definiteness_failure([[gram[i].get(j, 0) for j in rows] for i in rows])
        if failure is not None:
            order, minor = failure
            raise NotPseudoeffective(
                f"{_named(names, rows)}: support Gram matrix is not negative "
                f"definite, leading minor {order} is {minor}"
            )
    components = tuple((names[idx], c) for idx, c in chosen)
    return ZariskiPair(d, components, basis, (rest, det * scale))


def _named(names, indices) -> str:
    return "support " + ", ".join(names[i] for i in sorted(indices))


class _Regime(NamedTuple):
    """The sign regime behind every breakpoint formula.

    ``theta >= 0`` selects the fiber regime (named curve ``F1``), otherwise
    the special (``M0``) or non-special (``M1``) section regime.  With ``nu``
    the value of a stage curvette and ``c`` that of the germ along ``chain``
    under the stage valuation, the lower breakpoint gives ``lower * nu`` and
    the upper one ``(upper * nu + sign * theta * c) / denom``.  The named
    curve joins the negative part at the upper breakpoint with coefficient
    ``sign * theta / denom``.
    """

    theta: int
    lower: Fraction
    upper: int
    denom: int
    named: str
    chain: tuple[int, ...]
    sign: int

    def at_stage(self, val: DivisorialValuation, i: int) -> tuple[Fraction, Fraction]:
        """Values on the stage-``i`` curvette at the lower and upper breakpoint.

        Stage ``r`` gives the breakpoints themselves, stage ``i < r`` the
        negative-part coefficient on ``E_i``.  The chain is an initial run
        of free points, so its germ is the curvette at its last point and,
        by symmetry of the curvette pairing, ``c`` is entry ``i`` of that
        curvette's row.
        """
        nu = truncation_pairing(val.config, val.r, i)
        k = len(self.chain)
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
        return _Regime(th, Fraction(b, phi_f), b, phi_f, "F1", val.config.f1_chain, 1)
    m_chain = val.config.m_chain
    if val.is_special:
        denom = phi_m + delta * phi_f
        return _Regime(th, Fraction(a, phi_m), a + b * delta, denom, "M0", m_chain, -1)
    denom = phi_m - delta * phi_f
    return _Regime(th, Fraction(a + b * delta, phi_m), a, denom, "M1", m_chain, -1)


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


def closed_form_decomposition(val: DivisorialValuation, d, which: str) -> ZariskiPair:
    """Exact positive and negative parts at a breakpoint, without iteration.

    ``which`` selects the ``lower`` or ``upper`` breakpoint of
    :func:`t_values`.  The negative part is read off the regime record; the
    positive part is what remains of the class.
    """
    d = as_divisor(d)
    rec = _regime(val, d)
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    k = 0 if which == "lower" else 1
    comps = [(f"E{i}", rec.at_stage(val, i)[k]) for i in range(1, val.r)]
    if which == "upper":
        comps.insert(0, (rec.named, Fraction(rec.sign * rec.theta, rec.denom)))
    comps = tuple((name, c) for name, c in comps if c != 0)
    t = rec.at_stage(val, val.r)[k]
    return ZariskiPair(_swept_class(val, d, t), comps, curve_basis(val))


def _swept_class(val: DivisorialValuation, d: BigDivisor, t: Fraction) -> DivisorClassZ:
    """The class ``D* - t E_r*``, built directly from its coordinates, with
    one zero shared by the first ``r - 1`` of them."""
    zero = Fraction(0)
    e = (zero,) * (val.r - 1) + (-t,)
    return DivisorClassZ(val.delta, Fraction(d.a), Fraction(d.b), e)


def alpha_beta(
    flag: FlagValuation, d, t, *, _carry: list[int] | None = None
) -> tuple[Fraction, Fraction]:
    """Lower and upper boundary values of the body above abscissa ``t``.

    Decomposes ``D* - t E_r``; the lower value is the negative-part
    coefficient on the second divisor through the flag point (zero for a
    free flag point), the upper value adds the pairing of the positive part
    with the last exceptional curve, read without building that class.

    ``_carry`` is state a sweep passes between its ascending samples, not
    an option: the previous sample's component indices, which start the
    engine and are replaced by this sample's (see the module notes on why
    that is exact).
    """
    val = flag.base
    d = as_divisor(d)
    t = Fraction(t)
    if t < 0:
        raise ValueError("the sweep parameter must be non-negative")
    basis = curve_basis(val)
    zp = zariski_decompose(_swept_class(val, d, t), basis, _start=_carry or ())
    last = f"E{val.r}"
    if zp.coefficient(last) != 0:
        raise NegativePartOnEr(
            f"E{val.r} entered the negative part at t = {t}; "
            "the position contract is violated"
        )
    if _carry is not None:
        _carry[:] = [basis.index[name] for name, _ in zp.components]
    alpha = zp.coefficient(f"E{flag.eta}") if flag.is_satellite else Fraction(0)
    beta = alpha + zp.positive_pairing(last)
    return alpha, beta
