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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cluster import (
    DivisorialValuation,
    FlagValuation,
    chain_value,
    truncate_valuation,
    truncation_pairing,
)
from .errors import (
    NegativePartOnEr,
    NotPseudoeffective,
)
from .lattice import (
    CurveBasis,
    DivisorClassZ,
    curve_basis,
    exceptional,
    is_negative_definite,
    pair,
    pullback,
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
    """An exact decomposition ``input = positive + negative``.

    The negative part is stored as coefficients on named cone generators,
    in the basis order.  The positive part is nef against the generator
    list, orthogonal to every component and the support Gram matrix is
    negative definite; these are enforced at construction sites.
    """

    positive: DivisorClassZ
    components: tuple[tuple[str, Fraction], ...]
    basis: CurveBasis

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.components:
            if n == name:
                return c
        return Fraction(0)

    def negative_class(self) -> DivisorClassZ:
        total = 0 * self.positive
        for name, coeff in self.components:
            total = total + coeff * self.basis.get(name)
        return total

    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.components)


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


def _solve(matrix, rhs):
    # Gaussian elimination with partial pivoting over exact rationals.
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for row in range(col, n):
            if a[row][col] != 0:
                piv = row
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for row in range(n):
            if row != col and a[row][col] != 0:
                factor = a[row][col]
                a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
    return [a[i][n] for i in range(n)]


def zariski_decompose(d: DivisorClassZ, basis: CurveBasis) -> ZariskiPair:
    """Iterative decomposition over the finite cone-generator list.

    Starting from an empty support, repeatedly solve for the negative part
    orthogonal to the remainder and enlarge the support by every generator
    the remainder still meets negatively.  The support only grows, so the
    loop stabilizes; failure to produce non-negative coefficients with a
    negative-definite support means the class is not pseudoeffective.
    """
    items = basis.items()
    gram = [[pair(a, b) for _, b in items] for _, a in items]
    inner = [pair(d, c) for _, c in items]
    support: list[int] = []
    coeffs: list[Fraction] = []
    for _ in range(len(items) + 1):
        if support:
            sub = [[gram[i][j] for j in support] for i in support]
            rhs = [inner[i] for i in support]
            solved = _solve(sub, rhs)
            if solved is None:
                raise NotPseudoeffective("orthogonality system is singular")
            coeffs = solved
            positive = d
            for idx, lam in zip(support, coeffs):
                positive = positive - lam * items[idx][1]
        else:
            positive = d
        bad = [
            k
            for k in range(len(items))
            if k not in support and pair(positive, items[k][1]) < 0
        ]
        if not bad:
            break
        support.extend(bad)
    else:
        raise NotPseudoeffective("support enlargement did not stabilize")
    if any(c < 0 for c in coeffs):
        raise NotPseudoeffective("negative part would need a negative coefficient")
    chosen = [(idx, c) for idx, c in zip(support, coeffs) if c > 0]
    chosen.sort(key=lambda pc: pc[0])
    if chosen and not is_negative_definite([items[idx][1] for idx, _ in chosen]):
        raise NotPseudoeffective("support Gram matrix is not negative definite")
    return ZariskiPair(
        positive, tuple((items[idx][0], c) for idx, c in chosen), basis
    )


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
        negative-part coefficient on ``E_i``.
        """
        # Stage r is the valuation itself: truncating would rebuild it.
        stage = val if i == val.r else truncate_valuation(val, i)
        nu = truncation_pairing(val.config, val.r, i)
        c = chain_value(stage, self.chain)
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
        raise AssertionError(f"breakpoints {lo}, {hi} escape [0, {mu}]")
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
    basis = curve_basis(val)
    t = rec.at_stage(val, val.r)[k]
    positive = pullback(val.delta, d.a, d.b, val.r) - t * exceptional(
        val.delta, val.r, val.r
    )
    for name, c in comps:
        positive = positive - c * basis.get(name)
    return ZariskiPair(positive, comps, basis)


def alpha_beta(flag: FlagValuation, d, t) -> tuple[Fraction, Fraction]:
    """Lower and upper boundary values of the body above abscissa ``t``.

    Decomposes ``D* - t E_r``; the lower value is the negative-part
    coefficient on the second divisor through the flag point (zero for a
    free flag point), the upper value adds the pairing of the positive part
    with the last exceptional curve.
    """
    val = flag.base
    d = as_divisor(d)
    t = Fraction(t)
    if t < 0:
        raise ValueError("the sweep parameter must be non-negative")
    basis = curve_basis(val)
    cls = pullback(val.delta, d.a, d.b, val.r) - t * exceptional(
        val.delta, val.r, val.r
    )
    zp = zariski_decompose(cls, basis)
    last = f"E{val.r}"
    if zp.coefficient(last) != 0:
        raise NegativePartOnEr(
            f"E{val.r} entered the negative part at t = {t}; "
            "the position contract is violated"
        )
    alpha = zp.coefficient(f"E{flag.eta}") if flag.is_satellite else Fraction(0)
    beta = alpha + pair(zp.positive, basis.get(last))
    return alpha, beta
