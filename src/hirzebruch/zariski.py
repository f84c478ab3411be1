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

The engine and the sweep run in integers from input to output.  The curve
basis holds the sparse integer coordinates of the generators, their Gram
matrix and the non-zero entries of each Gram row.  The input class is
cleared to integers once and paired with every generator in O(1) terms per
exceptional curve; after each solve the remainder's pairings are updated by
linearity over the non-zero Gram entries.  One decomposition grows one
fraction-free Bareiss elimination across its support rounds: a generator
joins as a new row eliminated against the stored pivot rows and as a new
column filled by symmetry, in O(s^2) for a support of size ``s``.  The
stored pivots are the support's leading minors in insertion order; when
they alternate in sign the support is negative definite and the
definiteness check is skipped.  A zero leading minor, which only a class
that ends up refused meets on a cone of curves, sends the rest of the call
to a pivoted solve from scratch.  The positive class is built only when a
caller reads it: the engine hands over its final remainder pairings, and
the sweep reads the pairing of the positive part with ``E_r`` from them.
The dense ``Fraction`` engine it replaced is kept in the tests as the
reference.
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
    chain_value,
    truncate_valuation,
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
    bareiss,
    curve_basis,
    definiteness_failure,
    div_class,
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
            for k, g in sparse_gram[index[name]]:
                values[k] -= weight * g
        return values, denom

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.components:
            if n == name:
                return c
        return Fraction(0)

    def negative_class(self) -> DivisorClassZ:
        total = 0 * self.divisor
        for name, coeff in self.components:
            total = total + coeff * self.basis.get(name)
        return total

    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.components)

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


def _solve(gram, support: list[int], rhs: list[int]) -> tuple[list[int], int] | None:
    """Integer solution ``x / det`` of the support system, or ``None``.

    Fraction-free elimination from scratch, with the first non-zero entry of
    each column as pivot, then back substitution; ``None`` means singular.
    The engine falls back to it once a leading minor of the support vanishes.
    """
    n = len(support)
    a = [[gram[i][j] for j in support] + [rhs[i]] for i in support]
    pivots = bareiss(a, pivoting=True)
    det = pivots[-1]
    if det == 0:
        return None
    return _back_substitute(a, [row[n] for row in a], det), det


def _back_substitute(rows: list[list[int]], b: list[int], det: int) -> list[int]:
    """Back substitution on eliminated rows ``rows`` with right-hand side ``b``."""
    n = len(rows)
    x = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        s = det * b[i] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = s // row[i]
    return x


class _Elimination:
    """Fraction-free elimination of the support system, grown one row at a time.

    Row ``k`` is the ``k``-th support generator's Gram row after elimination
    steps ``0 .. k-1``, and its pivot is the leading minor of order ``k + 1``
    in insertion order.  A new generator's row is eliminated against the
    stored ones; by symmetry of the Gram matrix, stored row ``k``'s entry in
    the new column is the new row's entry in column ``k`` just before step
    ``k``.  Appending costs O(s) per stored row, with no row exchanges.
    """

    def __init__(self):
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.pivots: list[int] = []

    def append(self, column: list[int], rhs: int) -> bool:
        """Append the generator whose Gram column over the support, itself
        last, is ``column``; ``False`` when its pivot is zero."""
        new = list(column)
        prev = 1
        for k, (row, b, p) in enumerate(zip(self.rows, self.rhs, self.pivots)):
            f = new[k]
            row.append(f)
            for j in range(k + 1, len(new)):
                new[j] = (p * new[j] - f * row[j]) // prev
            rhs = (p * rhs - f * b) // prev
            prev = p
        self.rows.append(new)
        self.rhs.append(rhs)
        self.pivots.append(new[-1])
        return new[-1] != 0

    def solve(self) -> tuple[list[int], int]:
        det = self.pivots[-1]
        return _back_substitute(self.rows, self.rhs, det), det

    def negative_definite(self) -> bool:
        """Whether the leading minors alternate in sign, starting negative."""
        return all((p > 0) == (k % 2 == 1) for k, p in enumerate(self.pivots))


def zariski_decompose(d: DivisorClassZ, basis: CurveBasis) -> ZariskiPair:
    """Iterative decomposition over the finite cone-generator list.

    Starting from an empty support, repeatedly solve for the negative part
    orthogonal to the remainder and enlarge the support by every generator
    the remainder still meets negatively.  The support only grows, so the
    loop stabilizes; failure to produce non-negative coefficients with a
    negative-definite support means the class is not pseudoeffective.

    Runs on the integer Gram matrix held by the basis: the pairings of
    ``d`` with the generators are integers over one scale, and those of
    the remainder follow from them by linearity, over the non-zero Gram
    entries.  One elimination is grown in place across the rounds; after a
    zero leading minor the rest of the call solves each round from scratch
    with pivoting.  Alternating leading minors make the whole support, and
    so every part of it, negative definite.
    """
    names = basis.names
    gram, sparse_gram = basis.gram, basis.sparse_gram
    n = len(names)
    rhs, scale = basis.pairings(d)
    # The remainder's pairings are ``rest[k] / (det * scale)``.
    support: list[int] = []
    elim: _Elimination | None = _Elimination()
    x: list[int] = []
    det = 1
    rest = rhs
    while True:
        inside = set(support)
        bad = [k for k in range(n) if k not in inside and rest[k] * det < 0]
        if not bad:
            break
        for g in bad:
            support.append(g)
            if elim is not None and not elim.append(
                [gram[g][i] for i in support], rhs[g]
            ):
                elim = None
        if elim is not None:
            x, det = elim.solve()
        else:
            solved = _solve(gram, support, rhs)
            if solved is None:
                raise NotPseudoeffective(
                    f"{_named(names, support)}: orthogonality system is singular"
                )
            x, det = solved
        rest = [det * v for v in rhs]
        for i, xi in zip(support, x):
            for k, g in sparse_gram[i]:
                rest[k] -= xi * g
    coeffs = [Fraction(xi, det * scale) for xi in x]
    for idx, c in zip(support, coeffs):
        if c < 0:
            raise NotPseudoeffective(
                f"{_named(names, support)}: negative part would need a negative "
                f"coefficient, {names[idx]} = {c}"
            )
    chosen = sorted((idx, c) for idx, c in zip(support, coeffs) if c > 0)
    if chosen and (elim is None or not elim.negative_definite()):
        rows = [idx for idx, _ in chosen]
        failure = definiteness_failure([[gram[i][j] for j in rows] for i in rows])
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


def _swept_class(val: DivisorialValuation, d: BigDivisor, t) -> DivisorClassZ:
    """The class ``D* - t E_r*``, built directly from its coordinates."""
    return div_class(val.delta, d.a, d.b, (0,) * (val.r - 1) + (-t,))


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
