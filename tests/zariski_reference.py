"""The dense ``Fraction`` Zariski engine, kept as the test reference.

This is the iterative engine as it was before it moved onto the integer Gram
matrix of the basis: it rebuilds the rational Gram matrix on every call,
re-pairs the remainder class with every generator in each round and, before
it solves a support system by Gauss-Jordan elimination over ``Fraction``,
tests the support for negative definiteness by rational elimination: the
iteration visits only supports inside the negative part of a decomposition
(Bauer 2009), so one that is not negative definite refuses the class.  The
production engine must agree with it on positive parts, components and
refusals.  Its result is built
as production builds one, from the input class and the components; the
positive class of its own dense loop is :func:`positive_part`.

The closed-form negative parts at the two breakpoints
(:func:`closed_form_decomposition`) are kept here too: the engine is
their only independent check.
"""

from __future__ import annotations

from fractions import Fraction

from hirzebruch.errors import NotPseudoeffective
from hirzebruch.lattice import CurveBasis, DivisorClassZ, curve_basis, pair
from hirzebruch.seshadri import as_divisor
from hirzebruch.zariski import ZariskiPair, _regime, _swept_class


def is_negative_definite(classes) -> bool:
    """Exact negative-definiteness of the Gram matrix of the given classes.

    Gaussian elimination without pivoting: the leading principal minors
    alternate in sign exactly when every pivot is negative.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    n = len(classes)
    g = [[pair(a, b) for b in classes] for a in classes]
    for k in range(n):
        piv = g[k][k]
        if piv >= 0:
            return False
        for i in range(k + 1, n):
            factor = g[i][k] / piv
            if factor == 0:
                continue
            for j in range(k, n):
                g[i][j] -= factor * g[k][j]
    return True


def _solve(matrix, rhs):
    # Gauss-Jordan elimination over exact rationals; the matrix is negative
    # definite, so every diagonal pivot is non-zero.
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for row in range(n):
            if row != col and a[row][col] != 0:
                factor = a[row][col]
                a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
    return [a[i][n] for i in range(n)]


def zariski_decompose(d: DivisorClassZ, basis: CurveBasis) -> ZariskiPair:
    """The dense decomposition of ``d``, as a :class:`ZariskiPair`."""
    positive, components = _decompose(d, basis)
    return ZariskiPair(d, components, basis, basis.pairings(positive))


def positive_part(d: DivisorClassZ, basis: CurveBasis) -> DivisorClassZ:
    """The positive class as the dense loop computes it."""
    return _decompose(d, basis)[0]


def _decompose(d: DivisorClassZ, basis: CurveBasis):
    """Iterative decomposition over the finite cone-generator list.

    Starting from an empty support, repeatedly solve for the negative part
    orthogonal to the remainder and enlarge the support by every generator
    the remainder still meets negatively.  The support only grows, so the
    loop stabilizes; a support that is not negative definite, or a negative
    coefficient, means the class is not pseudoeffective.
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
            if not is_negative_definite(items[i][1] for i in support):
                raise NotPseudoeffective("support Gram matrix is not negative definite")
            coeffs = _solve(sub, rhs)
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
    return positive, tuple((items[idx][0], c) for idx, c in chosen)


def closed_form_decomposition(val, d, which: str) -> ZariskiPair:
    """Exact positive and negative parts at a breakpoint, without iteration.

    ``which`` selects the ``lower`` or ``upper`` breakpoint of
    :func:`t_values`.  The negative part is read off the regime record at
    the stages below ``r``, plus the named curve at the upper breakpoint;
    the positive part is what remains of the class.
    """
    d = as_divisor(d)
    rec = _regime(val, d)
    k = ("lower", "upper").index(which)
    comps = [(f"E{i}", rec.at_stage(val, i)[k]) for i in range(1, val.r)]
    if which == "upper":
        comps.insert(0, (rec.named, Fraction(rec.sign * rec.theta, rec.denom)))
    comps = tuple((name, c) for name, c in comps if c != 0)
    cls = _swept_class(val, d, rec.at_stage(val, val.r)[k])
    basis = curve_basis(val)
    positive = cls
    for name, c in comps:
        positive = positive - c * basis.get(name)
    return ZariskiPair(cls, comps, basis, basis.pairings(positive))
