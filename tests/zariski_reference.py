"""The dense ``Fraction`` Zariski engine, kept as the test reference.

This is the iterative engine as it was before it moved onto the integer Gram
matrix of the basis: it rebuilds the rational Gram matrix on every call,
solves each support system by Gauss-Jordan elimination over ``Fraction``,
re-pairs the remainder class with every generator in each round and tests
definiteness by rational elimination.  The production engine must agree
with it on positive parts, components and refusals.  Its result is built
as production builds one, from the input class and the components; the
positive class of its own dense loop is :func:`positive_part`.
"""

from __future__ import annotations

from fractions import Fraction

from hirzebruch.errors import NotPseudoeffective
from hirzebruch.lattice import CurveBasis, DivisorClassZ, pair
from hirzebruch.zariski import ZariskiPair


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
    """The dense decomposition of ``d``, as a :class:`ZariskiPair`."""
    _, components = _decompose(d, basis)
    return ZariskiPair(d, components, basis)


def positive_part(d: DivisorClassZ, basis: CurveBasis) -> DivisorClassZ:
    """The positive class as the dense loop computes it."""
    return _decompose(d, basis)[0]


def _decompose(d: DivisorClassZ, basis: CurveBasis):
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
    return positive, tuple((items[idx][0], c) for idx, c in chosen)
