"""Exact intersection theory on the surface obtained by blowing up the cluster.

Divisor classes are written over the orthogonal pullback basis
``F*, M*, E_1*, ..., E_r*`` with the form ``F*^2 = 0``, ``F*.M* = 1``,
``M*^2 = delta`` and ``E_i*.E_j* = -delta_ij``.  Strict transforms of the
fiber, the distinguished sections and the exceptional divisors are derived
classes; in the non-positive-at-infinity regime they generate the cone of
curves, which is what the nefness test relies on.

Each curve basis keeps the sparse integer coordinates of its generators in
one table.  The Gram matrix, the pairings of a class with the generators
(read by the Zariski engine and the nefness test) and the dual graph all
read that table; the dense :func:`pair` is kept for callers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .cluster import NON_SPECIAL, SPECIAL, DivisorialValuation
from .errors import DimensionMismatch, InvariantBroken, NotATree


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class DivisorClassZ:
    """A rational divisor class over the pullback basis."""

    delta: int
    f: Fraction
    m: Fraction
    e: tuple[Fraction, ...]

    @property
    def r(self) -> int:
        return len(self.e)

    def _check(self, other: "DivisorClassZ") -> None:
        if self.delta != other.delta or self.r != other.r:
            raise DimensionMismatch("classes live on different surfaces")

    def __add__(self, other: "DivisorClassZ") -> "DivisorClassZ":
        self._check(other)
        return DivisorClassZ(
            self.delta,
            self.f + other.f,
            self.m + other.m,
            tuple(a + b for a, b in zip(self.e, other.e)),
        )

    def __sub__(self, other: "DivisorClassZ") -> "DivisorClassZ":
        return self + (-other)

    def __neg__(self) -> "DivisorClassZ":
        return DivisorClassZ(self.delta, -self.f, -self.m, tuple(-a for a in self.e))

    def __rmul__(self, scalar) -> "DivisorClassZ":
        s = _frac(scalar)
        return DivisorClassZ(
            self.delta, s * self.f, s * self.m, tuple(s * a for a in self.e)
        )

    __mul__ = __rmul__


def div_class(delta: int, f=0, m=0, e=()) -> DivisorClassZ:
    return DivisorClassZ(delta, _frac(f), _frac(m), tuple(_frac(x) for x in e))


def pullback(delta: int, a, b, r: int) -> DivisorClassZ:
    """Total transform of the class ``a F + b M``."""
    return div_class(delta, a, b, (0,) * r)


def exceptional(delta: int, r: int, i: int) -> DivisorClassZ:
    """The pullback class ``E_i*``."""
    return div_class(delta, 0, 0, tuple(1 if j == i else 0 for j in range(1, r + 1)))


def pair(x: DivisorClassZ, y: DivisorClassZ) -> Fraction:
    """The intersection form in the pullback basis."""
    x._check(y)
    return (
        x.f * y.m
        + x.m * y.f
        + x.delta * x.m * y.m
        - sum(a * b for a, b in zip(x.e, y.e))
    )


@dataclass(frozen=True)
class CurveBasis:
    """Strict-transform classes generating the cone of curves.

    ``names`` and ``classes`` run in the fixed order ``F1``, ``M0``,
    optionally ``M1`` (non-special valuations only), then ``E1 .. Er``.
    """

    delta: int
    names: tuple[str, ...]
    classes: tuple[DivisorClassZ, ...]

    def items(self) -> tuple[tuple[str, DivisorClassZ], ...]:
        return tuple(zip(self.names, self.classes))

    @cached_property
    def index(self) -> dict[str, int]:
        """The position of each generator name."""
        return {name: k for k, name in enumerate(self.names)}

    def get(self, name: str) -> DivisorClassZ:
        return self.classes[self.index[name]]

    def exceptional(self, i: int) -> DivisorClassZ:
        return self.get(f"E{i}")

    @cached_property
    def sparse(self) -> tuple[tuple[int, int, dict[int, int]], ...]:
        """Integer coordinates of the generators, built on first use.

        Generator ``k`` is ``(f, m, e)`` with ``e`` mapping the index of each
        non-zero exceptional coordinate to its value: at most three entries
        for an exceptional curve, a chain for the fiber and the sections.
        The Gram matrix and :meth:`pairings` both read this table.
        """
        table = []
        for name, c in self.items():
            coords = (c.f, c.m, *c.e)
            if any(x.denominator != 1 for x in coords):
                raise InvariantBroken("integral basis", f"{name} = {coords}")
            e = {j: int(x) for j, x in enumerate(c.e) if x}
            table.append((int(c.f), int(c.m), e))
        return tuple(table)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The integer Gram matrix of the generators, built on first use."""
        sparse = self.sparse
        return tuple(
            tuple(_sparse_pair(self.delta, x, y) for y in sparse) for x in sparse
        )

    @cached_property
    def sparse_gram(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The non-zero entries of each Gram row, as ``(column, value)`` pairs.

        An exceptional curve meets its neighbours in the dual graph and at
        most the fiber and the sections, so its row holds O(1) entries.
        """
        return tuple(
            tuple((k, v) for k, v in enumerate(row) if v) for row in self.gram
        )

    def pairings(self, d: DivisorClassZ) -> tuple[list[int], int]:
        """The pairings of ``d`` with every generator, as integers over a scale.

        ``d`` is cleared to integers once, by the lcm of its coordinate
        denominators; the pairing with generator ``k`` is
        ``values[k] / scale``, and it costs one product per non-zero
        exceptional coordinate of the sparser side.
        """
        d._check(self.classes[0])
        scale = lcm(d.f.denominator, d.m.denominator, *(x.denominator for x in d.e))

        def clear(x):
            return x.numerator * (scale // x.denominator)

        e = {j: clear(x) for j, x in enumerate(d.e) if x}
        cleared = (clear(d.f), clear(d.m), e)
        return [_sparse_pair(self.delta, cleared, y) for y in self.sparse], scale


def _sparse_pair(delta: int, x, y) -> int:
    """The intersection form on two sparse integer coordinate triples."""
    f, m, e = x
    g, n, e2 = y
    if len(e2) < len(e):
        e, e2 = e2, e
    dot = sum(v * e2.get(j, 0) for j, v in e.items())
    return f * n + m * g + delta * m * n - dot


@lru_cache(maxsize=None)
def curve_basis(val: DivisorialValuation) -> CurveBasis:
    delta, r = val.delta, val.r
    config = val.config

    def strict_exceptional(i):
        coords = [0] * r
        coords[i - 1] = 1
        for j in config.proximate_to(i):
            coords[j - 1] = -1
        return div_class(delta, 0, 0, coords)

    def chain_class(f, m, chain):
        coords = [-1 if i in chain else 0 for i in range(1, r + 1)]
        return div_class(delta, f, m, coords)

    f1 = chain_class(1, 0, set(config.f1_chain))
    names = ["F1", "M0"]
    if val.kind == NON_SPECIAL:
        classes = [
            f1,
            chain_class(-delta, 1, set()),
            chain_class(0, 1, set(config.m_chain)),
        ]
        names.append("M1")
    else:
        m0_chain = set(config.m_chain) if val.surface.point_kind == SPECIAL else set()
        classes = [f1, chain_class(-delta, 1, m0_chain)]
    for i in range(1, r + 1):
        names.append(f"E{i}")
        classes.append(strict_exceptional(i))
    return CurveBasis(delta, tuple(names), tuple(classes))


@lru_cache(maxsize=None)
def dual_graph(val: DivisorialValuation) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists of the exceptional curves, checked to form a tree."""
    basis = curve_basis(val)
    r = val.r
    first = basis.names.index("E1")
    strict = basis.gram[first:]
    adj: list[list[int]] = [[] for _ in range(r + 1)]
    edges = 0
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            p = strict[i - 1][first + j - 1]
            if p not in (0, 1):
                raise NotATree(f"E{i}.E{j} = {p}")
            if p == 1:
                adj[i].append(j)
                adj[j].append(i)
                edges += 1
    if edges != r - 1:
        raise NotATree(f"{edges} edges on {r} vertices")
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != r:
        raise NotATree("intersection graph is disconnected")
    return tuple(tuple(a) for a in adj)


def precedes(graph: tuple[tuple[int, ...], ...], alpha: int, beta: int) -> bool:
    """Whether the path from vertex 1 to ``beta`` passes through ``alpha``."""
    parent = {1: None}
    stack = [1]
    while stack:
        v = stack.pop()
        if v == beta:
            break
        for w in graph[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    v = beta
    while v is not None:
        if v == alpha:
            return True
        v = parent[v]
    return False


def is_nef_against(d: DivisorClassZ, basis: CurveBasis) -> bool:
    """Nefness against the listed cone generators (valid in the NPI regime)."""
    values, _ = basis.pairings(d)
    return all(v >= 0 for v in values)


def bareiss(a: list[list[int]], pivoting: bool) -> list[int]:
    """Fraction-free elimination of an integer matrix, in place (Bareiss 1968).

    The rows of ``a`` are eliminated below the diagonal of the leading
    square block; further columns, such as a right-hand side, are carried
    along.  Every division is exact.  Returns the pivots, stopping after the
    first zero one.  Without ``pivoting`` pivot ``k`` is the leading
    principal minor of order ``k + 1``.  With it a zero pivot is replaced by
    the first non-zero entry below it in its column; the matrix is singular
    exactly when a zero pivot remains, and otherwise the last pivot is its
    determinant up to sign.
    """
    n = len(a)
    pivots = []
    prev = 1
    for k in range(n):
        if pivoting and a[k][k] == 0:
            below = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if below is not None:
                a[k], a[below] = a[below], a[k]
        row = a[k]
        p = row[k]
        pivots.append(p)
        if p == 0:
            break
        for i in range(k + 1, n):
            other = a[i]
            f = other[k]
            for j in range(k + 1, len(row)):
                other[j] = (p * other[j] - f * row[j]) // prev
        prev = p
    return pivots


def definiteness_failure(gram) -> tuple[int, int] | None:
    """The first leading principal minor of an integer Gram matrix whose sign
    breaks negative definiteness, as ``(order, minor)``, or ``None``.

    The minor of order ``k`` of a negative definite matrix has sign
    ``(-1)^k``.
    """
    pivots = bareiss([list(row) for row in gram], pivoting=False)
    for k, minor in enumerate(pivots, 1):
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            return k, minor
    return None


def is_negative_definite(classes) -> bool:
    """Exact negative-definiteness of the Gram matrix of the given classes.

    The rational Gram matrix is scaled to an integer one by a positive
    integer, which keeps the signs of its leading principal minors.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    g = [[pair(a, b) for b in classes] for a in classes]
    scale = lcm(*(x.denominator for row in g for x in row))
    return definiteness_failure([[int(x * scale) for x in row] for row in g]) is None
