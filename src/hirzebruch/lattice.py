"""Exact intersection theory on the surface obtained by blowing up the cluster.

Divisor classes are written over the orthogonal pullback basis
``F*, M*, E_1*, ..., E_r*`` with the form ``F*^2 = 0``, ``F*.M* = 1``,
``M*^2 = delta`` and ``E_i*.E_j* = -delta_ij``.  Strict transforms of the
fiber, the distinguished sections and the exceptional divisors are derived
classes; in the non-positive-at-infinity regime they generate the cone of
curves, so a class that meets each of them non-negatively is nef, which is
what the Zariski engine's stopping rule relies on.

A curve basis keeps the sparse integer coordinates of its generators,
built in O(r) from the proximities and the chains, and one inverted column
index: the generators non-zero at each exceptional coordinate, plus the
rows with a fiber or section part.  Its non-zero Gram entries, a forest,
and the pairings of any class with every generator are read from that
index, the latter in O(non-zero coordinates of the class).  The engine
and :func:`dual_graph` read these tables; the classes are built only on
request.  Both tables stay on the valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cluster import NON_SPECIAL, SPECIAL, DivisorialValuation
from .errors import DimensionMismatch, NotATree


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

    ``names`` and ``rows`` run in the fixed order ``F1``, ``M0``,
    optionally ``M1`` (non-special valuations only), then ``E1 .. Er``.
    Row ``k`` holds the integer coordinates ``(f, m, e)`` of generator
    ``k``, with ``e`` mapping the index of each non-zero exceptional
    coordinate (from 0) to its value: at most three entries for an
    exceptional curve, a chain for the fiber and the sections.
    """

    delta: int
    r: int
    names: tuple[str, ...]
    rows: tuple[tuple[int, int, dict[int, int]], ...]

    @cached_property
    def classes(self) -> tuple[DivisorClassZ, ...]:
        """The generators as classes, built on first read."""
        return tuple(
            div_class(self.delta, f, m, [e.get(j, 0) for j in range(self.r)])
            for f, m, e in self.rows
        )

    def items(self) -> tuple[tuple[str, DivisorClassZ], ...]:
        return tuple(zip(self.names, self.classes))

    @cached_property
    def index(self) -> dict[str, int]:
        """The position of each generator name."""
        return {name: k for k, name in enumerate(self.names)}

    def get(self, name: str) -> DivisorClassZ:
        return self.classes[self.index[name]]

    @cached_property
    def _columns(self) -> tuple[list[tuple[int, int, int]], dict[int, list[tuple[int, int]]]]:
        """The inverted column index, built on first use: the rows with a
        fiber or section part as ``(k, f, m)``, and for each exceptional
        coordinate the ``(k, value)`` of the generators non-zero there, a
        handful each on a basis of a valuation."""
        based = [(k, f, m) for k, (f, m, _) in enumerate(self.rows) if f or m]
        sharing: dict[int, list[tuple[int, int]]] = {}
        for k, (_, _, e) in enumerate(self.rows):
            for j, v in e.items():
                sharing.setdefault(j, []).append((k, v))
        return based, sharing

    @cached_property
    def sparse_gram(self) -> tuple[dict[int, int], ...]:
        """The non-zero Gram entries of each generator, diagonal included,
        as ``{column: value}``, built on first use.

        Two generators pair to non-zero only through their fiber and
        section coordinates or through a shared exceptional coordinate, so
        the entries come from the column index in O(r) on a basis of a
        valuation.
        """
        delta = self.delta
        based, sharing = self._columns
        gram: list[dict[int, int]] = [{} for _ in self.rows]
        for k, f, m in based:
            for l, g, n in based:
                gram[k][l] = f * n + m * g + delta * m * n
        for entries in sharing.values():
            for k, v in entries:
                row = gram[k]
                for l, w in entries:
                    row[l] = row.get(l, 0) - v * w
        return tuple({l: x for l, x in row.items() if x} for row in gram)

    def pairings(self, d: DivisorClassZ) -> tuple[list[int], int]:
        """The pairings of ``d`` with every generator, as integers over a scale.

        ``d`` is cleared to integers once, by the lcm of its coordinate
        denominators; the pairing with generator ``k`` is
        ``values[k] / scale``.  The column index gives them at the cost of
        the fiber and section rows plus the generators at the non-zero
        exceptional coordinates of ``d``.
        """
        if d.delta != self.delta or d.r != self.r:
            raise DimensionMismatch("classes live on different surfaces")
        e = [(j, x) for j, x in enumerate(d.e) if x]
        scale = lcm(d.f.denominator, d.m.denominator, *(x.denominator for _, x in e))
        f = d.f.numerator * (scale // d.f.denominator)
        m = d.m.numerator * (scale // d.m.denominator)
        delta = self.delta
        based, sharing = self._columns
        values = [0] * len(self.rows)
        for k, g, n in based:
            values[k] = f * n + m * g + delta * m * n
        for j, x in e:
            c = x.numerator * (scale // x.denominator)
            for k, v in sharing.get(j, ()):
                values[k] -= c * v
        return values, scale


def curve_basis(val: DivisorialValuation) -> CurveBasis:
    """The cone generators, built once per valuation: ``E_i`` is ``E_i*``
    less the ``E_j*`` of the points proximate to ``p_i``, and ``F1``, ``M0``
    and ``M1`` are pullbacks less the ``E_j*`` of their chains."""
    tables = val._tables
    if "basis" not in tables:
        delta, config = val.delta, val.config

        def chain(f, m, length):
            return f, m, dict.fromkeys(range(length), -1)

        names = ["F1", "M0"]
        rows = [chain(1, 0, config.n_f1)]
        if val.kind == NON_SPECIAL:
            rows += [chain(-delta, 1, 0), chain(0, 1, config.n_m)]
            names.append("M1")
        else:
            special = val.surface.point_kind == SPECIAL
            rows.append(chain(-delta, 1, config.n_m if special else 0))
        for i in range(1, val.r + 1):
            names.append(f"E{i}")
            e = {i - 1: 1}
            for j in config.proximate_to(i):
                e[j - 1] = -1
            rows.append((0, 0, e))
        tables["basis"] = CurveBasis(delta, val.r, tuple(names), tuple(rows))
    return tables["basis"]


def dual_graph(val: DivisorialValuation) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists of the exceptional curves, checked to form a tree."""
    if "graph" in val._tables:
        return val._tables["graph"]
    basis = curve_basis(val)
    r = val.r
    first = basis.index["E1"] - 1
    adj: list[list[int]] = [[] for _ in range(r + 1)]
    edges = 0
    for i in range(1, r + 1):
        row = basis.sparse_gram[first + i]
        for j in sorted(k - first for k in row if k - first > i):
            p = row[first + j]
            if p != 1:
                raise NotATree(f"E{i}.E{j} = {p}")
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
    graph = val._tables["graph"] = tuple(tuple(a) for a in adj)
    return graph


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


def definiteness_failure(gram) -> tuple[int, int] | None:
    """The first leading principal minor of an integer Gram matrix whose sign
    breaks negative definiteness, as ``(order, minor)``, or ``None``.

    Fraction-free elimination without row exchanges (Bareiss 1968): pivot
    ``k`` is the leading principal minor of order ``k + 1`` and every
    division is exact.  The minor of order ``k`` of a negative definite
    matrix has sign ``(-1)^k``.
    """
    a = [list(row) for row in gram]
    n = len(a)
    prev = 1
    for k in range(n):
        row = a[k]
        p = row[k]
        if p == 0 or (p > 0) != (k % 2 == 1):
            return k + 1, p
        for i in range(k + 1, n):
            other = a[i]
            f = other[k]
            for j in range(k + 1, n):
                other[j] = (p * other[j] - f * row[j]) // prev
        prev = p
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
