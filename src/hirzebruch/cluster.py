"""Clusters of infinitely near points and their divisorial valuations.

A configuration records the centers ``p_1, ..., p_r`` of a chain of point
blow-ups starting at a closed point of a ruled surface, stored flat:
``extras`` holds, per point, the older exceptional divisor ``extra(i)`` a
satellite point also lies on, or ``None`` for a free point; ``n_f1`` and
``n_m`` count the points on the strict transforms of the fiber through
``p_1`` and of the distinguished section, both initial runs of free points.

A satellite ``p_j`` is proximate to ``p_{j-2}`` or to the point ``p_{j-1}``
is proximate to, so the points proximate to any ``p_i`` form one run
``p_{i+1}, ..., p_{last(i)}`` (Casas-Alvero, *Singularities of Plane
Curves*, ch. 4).  With ``P`` the proximity matrix, the multiplicities of
the stage-``k`` valuation solve ``P m = e_k`` and the values of the stage
curvettes solve ``P^T v = m``, that is
``nu(phi_i) = m_i + nu(phi_{i-1}) + nu(phi_{extra(i)})``.  The multiplicities
are constant between the points that own a satellite run, and a row is affine
wherever the multiplicity and the extra are constant, so a configuration keeps
its stretches of points sharing one extra and its rows as pieces by stage: a
row costs O(#stretches) and an entry one bisection, whatever ``r``.  Pairing
the materialised truncated multiplicity vectors gives the same values in
O(r^2) per stage; the tests keep that route as an oracle.

The rows carry everything else: the numbers of a stage that the
non-positivity test and the constant read are entries of its row
(:func:`_stage`), and so are the maximal contact values, so no production
route builds a truncated valuation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from decimal import Decimal
from itertools import groupby, islice, repeat
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    BadIncidence,
    BadSatellite,
    ChainBroken,
    NotRealizable,
    SemigroupOverflow,
    TooManyPoints,
    raise_config_errors,
)

SPECIAL = "special"
GENERAL = "general"
NON_SPECIAL = "non-special"

# Cap on the last contact value; larger germ values are refused.
_SEMIGROUP_VALUE_CAP = 1 << 24
# Cap on the number of points r, checked before any point is built.
_POINT_CAP = 1 << 16
# The fields a point record may hold; any other is refused.
_POINT_FIELDS = frozenset(("parent", "extra_proximity", "on_f1", "on_m"))


class _Record:
    """Base of the immutable records: each sets the fields named in ``_fields``
    and its caches in ``__init__``; equality (one class only), hash and repr read
    the fields.  Not a dataclass: its import costs a cold CLI call more than its work."""

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Surface(_Record):
    """A ruled surface of invariant ``delta`` with a marked closed point.

    ``point_kind`` records whether the marked point lies on the negative
    section.  For ``delta == 0`` every point is declared special and the
    distinguished section is the member of the second ruling through it.
    """

    _fields = ("delta", "point_kind")

    def __init__(self, delta: int, point_kind: str = SPECIAL):
        if type(delta) is not int or delta < 0:
            raise ValueError("delta must be a non-negative integer")
        if point_kind not in (SPECIAL, GENERAL):
            raise ValueError(f"unknown point kind {point_kind!r}")
        if delta == 0 and point_kind != SPECIAL:
            raise ValueError("every point of the delta=0 surface is special")
        vars(self).update(delta=delta, point_kind=point_kind)


class Configuration(_Record):
    """A validated chain of infinitely near points: ``extras[i - 1]`` is
    ``extra(i)``, and the fiber and section chains are ``p_1, ..., p_n_f1``
    and ``p_1, ..., p_n_m``.

    Build one with :func:`build_configuration` or :func:`from_maximal_contact`.
    Built directly, it is not checked: every ``extra(i)`` that is not ``None``
    must be ``i - 2`` or ``extra(i - 1)``, else the runs read from ``extras``
    give proximities, multiplicities and curvette rows of no cluster."""

    _fields = ("extras", "n_f1", "n_m")

    def __init__(self, extras: tuple[int | None, ...], n_f1: int, n_m: int):
        # Derived per instance and left out of equality and hashing: ``r``; each
        # maximal stretch of points sharing one extra, as its first point mapped to
        # that extra; ``last(i)`` for every point whose run holds satellites, in
        # increasing ``i`` (the satellites proximate to p_i are the stretch
        # p_{i+2}..p_{last(i)} with extra i); the rows by stage.
        firsts, last, end = {}, {}, 0
        for extra, group in groupby(extras):
            firsts[end + 1] = extra
            end += len(list(group))
            if extra is not None:
                last[extra] = end
        vars(self).update(
            extras=extras, n_f1=n_f1, n_m=n_m, r=end, _firsts=firsts, _last=last, _rows={}
        )

    def extra(self, i: int) -> int | None:
        return self.extras[i - 1]

    def proximate_to(self, i: int) -> tuple[int, ...]:
        """Indices of the points proximate to ``p_i``: the run
        ``p_{i+1}, ..., p_{last(i)}``."""
        return tuple(range(i + 1, self._last.get(i, min(i + 1, self.r)) + 1))

    def curvette_values(self, k: int) -> tuple[int, ...]:
        """Values ``nu_k(phi_1), ..., nu_k(phi_r)`` of the stage curvettes
        under the stage-``k`` valuation, expanded from the pieces of
        :func:`_row`."""
        starts, offsets, steps, _ = _row(self, k)
        v = []
        for a, b, c, step in zip(starts, (*starts[1:], self.r + 1), offsets, steps):
            v += (c + j * step for j in range(a, b))
        return tuple(v)


def _coerce_point(rec, index: int) -> tuple[int | None, int | None, bool, bool]:
    """A point record's declared parent, extra proximity and incidences."""
    if isinstance(rec, Mapping):
        if not _POINT_FIELDS.issuperset(rec):
            raise ChainBroken([f"p{index}: unknown fields {sorted(set(rec) - _POINT_FIELDS)}"])
        parent = rec.get("parent")
        extra = rec.get("extra_proximity")
        for name, value in (("parent", parent), ("extra_proximity", extra)):
            if isinstance(value, bool) or not isinstance(value, (int, type(None))):
                raise ChainBroken([f"p{index}: {name} must be an integer"])
        on_f1, on_m = rec.get("on_f1"), rec.get("on_m")
        # An incidence is true, false or absent; "false" or 0 must not
        # count by its truth value.
        for name, flag in (("on_f1", on_f1), ("on_m", on_m)):
            if not isinstance(flag, (bool, type(None))):
                raise ChainBroken([f"p{index}: {name} must be true or false"])
        return parent, extra, bool(on_f1), bool(on_m)
    raise ChainBroken([f"p{index}: unsupported point record {rec!r}"])


def build_configuration(surface: Surface, points: Sequence) -> Configuration:
    """Validate raw point records and assemble a :class:`Configuration`.

    Every violated constraint is collected; the raised error carries the
    full diagnostic list.  Too many points are refused before any record is
    read.
    """
    _check_point_count(len(points))
    records = [_coerce_point(rec, i) for i, rec in enumerate(points, 1)]
    parents, extras, on_f1, on_m = zip(*records) if records else ((),) * 4
    f1 = [i for i, flag in enumerate(on_f1, 1) if flag]
    m = [i for i, flag in enumerate(on_m, 1) if flag]
    return _validated(surface, extras, f1, m, parents)


def _validated(
    surface: Surface,
    extras: Sequence[int | None],
    f1: list[int],
    m: list[int],
    parents: Sequence[int | None] | None = None,
) -> Configuration:
    """Check flat point data against the chain, proximity and incidence
    rules and assemble the :class:`Configuration`.

    ``f1`` and ``m`` list the points on the fiber and on the section;
    ``parents`` holds each point's declared parent, ``None`` where none is
    declared; omitted, no point declares one.  Violations are collected in
    point order, each point's parent check before its satellite check, and
    the class of the first one is raised.
    """
    if not extras:
        raise ChainBroken(["a configuration needs at least one point"])
    config = Configuration(tuple(extras), len(f1), len(m))

    points = []  # (point, order, class, text)
    for i, parent in enumerate(parents or (), 1):
        if parent is not None and (i == 1 or parent != i - 1):
            text = f"parent of p{i} must be p{i - 1}, got p{parent}" if i > 1 else "p1 has no parent"
            points.append((i, 0, ChainBroken, text))
    # A satellite point lies on the divisor two steps back or on the one its
    # predecessor is proximate to.  Past p2 only the first point of a stretch
    # can break that rule: the others share their predecessor's extra.
    for i in sorted({*config._firsts, min(2, config.r)}):
        extra = extras[i - 1]
        if extra is not None and not (i >= 3 and extra in (i - 2, extras[i - 2])):
            points.append((i, 1, BadSatellite, f"p{i} cannot be proximate to p{extra}"))
    violations = [(cls, text) for _, _, cls, text in sorted(points)]

    if not f1 or f1[0] != 1:
        violations.append((BadIncidence, "the fiber through the center contains p1"))
    for name, chain in (("fiber", f1), ("section", m)):
        if chain and chain != list(range(1, len(chain) + 1)):
            violations.append(
                (BadIncidence, f"{name} incidences must form an initial chain")
            )
        for i in chain:
            if i > 1 and extras[i - 1] is not None:
                violations.append(
                    (BadIncidence, f"{name} chain contains the satellite point p{i}")
                )
    if surface.point_kind == SPECIAL and 1 not in m:
        violations.append(
            (BadIncidence, "the distinguished section contains p1 for this center")
        )
    if len(f1) > 1 and len(m) > 1:
        violations.append(
            (BadIncidence, "fiber and section germs separate after one blow-up")
        )

    raise_config_errors(violations)
    return config


def _check_point_count(r: int) -> None:
    if r > _POINT_CAP:
        raise TooManyPoints(f"r = {r} points exceed the cap of {_POINT_CAP}")


def truncate(config: Configuration, k: int) -> Configuration:
    """The configuration of the first ``k`` points."""
    if not 1 <= k <= config.r:
        raise ValueError(f"truncation index {k} out of range 1..{config.r}")
    return Configuration(config.extras[:k], min(config.n_f1, k), min(config.n_m, k))


def multiplicities(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Multiplicity vector of the valuation of the first ``r`` points,
    expanded from the pieces of its curvette row."""
    k = config.r if r is None else r
    starts, _, _, mults = _row(config, k)
    m = []
    for a, b, x in zip(starts, (*starts[1:], config.r + 1), mults):
        m += [x] * (b - a)
    del m[k:]
    return tuple(m)


def _row(config: Configuration, k: int) -> tuple[list[int], ...]:
    """The stage-``k`` curvette row as pieces ``(starts, offsets, steps,
    mults)``: from ``starts[p]`` up to the next start, entry ``j`` is
    ``offsets[p] + j * steps[p]`` and the multiplicity ``mults[p]``.

    A backward pass solves ``P m = e_k`` as segments: the last point has
    multiplicity one, points past ``k`` zero, a point whose run holds
    satellites the sum over its run, read off the suffix sums of the
    segments solved, and every other point that of the next one.  At stage
    ``config.r``, whose last value sums the squared multiplicities, one whose
    square reaches the semigroup cap is refused as soon as it is solved.  A
    forward pass over the starts of the segments and stretches solves
    ``P^T v = m``, reading the value at a stretch's extra from the pieces
    already built.  Kept on the configuration by stage.
    """
    row = config._rows.get(k)
    if row is None:
        if not 1 <= k <= config.r:
            raise ValueError(f"index {k} out of range 1..{config.r}")
        # Segments by decreasing start, each with the sum from its start on;
        # m is held from the point after the next owner up to the last start.
        starts, values, sums, m = [k + 1], [0], [0], 1
        for i, last in reversed(config._last.items()):
            if i < k:
                s = sums[-1] + (starts[-1] - i - 1) * m
                starts.append(i + 1)
                values.append(m)
                sums.append(s)
                j, t = min(last, k) + 1, len(starts) - 1
                while t and starts[t - 1] <= j:
                    t -= 1
                m = s - sums[t] + (j - starts[t]) * values[t]
                if k == config.r and m * m >= _SEMIGROUP_VALUE_CAP:
                    raise SemigroupOverflow(f"semigroup value bound {m * m} exceeds cap")
        seg = dict(zip(starts, values))
        seg[1] = m
        firsts = config._firsts
        cuts = sorted({*firsts, *seg, config.r + 1})
        row = cuts[:-1], [], [], []
        _, offsets, steps, mults = row
        v = at_extra = 0  # v: the entry before the piece
        for a, b in zip(cuts, cuts[1:]):
            m = seg.get(a, m)
            if a in firsts:
                extra = firsts[a]
                at_extra = 0 if extra is None else _entry(row, extra)
            offsets.append(v - (a - 1) * (m + at_extra))
            steps.append(m + at_extra)
            mults.append(m)
            v += (b - a) * (m + at_extra)
        config._rows[k] = row
    return row


def _entry(row: tuple[list[int], ...], j: int) -> int:
    """Entry ``j`` of a row of :func:`_row`."""
    p = bisect_right(row[0], j) - 1
    return row[1][p] + j * row[2][p]


def _pair_ends(config: Configuration, i: int, k: int) -> list[tuple[int, int]]:
    """The pairs ``(nu_i(phi_j), nu_k(phi_j))`` at both ends ``j`` of each common
    piece of the stage-``i`` and stage-``k`` rows, where both are affine in ``j``."""
    x, y = _row(config, i), _row(config, k)
    cuts = sorted({*x[0], *y[0], config.r + 1})
    return [(_entry(x, j), _entry(y, j)) for a, b in zip(cuts, cuts[1:]) for j in {a, b - 1}]


def maximal_contact_values(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Minimal generators of the value semigroup, plus the final contact value.

    The generators are the values of the curvettes at the dead ends of the
    Enriques diagram: at ``p_1`` and at every free point whose successor is
    satellite (Spivakovsky, *Valuations in function fields of surfaces*,
    1990; Casas-Alvero, *Singularities of Plane Curves*, ch. 5).  The
    appended last entry is the self-pairing of the multiplicity vector, the
    reciprocal volume of the valuation.  All are entries of the stage-``r``
    row of :func:`_row`, and a satellite after a free point starts a
    stretch, so each dead end is the point before the start of a piece.  No
    truncated configuration is built.
    """
    k = config.r if r is None else r
    row = _row(config, k)
    total = _entry(row, k)
    if total >= _SEMIGROUP_VALUE_CAP:
        # Decimal formats past the int-to-str digit limit of the process.
        raise SemigroupOverflow(f"semigroup value bound {Decimal(total)} exceeds cap")
    starts, offsets, steps, _ = row
    extras = config.extras
    generators = [offsets[0] + steps[0]]
    generators += (
        c + (a - 1) * step
        for a, c, step in zip(starts, offsets, steps)
        if 3 <= a <= k and extras[a - 1] is not None and extras[a - 2] is None
    )
    g = gcd(*generators)
    if g != 1:
        raise NotRealizable(f"value semigroup has non-trivial content {g}")
    return (*generators, total)


def _euclid_steps(a: int, b: int) -> Iterable[tuple[int, int]]:
    # Staircase of a single Puiseux step: each division quotient repeats the
    # smaller entry that many times, stopping at the gcd.  Yields
    # (entry, quotient) pairs, so the length is known without expanding.
    while b:
        q, rem = divmod(a, b)
        yield b, q
        a, b = b, rem


def _extras_from_steps(steps: list[tuple[int, int]], r: int) -> list[int | None]:
    """``extras`` of the points whose multiplicities repeat each ``x`` of
    ``steps`` ``q`` times, refused where no proximity solves the equalities
    ``m_i = sum of the run of p_i``.

    Inside a step the next point has the same multiplicity, so its run is
    one point; only the last point of a step walks the later steps, and its
    satellites are filled as one slice.
    """
    extras: list[int | None] = [None] * r
    marked = 0  # the last point an earlier run made a satellite
    i = 0
    for k, (x, q) in enumerate(steps):
        i += q
        if i == r:
            break
        s, j = 0, i
        for y, c in islice(steps, k + 1, None):
            t = min(c, -((s - x) // y))
            s, j = s + t * y, j + t
            if s >= x:
                break
        if j >= i + 2 and marked >= i + 2:
            raise NotRealizable(
                f"conflicting proximities for p{i + 2} in {_expand(steps)}"
            )
        if s != x:
            raise NotRealizable(
                f"proximity equality at p{i} unsolvable for {_expand(steps)}"
            )
        extras[i + 1 : j] = repeat(i, j - i - 1)
        marked = max(marked, j)
    return extras


def _expand(steps: list[tuple[int, int]]) -> list[int]:
    return [x for x, q in steps for _ in range(q)]


def from_maximal_contact(
    surface: Surface,
    beta_bar: Sequence[int],
    on_f1: int = 1,
    on_m: int | None = None,
) -> Configuration:
    """Reconstruct a configuration from its maximal contact values.

    The generator quotients are expanded into Euclidean staircases, one per
    satellite block; a shortfall of the final value against the blocks is
    filled with trailing free points.  The result is validated by an exact
    round trip through :func:`maximal_contact_values`.  A final value at or
    above the semigroup cap, or more points than the point cap, is refused
    before any point is built.

    ``on_f1`` and ``on_m`` give the lengths of the fiber and section chains;
    incidences are not determined by the value data.
    """
    seq = [int(x) for x in beta_bar]
    if len(seq) < 2:
        raise NotRealizable("need at least the first and last contact values")
    if any(x <= 0 for x in seq):
        raise NotRealizable("contact values must be positive")
    gens, total = seq[:-1], seq[-1]
    if any(x >= y for x, y in zip(gens, gens[1:])):
        raise NotRealizable("semigroup generators must strictly increase")

    e = [gens[0]]
    for v in gens[1:]:
        e.append(gcd(e[-1], v))
    if e[-1] != 1:
        raise NotRealizable("generators have non-trivial common divisor")
    g = len(gens) - 1
    for j in range(1, g + 1):
        if e[j] == e[j - 1]:
            raise NotRealizable(f"generator {gens[j]} is redundant")
    for j in range(1, g):
        if gens[j + 1] <= (e[j - 1] // e[j]) * gens[j]:
            raise NotRealizable("generators do not increase strongly enough")

    if total >= _SEMIGROUP_VALUE_CAP:
        raise SemigroupOverflow(f"final contact value {total} exceeds cap")
    blocks = []
    if g >= 1:
        blocks.append((gens[1], gens[0]))
        for j in range(2, g + 1):
            n = e[j - 2] // e[j - 1]
            blocks.append((gens[j] - n * gens[j - 1], e[j - 1]))
    # The staircase of (a, b) has squared multiplicities summing to a * b, so
    # the tail is known before anything is expanded.
    tail = total - sum(a * b for a, b in blocks)
    if tail < 0:
        raise NotRealizable("final contact value is smaller than the blocks allow")
    steps = [(x, q) for a, b in blocks for x, q in _euclid_steps(a, b) if q]
    if tail:
        steps.append((1, tail))
    r = sum(q for _, q in steps)
    _check_point_count(r)

    extras = _extras_from_steps(steps, r)
    if on_m is None:
        on_m = 1 if surface.point_kind == SPECIAL else 0
    f1 = list(range(1, min(on_f1, r) + 1))
    m = list(range(1, min(on_m, r) + 1))
    config = _validated(surface, extras, f1, m)
    if maximal_contact_values(config) != tuple(seq):
        raise NotRealizable("round trip through the value semigroup failed")
    return config


class DivisorialValuation(_Record):
    """A divisorial valuation with its derived invariants.

    ``m`` is the multiplicity vector, ``beta_bar`` the maximal contact
    values, ``phi_f1`` and ``phi_m`` the values of the fiber and of the
    distinguished section germs.  For a special valuation centered off the
    negative section, ``phi_m`` is zero.
    """

    _fields = ("surface", "config", "r", "m", "beta_bar", "phi_f1", "phi_m", "kind")

    def __init__(
        self, surface: Surface, config: Configuration, r: int, m: tuple[int, ...],
        beta_bar: tuple[int, ...], phi_f1: int, phi_m: int, kind: str,
    ):
        # ``_tables``: the curve basis and the last body, kept by the layers.
        vars(self).update(
            surface=surface, config=config, r=r, m=m, beta_bar=beta_bar,
            phi_f1=phi_f1, phi_m=phi_m, kind=kind, _tables={},
        )

    @property
    def delta(self) -> int:
        return self.surface.delta

    @property
    def is_special(self) -> bool:
        return self.kind == SPECIAL

    @property
    def last_contact(self) -> int:
        return self.beta_bar[-1]


class _Stage(NamedTuple):
    """What the non-positivity test and the constant read of the stage-``k``
    valuation: its fiber and section values, last value and kind."""

    delta: int
    kind: str
    phi_f1: int
    phi_m: int
    last_contact: int

    @property
    def is_special(self) -> bool:
        return self.kind == SPECIAL


def _stage(surface: Surface, config: Configuration, k: int) -> _Stage:
    """The stage-``k`` numbers of a configuration, read from one curvette row.

    Both chains are initial runs of free points, so the germ along a chain
    is the curvette at its last point ``j <= k``; by symmetry of the
    curvette pairing its stage-``k`` value is entry ``j`` of the stage-``k``
    row, and the last value is entry ``k``.  No truncated configuration is
    built.
    """
    row = _row(config, k)
    n_f1 = min(config.n_f1, k)
    n_m = min(config.n_m, k)
    general = surface.point_kind == GENERAL
    kind = NON_SPECIAL if general and surface.delta - n_m < 0 else SPECIAL
    phi_f1 = _entry(row, n_f1) if n_f1 else 0
    if n_m and (kind == NON_SPECIAL or not general):
        phi_m = _entry(row, n_m)
    else:
        # The negative section misses a general center; curves declared in
        # on_m keep non-negative self-intersection and play no further role.
        phi_m = 0
    return _Stage(surface.delta, kind, phi_f1, phi_m, _entry(row, k))


def divisorial_valuation(surface: Surface, config: Configuration) -> DivisorialValuation:
    beta = maximal_contact_values(config)
    _, kind, phi_f1, phi_m, _ = _stage(surface, config, config.r)
    m = multiplicities(config)
    return DivisorialValuation(surface, config, config.r, m, beta, phi_f1, phi_m, kind)


def npi_excess(val: DivisorialValuation | _Stage) -> int:
    """Excess of ``2*phi_m*phi_f1 + delta*phi_f1**2`` over ``beta_bar[-1]``.

    Non-special valuations take the opposite sign on the quadratic term.
    The valuation is non-positive at infinity when the excess is
    non-negative, and never minimal when it is positive.  A stage record
    of a truncation is read the same way.
    """
    sign = 1 if val.is_special else -1
    quad = sign * val.delta * val.phi_f1 * val.phi_f1
    return 2 * val.phi_m * val.phi_f1 + quad - val.last_contact


def is_npi(val: DivisorialValuation) -> bool:
    """Exact test for non-positivity at infinity."""
    return npi_excess(val) >= 0


def truncate_valuation(val: DivisorialValuation, k: int) -> DivisorialValuation:
    """The valuation of the first ``k`` points; the tests' oracle for
    :func:`_stage`."""
    return divisorial_valuation(val.surface, truncate(val.config, k))


def truncation_pairing(config: Configuration, i: int, j: int) -> int:
    """Noether pairing of two stages: the value of one curvette under the
    other truncated valuation (symmetric in ``i`` and ``j``)."""
    r = config.r
    for x in (i, j):
        if not 0 < x <= r:
            raise ValueError(f"index {x} out of range 1..{r}")
    return _entry(_row(config, i), j)


class FlagValuation(_Record):
    """A divisorial valuation with a marked point on its last exceptional divisor.

    ``eta`` names the older exceptional divisor through the flag point when
    that point is satellite; a free flag point is generic on the last
    divisor.
    """

    _fields = ("base", "eta")

    def __init__(self, base: DivisorialValuation, eta: int | None = None):
        vars(self).update(base=base, eta=eta)

    @property
    def is_satellite(self) -> bool:
        return self.eta is not None


def flag_valuation(base: DivisorialValuation, eta: int | None = None) -> FlagValuation:
    if eta is None:
        return FlagValuation(base, None)
    r = base.r
    targets = set()
    if r >= 2:
        targets.add(r - 1)
    extra = base.config.extra(r)
    if extra is not None:
        targets.add(extra)
    if type(eta) is not int or eta not in targets:
        raise BadSatellite(
            [f"E{eta!r} does not meet E{r}; valid satellite positions: {sorted(targets)}"]
        )
    return FlagValuation(base, eta)

