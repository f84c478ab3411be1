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
``nu(phi_i) = m_i + nu(phi_{i-1}) + nu(phi_{extra(i)})``; over the runs
each costs a few slice operations per run.  Each configuration keeps its
curvette-value rows and its stage-``r`` multiplicities.  Pairing the
materialised truncated multiplicity vectors gives the same values in
O(r^2) per stage; the tests keep that route as an oracle.

The rows carry everything else: the numbers of a stage that the
non-positivity test and the constant read are entries of its row
(:func:`_stage`), and so are the maximal contact values, so no production
route builds a truncated valuation.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import accumulate, groupby, islice, repeat
from math import gcd
from operator import add, attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

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
        if delta < 0:
            raise ValueError("delta must be a non-negative integer")
        if point_kind not in (SPECIAL, GENERAL):
            raise ValueError(f"unknown point kind {point_kind!r}")
        if delta == 0 and point_kind != SPECIAL:
            raise ValueError("every point of the delta=0 surface is special")
        vars(self).update(delta=delta, point_kind=point_kind)


def _stretches(extras: Sequence[int | None]) -> Iterable[tuple[int | None, int, int]]:
    """The maximal stretches ``p_first, ..., p_last`` of points that share
    one ``extra``, as ``(extra, first, last)``."""
    last = 0
    for extra, group in groupby(extras):
        first = last + 1
        last += len(list(group))
        yield extra, first, last


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
        # Derived per instance and left out of equality and hashing: ``last(i)``
        # for every point whose run holds satellites, in increasing ``i`` (the
        # satellites proximate to p_i are the stretch p_{i+2}..p_{last(i)} whose
        # extra is i); the stage-r multiplicities; the curvette rows by stage.
        last = {e: end for e, _, end in _stretches(extras) if e is not None}
        vars(self).update(extras=extras, n_f1=n_f1, n_m=n_m, _last=last, _m=None, _rows={})

    @property
    def r(self) -> int:
        return len(self.extras)

    def extra(self, i: int) -> int | None:
        return self.extras[i - 1]

    def proximate_to(self, i: int) -> tuple[int, ...]:
        """Indices of the points proximate to ``p_i``: the run
        ``p_{i+1}, ..., p_{last(i)}``."""
        return tuple(range(i + 1, self._last.get(i, min(i + 1, self.r)) + 1))

    def curvette_values(self, k: int) -> tuple[int, ...]:
        """Values ``nu_k(phi_1), ..., nu_k(phi_r)`` of the stage curvettes
        under the stage-``k`` valuation.

        Solves ``P^T v = m^(k)`` forwards: each value is the stage-``k``
        multiplicity (zero past ``k``) plus the value of the previous point
        and of its extra, one running sum per stretch of points that share
        their extra.
        """
        row = self._rows.get(k)
        if row is None:
            v = [0, *multiplicities(self, k), *repeat(0, self.r - k)]
            for extra, first, last in _stretches(self.extras):
                run = v[first : last + 1]
                if extra is not None:
                    run = map(add, run, repeat(v[extra]))
                v[first - 1 : last + 1] = accumulate(run, initial=v[first - 1])
            row = self._rows[k] = tuple(v[1:])
        return row


def _coerce_point(rec, index: int) -> tuple[int | None, int | None, bool, bool]:
    """A point record's declared parent, extra proximity and incidences."""
    if isinstance(rec, Mapping):
        known = {"parent", "extra_proximity", "on_f1", "on_m"}
        unknown = set(rec) - known
        if unknown:
            raise ChainBroken([f"p{index}: unknown fields {sorted(unknown)}"])
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

    violations = []
    prev_extra = None
    for i, extra in enumerate(extras, 1):
        parent = None if parents is None else parents[i - 1]
        if i == 1:
            if parent is not None:
                violations.append((ChainBroken, "p1 has no parent"))
        elif parent is not None and parent != i - 1:
            violations.append(
                (ChainBroken, f"parent of p{i} must be p{i - 1}, got p{parent}")
            )
        # A satellite point lies on the divisor two steps back or on the
        # one its predecessor is proximate to.
        if extra is not None and not (i >= 3 and extra in (i - 2, prev_extra)):
            violations.append((BadSatellite, f"p{i} cannot be proximate to p{extra}"))
        prev_extra = extra

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
    return Configuration(tuple(extras), len(f1), len(m))


def _check_point_count(r: int) -> None:
    if r > _POINT_CAP:
        raise TooManyPoints(f"r = {r} points exceed the cap of {_POINT_CAP}")


def truncate(config: Configuration, k: int) -> Configuration:
    """The configuration of the first ``k`` points."""
    if not 1 <= k <= config.r:
        raise ValueError(f"truncation index {k} out of range 1..{config.r}")
    return Configuration(config.extras[:k], min(config.n_f1, k), min(config.n_m, k))


def multiplicities(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Multiplicity vector of the valuation of the first ``r`` points.

    Solves the proximity equalities backwards over the runs: the last point
    has multiplicity one and points past ``r`` zero, a point whose run holds
    satellites takes the sum over its run, and every other point repeats
    the next one.  The stage-``config.r`` vector is kept on the
    configuration.  The last value of that stage sums the squared
    multiplicities, so a multiplicity whose square reaches the semigroup
    cap is refused as soon as it is filled, before the rest of the vector
    and any curvette row are built.
    """
    k = config.r if r is None else r
    if not 1 <= k <= config.r:
        raise ValueError(f"index {k} out of range 1..{config.r}")
    if k == config.r and config._m is not None:
        return config._m
    m = [0] * (config.r + 1)
    m[k] = 1
    filled = k  # m[filled:] is solved
    for i in reversed(config._last):
        if i < k:
            m[i + 1 : filled] = repeat(m[filled], filled - i - 1)
            m[i] = sum(m[i + 1 : config._last[i] + 1])
            if k == config.r and m[i] * m[i] >= _SEMIGROUP_VALUE_CAP:
                raise SemigroupOverflow(f"semigroup value bound {m[i] * m[i]} exceeds cap")
            filled = i
    m[1:filled] = repeat(m[filled], filled - 1)
    if k < config.r:
        return tuple(m[1 : k + 1])
    object.__setattr__(config, "_m", tuple(m[1:]))
    return config._m


def maximal_contact_values(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Minimal generators of the value semigroup, plus the final contact value.

    The generators are the values of the curvettes at the dead ends of the
    Enriques diagram: at ``p_1`` and at every free point whose successor is
    satellite (Spivakovsky, *Valuations in function fields of surfaces*,
    1990; Casas-Alvero, *Singularities of Plane Curves*, ch. 5).  The
    appended last entry is the self-pairing of the multiplicity vector, the
    reciprocal volume of the valuation.  All are entries of the stage-``r``
    row of :meth:`Configuration.curvette_values`, so no truncated
    configuration is built.
    """
    k = config.r if r is None else r
    row = config.curvette_values(k)
    total = row[k - 1]
    if total >= _SEMIGROUP_VALUE_CAP:
        # Decimal formats past the int-to-str digit limit of the process.
        raise SemigroupOverflow(f"semigroup value bound {Decimal(total)} exceeds cap")
    extras = config.extras
    generators = [row[0]]
    generators += (
        row[i - 1] for i in range(2, k) if extras[i - 1] is None and extras[i] is not None
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
        # ``_tables``: the curve basis, dual graph and last body, kept by the layers.
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
    row = config.curvette_values(k)
    n_f1 = min(config.n_f1, k)
    n_m = min(config.n_m, k)
    if surface.point_kind == GENERAL and surface.delta - n_m < 0:
        kind = NON_SPECIAL
    else:
        kind = SPECIAL
    phi_f1 = row[n_f1 - 1] if n_f1 else 0
    if n_m and (kind == NON_SPECIAL or surface.point_kind == SPECIAL):
        phi_m = row[n_m - 1]
    else:
        # The negative section misses a general center; curves declared in
        # on_m keep non-negative self-intersection and play no further role.
        phi_m = 0
    return _Stage(surface.delta, kind, phi_f1, phi_m, row[k - 1])


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
    return config.curvette_values(i)[j - 1]


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
    if eta not in targets:
        raise BadSatellite(
            [f"E{eta} does not meet E{r}; valid satellite positions: {sorted(targets)}"]
        )
    return FlagValuation(base, eta)

