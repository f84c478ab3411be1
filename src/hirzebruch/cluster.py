"""Clusters of infinitely near points and their divisorial valuations.

A configuration records the centers ``p_1, ..., p_r`` of a chain of point
blow-ups starting at a closed point of a ruled surface, together with two
kinds of combinatorial data:

* proximity: ``p_{i+1}`` always lies on the exceptional divisor of ``p_i``;
  a *satellite* point additionally lies on the strict transform of one older
  exceptional divisor, recorded in ``extra``;
* incidence: whether a point lies on the strict transform of the fiber
  through ``p_1`` (``on_f1``) or of the distinguished section (``on_m``).

Everything else is derived from this data by exact integer arithmetic: the
multiplicity vector of the associated divisorial valuation, values of curve
germs, the minimal generators of the value semigroup, the special or
non-special classification and the non-positivity-at-infinity test.

With ``P`` the proximity matrix, the multiplicities of the stage-``k``
valuation solve ``P m = e_k`` and the values of the stage curvettes solve
``P^T v = m``; since ``p_i`` is proximate to ``p_{i-1}`` and to
``p_{extra(i)}``, the latter reads
``nu(phi_i) = m_i + nu(phi_{i-1}) + nu(phi_{extra(i)})`` and costs O(r) per
stage.  Each configuration builds its proximity lists once and keeps the
curvette-value rows it has computed.  Pairing the materialised truncated
multiplicity vectors gives the same values in O(r^2) per stage; the tests
keep that route as an oracle.

The rows carry everything else too.  The numbers of a stage that the
non-positivity test and the constant read (fiber and section values, last
value, kind) are entries of its row (:func:`_stage`), so no production
route builds a truncated valuation.  The semigroup sieve looks each row
value up in a byte snapshot of the reached sums, retaken only when a
generator joins: O(g * beta_bar[-1]) bit work for ``g`` generators plus
O(r).  Points rebuilt from maximal contact values skip the record parser
and go through the same validation as parsed records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadIncidence,
    BadSatellite,
    ChainBroken,
    DimensionMismatch,
    NotRealizable,
    NotSatellite,
    SemigroupOverflow,
    TooManyPoints,
    raise_config_errors,
)

SPECIAL = "special"
GENERAL = "general"
NON_SPECIAL = "non-special"

# Bit width cap for the semigroup sieve; germ values beyond this are refused.
_SEMIGROUP_VALUE_CAP = 1 << 24
# Cap on the number of points r, checked before any point is built.
_POINT_CAP = 1 << 16


@dataclass(frozen=True)
class Surface:
    """A ruled surface of invariant ``delta`` with a marked closed point.

    ``point_kind`` records whether the marked point lies on the negative
    section.  For ``delta == 0`` every point is declared special and the
    distinguished section is the member of the second ruling through it.
    """

    delta: int
    point_kind: str = SPECIAL

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be a non-negative integer")
        if self.point_kind not in (SPECIAL, GENERAL):
            raise ValueError(f"unknown point kind {self.point_kind!r}")
        if self.delta == 0 and self.point_kind != SPECIAL:
            raise ValueError("every point of the delta=0 surface is special")


@dataclass(frozen=True)
class ClusterPoint:
    extra: int | None = None
    on_f1: bool = False
    on_m: bool = False


@dataclass(frozen=True)
class Configuration:
    """A validated chain of infinitely near points."""

    points: tuple[ClusterPoint, ...]
    # Derived per instance and left out of equality and hashing: the
    # proximity lists, the curvette-value rows by stage, and the sieved
    # maximal contact values by stage.
    _prox: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _rows: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _values: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        prox: list[list[int]] = [[] for _ in self.points]
        for j, p in enumerate(self.points, 1):
            if j > 1:
                prox[j - 2].append(j)
            if p.extra is not None:
                prox[p.extra - 1].append(j)
        object.__setattr__(self, "_prox", tuple(map(tuple, prox)))

    @property
    def r(self) -> int:
        return len(self.points)

    def extra(self, i: int) -> int | None:
        return self.points[i - 1].extra

    def is_free(self, i: int) -> bool:
        return self.points[i - 1].extra is None

    def proximate_to(self, i: int) -> tuple[int, ...]:
        """Indices of the points proximate to ``p_i``."""
        return self._prox[i - 1]

    def curvette_values(self, k: int) -> tuple[int, ...]:
        """Values ``nu_k(phi_1), ..., nu_k(phi_r)`` of the stage curvettes
        under the stage-``k`` valuation.

        Solves ``P^T v = m^(k)`` forwards: each value is the stage-``k``
        multiplicity (zero past ``k``) plus the values of the points it is
        proximate to.
        """
        row = self._rows.get(k)
        if row is None:
            v = list(multiplicities(self, k)) + [0] * (self.r - k)
            for i, prox in enumerate(self._prox):
                for j in prox:
                    v[j - 1] += v[i]
            row = self._rows[k] = tuple(v)
        return row

    @property
    def f1_chain(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.points, 1) if p.on_f1)

    @property
    def m_chain(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.points, 1) if p.on_m)


def _coerce_point(rec, index: int) -> tuple[int | None, ClusterPoint]:
    """The declared parent of a point record and the point it describes."""
    if isinstance(rec, ClusterPoint):
        return None, rec
    if isinstance(rec, Mapping):
        known = {"parent", "extra_proximity", "extra", "on_f1", "on_m"}
        unknown = set(rec) - known
        if unknown:
            raise ChainBroken([f"p{index}: unknown fields {sorted(unknown)}"])
        extra = rec.get("extra_proximity", rec.get("extra"))
        if isinstance(extra, bool) or not isinstance(extra, (int, type(None))):
            raise ChainBroken([f"p{index}: extra_proximity must be an integer"])
        on_f1, on_m = rec.get("on_f1"), rec.get("on_m")
        # An incidence is true, false or absent; "false" or 0 must not
        # count by its truth value.
        for name, flag in (("on_f1", on_f1), ("on_m", on_m)):
            if not isinstance(flag, (bool, type(None))):
                raise ChainBroken([f"p{index}: {name} must be true or false"])
        return rec.get("parent"), ClusterPoint(extra, bool(on_f1), bool(on_m))
    raise ChainBroken([f"p{index}: unsupported point record {rec!r}"])


def build_configuration(surface: Surface, points: Sequence) -> Configuration:
    """Validate raw point records and assemble a :class:`Configuration`.

    Every violated constraint is collected; the raised error carries the
    full diagnostic list.  Too many points are refused before any record is
    read.
    """
    _check_point_count(len(points))
    records = [_coerce_point(rec, i) for i, rec in enumerate(points, 1)]
    return _validated(
        surface, [p for _, p in records], [parent for parent, _ in records]
    )


def _validated(
    surface: Surface,
    pts: Sequence[ClusterPoint],
    parents: Sequence[int | None] | None = None,
) -> Configuration:
    """Check built points against the chain, proximity and incidence rules
    and assemble the :class:`Configuration`.

    ``parents`` holds each point's declared parent, ``None`` where none is
    declared; omitted, no point declares one.  Violations are collected in
    point order, each point's parent check before its satellite check, and
    the class of the first one is raised.
    """
    if not pts:
        raise ChainBroken(["a configuration needs at least one point"])

    violations = []
    prev_extra = None
    for i, p in enumerate(pts, 1):
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
        extra = p.extra
        if extra is not None and not (i >= 3 and extra in (i - 2, prev_extra)):
            violations.append((BadSatellite, f"p{i} cannot be proximate to p{extra}"))
        prev_extra = extra

    f1 = [i for i, p in enumerate(pts, 1) if p.on_f1]
    m = [i for i, p in enumerate(pts, 1) if p.on_m]
    if not f1 or f1[0] != 1:
        violations.append((BadIncidence, "the fiber through the center contains p1"))
    for name, chain in (("fiber", f1), ("section", m)):
        if chain and chain != list(range(1, len(chain) + 1)):
            violations.append(
                (BadIncidence, f"{name} incidences must form an initial chain")
            )
        for i in chain:
            if i > 1 and pts[i - 1].extra is not None:
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
    return Configuration(tuple(pts))


def _check_point_count(r: int) -> None:
    if r > _POINT_CAP:
        raise TooManyPoints(f"r = {r} points exceed the cap of {_POINT_CAP}")


def truncate(config: Configuration, k: int) -> Configuration:
    """The configuration of the first ``k`` points."""
    if not 1 <= k <= config.r:
        raise ValueError(f"truncation index {k} out of range 1..{config.r}")
    return Configuration(config.points[:k])


def multiplicities(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Multiplicity vector of the valuation of the first ``r`` points.

    Solves the proximity equalities backwards: the last point has
    multiplicity one and each earlier multiplicity is the sum over the
    points proximate to it.  Points past ``r`` keep multiplicity zero, so
    the full proximity lists serve every stage.
    """
    r = config.r if r is None else r
    if not 1 <= r <= config.r:
        raise ValueError(f"index {r} out of range 1..{config.r}")
    m = [0] * (config.r + 1)
    m[r] = 1
    prox = config._prox
    for i in range(r - 1, 0, -1):
        m[i] = sum(map(m.__getitem__, prox[i - 1]))
    return tuple(m[1 : r + 1])


@dataclass(frozen=True)
class GermVector:
    """Multiplicities of a curve germ at the points of a configuration."""

    mult: tuple[int, ...]

    def __add__(self, other: "GermVector") -> "GermVector":
        if len(self.mult) != len(other.mult):
            raise DimensionMismatch("germ vectors index different configurations")
        return GermVector(tuple(x + y for x, y in zip(self.mult, other.mult)))

    def scale(self, k: int) -> "GermVector":
        return GermVector(tuple(k * x for x in self.mult))


def germ_vector(config: Configuration, mult: Iterable[int]) -> GermVector:
    """Validate germ multiplicities against the proximity inequalities."""
    v = tuple(int(x) for x in mult)
    if len(v) != config.r:
        raise DimensionMismatch(
            f"expected {config.r} multiplicities, got {len(v)}"
        )
    if any(x < 0 for x in v):
        raise ValueError("germ multiplicities must be non-negative")
    for i in range(1, config.r + 1):
        s = sum(v[j - 1] for j in config.proximate_to(i))
        if v[i - 1] < s:
            raise ValueError(f"proximity inequality fails at p{i}: {v[i - 1]} < {s}")
    return GermVector(v)


def curvette(config: Configuration, i: int) -> GermVector:
    """Generic irreducible germ whose resolution ends transversally at stage ``i``.

    Its multiplicities are those of the truncated valuation, padded by zeros.
    """
    return GermVector(multiplicities(config, i) + (0,) * (config.r - i))


def fiber_germ(config: Configuration) -> GermVector:
    """Germ of the fiber through the center (multiplicity one along its chain)."""
    return GermVector(tuple(1 if p.on_f1 else 0 for p in config.points))


def section_germ(config: Configuration) -> GermVector:
    """Germ of the declared section through the center (zero if it misses it)."""
    return GermVector(tuple(1 if p.on_m else 0 for p in config.points))


def maximal_contact_values(config: Configuration, r: int | None = None) -> tuple[int, ...]:
    """Minimal generators of the value semigroup, plus the final contact value.

    Valid germs correspond one-to-one with non-negative combinations of the
    curvettes at the cluster points (the proximity excesses are the
    coefficients), so the value semigroup is generated by the curvette
    values.  The minimal generating set is extracted with an exact
    subset-sum sieve (:func:`_sieve`); the appended last entry is the
    self-pairing of the multiplicity vector, the reciprocal volume of the
    valuation.  Both are read from :meth:`Configuration.curvette_values`,
    so no truncated configuration is built.  The sieve runs once per stage
    and configuration; its result is kept on the configuration.
    """
    r = config.r if r is None else r
    if r not in config._values:
        config._values[r] = _sieve(config.curvette_values(r)[:r])
    return config._values[r]


def _sieve(row: Sequence[int]) -> tuple[int, ...]:
    """Minimal generators of the semigroup spanned by ``row``, plus its last
    entry ``total``, which no entry exceeds.

    ``reach`` holds the sums up to ``total`` reached so far as bits.  Each
    entry is looked up in a little-endian byte snapshot of it, taken again
    only when a generator joins, so the sieve costs O(g * total) bit work
    for ``g`` generators plus O(1) per entry, where a shift of ``reach``
    per entry would cost O(r * total).
    """
    total = row[-1]
    if total >= _SEMIGROUP_VALUE_CAP:
        raise SemigroupOverflow(f"semigroup value bound {total} exceeds cap")
    size = total // 8 + 1
    mask = (1 << (total + 1)) - 1
    reach = 1
    snapshot = reach.to_bytes(size, "little")
    generators = []
    for v in sorted(set(row)):
        if snapshot[v >> 3] >> (v & 7) & 1:
            continue
        generators.append(v)
        step = v
        while step <= total:
            reach |= (reach << step) & mask
            step <<= 1
        snapshot = reach.to_bytes(size, "little")
    g = 0
    for v in generators:
        g = gcd(g, v)
    if g != 1:
        raise NotRealizable(f"value semigroup has non-trivial content {g}")
    return tuple(generators) + (total,)


def _euclid_steps(a: int, b: int) -> Iterable[tuple[int, int]]:
    # Staircase of a single Puiseux step: each division quotient repeats the
    # smaller entry that many times, stopping at the gcd.  Yields
    # (entry, quotient) pairs, so the length is known without expanding.
    while b:
        q, rem = divmod(a, b)
        yield b, q
        a, b = b, rem


def _euclid_multiplicities(a: int, b: int) -> list[int]:
    return [x for x, q in _euclid_steps(a, b) for _ in range(q)]


def _proximities_from_multiplicities(mults: Sequence[int]) -> list[int | None]:
    r = len(mults)
    extras: list[int | None] = [None] * (r + 1)
    for i in range(1, r):
        s = 0
        j = i + 1
        while j <= r and s < mults[i - 1]:
            s += mults[j - 1]
            if j > i + 1:
                if extras[j] is not None:
                    raise NotRealizable(
                        f"conflicting proximities for p{j} in {list(mults)}"
                    )
                extras[j] = i
            j += 1
        if s != mults[i - 1]:
            raise NotRealizable(
                f"proximity equality at p{i} unsolvable for {list(mults)}"
            )
    return extras


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
    _check_point_count(
        tail + sum(q for a, b in blocks for _, q in _euclid_steps(a, b))
    )
    mults = [x for a, b in blocks for x in _euclid_multiplicities(a, b)]
    mults.extend([1] * tail)
    if not mults:
        raise NotRealizable("empty configuration")

    extras = _proximities_from_multiplicities(mults)
    if on_m is None:
        on_m = 1 if surface.point_kind == SPECIAL else 0
    points = [
        ClusterPoint(extras[i], i <= on_f1, i <= on_m) for i in range(1, len(mults) + 1)
    ]
    config = _validated(surface, points)
    if maximal_contact_values(config) != tuple(seq):
        raise NotRealizable("round trip through the value semigroup failed")
    return config


@dataclass(frozen=True)
class DivisorialValuation:
    """A divisorial valuation with its derived invariants.

    ``m`` is the multiplicity vector, ``beta_bar`` the maximal contact
    values, ``phi_f1`` and ``phi_m`` the values of the fiber and of the
    distinguished section germs.  For a special valuation centered off the
    negative section, ``phi_m`` is zero.
    """

    surface: Surface
    config: Configuration
    r: int
    m: tuple[int, ...]
    beta_bar: tuple[int, ...]
    phi_f1: int
    phi_m: int
    kind: str
    # The curve basis and the dual graph, kept per instance by ``lattice``.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    n_f1 = min(len(config.f1_chain), k)
    n_m = min(len(config.m_chain), k)
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


def classify(val: DivisorialValuation) -> str:
    """``special`` or ``non-special``, from the center and the section chain."""
    return val.kind


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


def germ_value(val: DivisorialValuation, germ: GermVector) -> int:
    """Value of a germ under the valuation: the product with the multiplicities."""
    if len(germ.mult) != val.r:
        raise DimensionMismatch(
            f"germ indexes {len(germ.mult)} points, valuation has {val.r}"
        )
    return sum(a * b for a, b in zip(germ.mult, val.m))


def truncate_valuation(val: DivisorialValuation, k: int) -> DivisorialValuation:
    """The valuation of the first ``k`` points; the tests' oracle for
    :func:`_stage`."""
    return divisorial_valuation(val.surface, truncate(val.config, k))


def truncation_pairing(config: Configuration, i: int, j: int) -> int:
    """Noether pairing of two stages: the value of one curvette under the
    other truncated valuation (symmetric in ``i`` and ``j``)."""
    return config.curvette_values(i)[j - 1]


@dataclass(frozen=True)
class FlagValuation:
    """A divisorial valuation with a marked point on its last exceptional divisor.

    ``eta`` names the older exceptional divisor through the flag point when
    that point is satellite; a free flag point is generic on the last
    divisor.
    """

    base: DivisorialValuation
    eta: int | None = None

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


def eta_valuation(flag: FlagValuation) -> DivisorialValuation:
    """The truncated valuation at the second divisor through the flag point."""
    if flag.eta is None:
        raise NotSatellite("a free flag point has no second exceptional divisor")
    return truncate_valuation(flag.base, flag.eta)
