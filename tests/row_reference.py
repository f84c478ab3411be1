"""Tuple-row reference for the tests: the multiplicities, curvette rows,
contact values and stage numbers of a configuration, built as full tuples
from ``extras`` alone, and the value-cone rays by ``Fraction`` slope keys.

Rows are solved with a few slice operations per stretch of points that share
one extra, O(r) per stage, the way the cluster layer did before it kept rows
as pieces.  Nothing here reads the tables a ``Configuration`` derives, so the
piece readers are checked against it.
"""

from fractions import Fraction
from itertools import accumulate, groupby, repeat
from math import gcd
from operator import add

from hirzebruch import GENERAL, NON_SPECIAL, SPECIAL, cluster
from hirzebruch.cluster import truncation_pairing
from hirzebruch.errors import NotRealizable, SemigroupOverflow


def stretches(extras):
    """``(extra, first, last)`` of each maximal stretch of points that share
    one extra."""
    last = 0
    for extra, group in groupby(extras):
        first = last + 1
        last += len(list(group))
        yield extra, first, last


def tuple_multiplicities(extras, k):
    """Stage-``k`` multiplicities, solved backwards over the runs; a
    stage-``r`` multiplicity whose square reaches the cap is refused."""
    r = len(extras)
    last = {e: end for e, _, end in stretches(extras) if e is not None}
    m = [0] * (r + 1)
    m[k] = 1
    filled = k
    for i in reversed(last):
        if i < k:
            m[i + 1 : filled] = repeat(m[filled], filled - i - 1)
            m[i] = sum(m[i + 1 : last[i] + 1])
            if k == r and m[i] * m[i] >= cluster._SEMIGROUP_VALUE_CAP:
                raise SemigroupOverflow(f"semigroup value bound {m[i] * m[i]} exceeds cap")
            filled = i
    m[1:filled] = repeat(m[filled], filled - 1)
    return tuple(m[1 : k + 1])


def tuple_row(extras, k):
    """The stage-``k`` curvette row, one running sum per stretch."""
    v = [0, *tuple_multiplicities(extras, k), *repeat(0, len(extras) - k)]
    for extra, first, last in stretches(extras):
        run = v[first : last + 1]
        if extra is not None:
            run = map(add, run, repeat(v[extra]))
        v[first - 1 : last + 1] = accumulate(run, initial=v[first - 1])
    return tuple(v[1:])


def tuple_contact_values(extras, k):
    """The dead-end generators of the stage-``k`` row and its last entry."""
    row = tuple_row(extras, k)
    total = row[k - 1]
    if total >= cluster._SEMIGROUP_VALUE_CAP:
        raise SemigroupOverflow(f"semigroup value bound {total} exceeds cap")
    generators = [row[0]]
    generators += (
        row[i - 1] for i in range(2, k) if extras[i - 1] is None and extras[i] is not None
    )
    g = gcd(*generators)
    if g != 1:
        raise NotRealizable(f"value semigroup has non-trivial content {g}")
    return (*generators, total)


def tuple_stage(surface, config, k):
    """``(delta, kind, phi_f1, phi_m, last)`` of stage ``k``, read from the
    tuple row."""
    row = tuple_row(config.extras, k)
    n_f1, n_m = min(config.n_f1, k), min(config.n_m, k)
    general = surface.point_kind == GENERAL
    kind = NON_SPECIAL if general and surface.delta < n_m else SPECIAL
    phi_f1 = row[n_f1 - 1] if n_f1 else 0
    phi_m = row[n_m - 1] if n_m and (kind == NON_SPECIAL or not general) else 0
    return surface.delta, kind, phi_f1, phi_m, row[k - 1]


def fraction_cone_rays(flag):
    """Reference for ``cone_rays``: one pairing call per stage and
    ``Fraction`` slope keys, the first extreme pair kept on ties."""
    val = flag.base
    if not flag.is_satellite:
        return (1, 0), (val.last_contact, 1)
    pairs = [
        (truncation_pairing(val.config, val.r, i), truncation_pairing(val.config, flag.eta, i))
        for i in range(1, val.r + 1)
    ]

    def primitive(p):
        g = gcd(p[0], p[1])
        return (p[0] // g, p[1] // g)

    low = min(pairs, key=lambda p: Fraction(p[1], p[0]))
    high = max(pairs, key=lambda p: Fraction(p[1], p[0]))
    return primitive(low), primitive(high)
