"""Reference semigroup sieve for the tests: the minimal generators of the
semigroup spanned by a whole curvette row, by subset sums.

Each row value is tested with ``(reach >> v) & 1``, which copies the whole
``total``-bit integer, so this costs O(r * total) bit work.  It reads
nothing of the dead-end rule that ``cluster.maximal_contact_values`` uses,
and is kept only to check that rule against.
"""

from math import gcd

from hirzebruch import cluster
from hirzebruch.errors import NotRealizable, SemigroupOverflow


def reference_sieve(row):
    """Minimal generators of the semigroup spanned by ``row``, plus its last
    entry, which no entry exceeds."""
    total = row[-1]
    if total >= cluster._SEMIGROUP_VALUE_CAP:
        raise SemigroupOverflow(f"semigroup value bound {total} exceeds cap")
    values = sorted(set(row))
    mask = (1 << (total + 1)) - 1
    reach = 1
    generators = []
    for v in values:
        if (reach >> v) & 1:
            continue
        generators.append(v)
        step = v
        while step <= total:
            reach |= (reach << step) & mask
            step <<= 1
    g = 0
    for v in generators:
        g = gcd(g, v)
    if g != 1:
        raise NotRealizable(f"value semigroup has non-trivial content {g}")
    return tuple(generators) + (total,)
