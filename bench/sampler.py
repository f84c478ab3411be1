"""Seeded sampler of (valuation, flag, divisor) cases for the ``corpus`` workload.

The helpers are a copy of the corpus sampler in ``tests/conftest.py`` that
takes the seed as an argument and needs neither pytest nor the test suite.
They must consume the random stream exactly as the original does: the
default seed then reproduces the Tier-1 corpus case for case.

``corpus`` stratifies by the number of points ``r``: it walks the sampler's
stream of valuations and keeps the first ``RADIUS_QUOTA[r]`` valuations of
each size.  The quotas are the size histogram of the Tier-1 corpus, so the
default seed keeps exactly the first 55 valuations (the Tier-1 corpus) and
every other seed gets a corpus with the same size mix.  Verification cost
grows steeply with ``r``; without the quotas the mix alone moves throughput
by about a quarter between seeds.
"""

from __future__ import annotations

import random

from hirzebruch import (
    GENERAL,
    SPECIAL,
    BigDivisor,
    Surface,
    build_configuration,
    divisorial_valuation,
    flag_valuation,
    is_npi,
    newton_okounkov_body,
)
from hirzebruch.errors import ConfigurationError, EtaNotNPI

DEFAULT_SEED = 20260811
CASES_PER_VALUATION = 4
# Valuations of each size r in the Tier-1 corpus (55 valuations, 220 cases).
RADIUS_QUOTA = {1: 9, 2: 10, 3: 7, 4: 2, 5: 4, 6: 5, 7: 7, 8: 5, 9: 6}
MAX_STREAM = 20000


def random_records(rng, r_max):
    r = rng.randint(1, r_max)
    extras = [None] * (r + 1)
    sat_prob = rng.choice([0.0, 0.2, 0.45])
    for i in range(3, r + 1):
        if rng.random() < sat_prob:
            options = [i - 2]
            prev = extras[i - 1]
            if prev is not None and prev != i - 2:
                options.append(prev)
            extras[i] = rng.choice(options)
    free_prefix = 1
    while free_prefix < r and extras[free_prefix + 1] is None:
        free_prefix += 1
    return r, extras, free_prefix


def random_valuation(rng, r_max=10, max_total=4000):
    """Rejection-sample a non-positive-at-infinity valuation.

    Returns the valuation and the point records it was built from.
    """
    for _ in range(800):
        r, extras, free_prefix = random_records(rng, r_max)
        delta = rng.randint(0, 3)
        kind = SPECIAL if delta == 0 else rng.choice([SPECIAL, SPECIAL, GENERAL])
        k_f, k_m = 1, 1
        if kind == GENERAL:
            k_m = rng.choice([0, 1])
        style = rng.random()
        if free_prefix >= 2:
            if style < 0.45:
                k_f = rng.randint(2, free_prefix)
            elif style < 0.9:
                k_m = rng.randint(2, free_prefix)
        if kind == SPECIAL and k_m == 0:
            k_m = 1
        surface = Surface(delta, kind)
        records = [
            {"extra_proximity": extras[i], "on_f1": i <= k_f, "on_m": i <= k_m}
            for i in range(1, r + 1)
        ]
        try:
            config = build_configuration(surface, records)
        except ConfigurationError:
            continue
        val = divisorial_valuation(surface, config)
        if val.last_contact > max_total:
            continue
        if not is_npi(val):
            continue
        return val, records
    raise RuntimeError("failed to sample a valuation")


def random_flag(rng, val, d):
    """A random flag on the valuation; falls back to a free flag point when a
    satellite truncation fails the non-positivity requirement."""
    options = [None]
    if val.r >= 2:
        options.append(val.r - 1)
    extra = val.config.extra(val.r)
    if extra is not None:
        options.append(extra)
    eta = rng.choice(options)
    flag = flag_valuation(val, eta)
    if eta is not None:
        try:
            newton_okounkov_body(flag, d)
        except EtaNotNPI:
            flag = flag_valuation(val, None)
    return flag


def random_nef_big(rng, delta, bound=20):
    d = BigDivisor(rng.randint(0, bound), rng.randint(1, bound))
    if not d.is_big(delta):  # delta = 0 needs a > 0
        d = BigDivisor(rng.randint(1, bound), d.b)
    return d


def stream(seed):
    """Valuations in sampling order, each with its records and four
    (flag, divisor) draws, exactly as the Tier-1 fixture draws them."""
    rng = random.Random(seed)
    while True:
        val, records = random_valuation(rng, r_max=10)
        draws = []
        for _ in range(CASES_PER_VALUATION):
            d = random_nef_big(rng, val.delta)
            draws.append((random_flag(rng, val, d), d))
        yield val, records, draws


def corpus(seed=DEFAULT_SEED):
    """The size-stratified corpus of ``seed``: a list of JSON-ready case specs.

    Each spec holds the surface, the point records, the flag's ``eta`` and
    the divisor; ``beta_bar`` is carried along for identification.
    """
    left = dict(RADIUS_QUOTA)
    specs = []
    for n, (val, records, draws) in enumerate(stream(seed)):
        if n >= MAX_STREAM:
            raise RuntimeError(f"seed {seed}: size quotas unfilled after {n} valuations")
        if not left.get(val.r):
            continue
        left[val.r] -= 1
        for flag, d in draws:
            specs.append(
                {
                    "delta": val.delta,
                    "point_kind": val.surface.point_kind,
                    "points": records,
                    "beta_bar": list(val.beta_bar),
                    "eta": flag.eta,
                    "a": d.a,
                    "b": d.b,
                }
            )
        if not any(left.values()):
            return specs
