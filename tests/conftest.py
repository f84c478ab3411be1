import random
import signal
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

import hirzebruch
from hirzebruch import (
    GENERAL,
    SPECIAL,
    BigDivisor,
    Surface,
    build_configuration,
    divisorial_valuation,
    flag_valuation,
    from_maximal_contact,
    is_npi,
    newton_okounkov_body,
)
from hirzebruch.errors import ConfigurationError, EtaNotNPI, SemigroupOverflow

CASES = Path(__file__).resolve().parent.parent / "cases"
# Put on PYTHONPATH of subprocesses so they import the package under test.
PACKAGE_ROOT = str(Path(hirzebruch.__file__).resolve().parents[1])
# Wall-clock bound on each test's call phase; the slowest test takes a few
# seconds, so only a runaway computation reaches it.
TEST_TIME_BOUND_S = 120


# Address-space cap on the test process, inherited by the subprocesses it
# starts.  A Tier-1 run peaks at about 70 MB of virtual memory, so only a
# runaway computation reaches the cap, and it then fails with MemoryError
# instead of exhausting the machine's memory.
TEST_MEMORY_CAP_BYTES = 1 << 30

if resource is not None:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if _soft == resource.RLIM_INFINITY or _soft > TEST_MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (TEST_MEMORY_CAP_BYTES, _hard))


class TimeBoundExceeded(BaseException):
    """Raised in a test that ran past the bound.  Not an ``Exception``, so
    neither the library nor hypothesis (which would shrink and replay the
    example) catches it; pytest reports the test as failed."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeBoundExceeded(f"{item.nodeid} ran past the {TEST_TIME_BOUND_S} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def special_example_valuation():
    surface = Surface(2, SPECIAL)
    config = from_maximal_contact(surface, [20, 28, 153, 612], on_f1=1, on_m=2)
    return divisorial_valuation(surface, config)


def nonspecial_example_valuation():
    surface = Surface(2, GENERAL)
    config = from_maximal_contact(surface, [15, 51, 262, 786], on_f1=1, on_m=3)
    return divisorial_valuation(surface, config)


def minimal_four_point_valuation():
    surface = Surface(0, SPECIAL)
    config = build_configuration(
        surface,
        [
            {"on_f1": True, "on_m": True},
            {"on_m": True},
            {},
            {},
        ],
    )
    return divisorial_valuation(surface, config)


@pytest.fixture(scope="session")
def special_example():
    return special_example_valuation()


@pytest.fixture(scope="session")
def nonspecial_example():
    return nonspecial_example_valuation()


@pytest.fixture(scope="session")
def minimal_val():
    return minimal_four_point_valuation()


def chain_value(val, chain):
    """Value of the unit germ along ``chain``, restricted to this valuation:
    the germ paired with the valuation's multiplicities."""
    return sum(val.m[i - 1] for i in chain if i <= val.r)


def ladder_beta_bar(family, r):
    """The benchmark ladder at ``r`` points: ``special_f2`` with its free tail
    extended (``tail``), ``nonspecial_f2`` likewise (``nonspecial``), or one
    satellite block (``block``)."""
    if family == "tail":
        return [20, 28, 153, 612 + (r - 12)]
    if family == "nonspecial":
        return [15, 51, 262, 786 + (r - 12)]
    return [r - 1, r, (r - 1) * r]


def ladder_configuration(family, r):
    beta_bar = ladder_beta_bar(family, r)
    if family == "nonspecial":
        return from_maximal_contact(Surface(2, GENERAL), beta_bar, 1, 3)
    on_m = 2 if family == "tail" else 1
    return from_maximal_contact(Surface(2, SPECIAL), beta_bar, 1, on_m)


def random_records(rng, r_max, satellite_blocks=None):
    """Random proximities for up to ``r_max`` points.  With
    ``satellite_blocks``, satellites come only in up to that many runs of 1
    to 4 points, which keeps the semigroup small at large ``r``."""
    r = rng.randint(1, r_max)
    extras = [None] * (r + 1)
    runs = None
    if satellite_blocks is None:
        sat_prob = rng.choice([0.0, 0.2, 0.45])
    else:
        starts = [rng.randint(3, max(3, r)) for _ in range(rng.randint(0, satellite_blocks))]
        runs = {i for s in starts for i in range(s, s + rng.randint(1, 4))}
    for i in range(3, r + 1):
        if (i in runs) if runs is not None else rng.random() < sat_prob:
            options = [i - 2]
            prev = extras[i - 1]
            if prev is not None and prev != i - 2:
                options.append(prev)
            extras[i] = rng.choice(options)
    free_prefix = 1
    while free_prefix < r and extras[free_prefix + 1] is None:
        free_prefix += 1
    return r, extras, free_prefix


def random_valuation(
    rng, r_max=10, max_total=4000, require_npi=True, point_kind=None, satellite_blocks=None
):
    """Rejection-sample a valid (by default non-positive-at-infinity) valuation."""
    for _ in range(800):
        r, extras, free_prefix = random_records(rng, r_max, satellite_blocks)
        delta = rng.randint(0, 3)
        if point_kind is None:
            kind = SPECIAL if delta == 0 else rng.choice([SPECIAL, SPECIAL, GENERAL])
        else:
            kind = point_kind
            if delta == 0 and kind == GENERAL:
                delta = rng.randint(1, 3)
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
            val = divisorial_valuation(surface, config)
        except ConfigurationError:
            continue
        except SemigroupOverflow:
            # Values past the semigroup cap: far past ``max_total`` as well.
            continue
        if val.last_contact > max_total:
            continue
        if require_npi and not is_npi(val):
            continue
        return val
    raise RuntimeError("failed to sample a valuation")


def random_flag(rng, val, d=None):
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
    if eta is not None and d is not None:
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


def random_draws(seed=20261019, count=200):
    """``(kind, flag, d)`` for ``count`` draws up to r = 200 at both center
    kinds, a quarter of the classes big but not nef."""
    rng = random.Random(seed)
    for k in range(count):
        kind = (SPECIAL, GENERAL)[k % 2]
        val = random_valuation(
            rng, r_max=200, max_total=10**6, point_kind=kind, satellite_blocks=3
        )
        if k % 8 >= 6 and val.delta > 0:
            b = rng.randint(2 if val.delta == 1 else 1, 6)
            d = BigDivisor(rng.randint(-b * val.delta + 1, -1), b)
            flag = random_flag(rng, val, BigDivisor(0, 1))
        else:
            d = random_nef_big(rng, val.delta)
            flag = random_flag(rng, val, d)
        yield kind, flag, d


@pytest.fixture(scope="session")
def corpus():
    """At least 220 non-positive-at-infinity (valuation, flag, divisor) cases."""
    rng = random.Random(20260811)
    out = []
    while len(out) < 220:
        val = random_valuation(rng, r_max=10)
        for _ in range(4):
            d = random_nef_big(rng, val.delta)
            flag = random_flag(rng, val, d)
            out.append((val, flag, d))
    return out
