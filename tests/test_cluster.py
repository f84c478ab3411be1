import functools
import json
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch import (
    GENERAL,
    NON_SPECIAL,
    SPECIAL,
    BigDivisor,
    Configuration,
    Surface,
    build_configuration,
    divisorial_valuation,
    flag_valuation,
    from_maximal_contact,
    is_npi,
    maximal_contact_values,
    multiplicities,
    mu_hat,
    truncate_valuation,
)
from hirzebruch import cluster
from hirzebruch.cluster import npi_excess, truncation_pairing
from hirzebruch.errors import (
    BadIncidence,
    BadSatellite,
    ChainBroken,
    EtaNotNPI,
    NotNPI,
    NotRealizable,
    SemigroupOverflow,
    TooManyPoints,
)
from hirzebruch.okounkov import cone_rays, cone_triangle, newton_okounkov_body, q_points
from hirzebruch.seshadri import is_minimal

from sieve_reference import reference_sieve

from conftest import (
    CASES,
    chain_value,
    ladder_beta_bar,
    ladder_configuration,
    minimal_four_point_valuation,
    nonspecial_example_valuation,
    random_draws,
    random_valuation,
    special_example_valuation,
)


def free_chain(surface, r, k_f=1, k_m=1):
    return build_configuration(
        surface,
        [{"on_f1": i <= k_f, "on_m": i <= k_m} for i in range(1, r + 1)],
    )


def cusp_config(surface, k_m=1):
    # p3 proximate to both p2 and p1
    return build_configuration(
        surface,
        [
            {"on_f1": True, "on_m": k_m >= 1},
            {"on_m": k_m >= 2},
            {"extra_proximity": 1},
        ],
    )


def brute_force_values(config):
    """Independent oracle: every germ value by exhaustive enumeration.

    Germ multiplicities are capped by the valuation multiplicities and
    assigned backwards so the proximity lower bounds are known.
    """
    m = multiplicities(config)
    r = config.r
    prox = {i: config.proximate_to(i) for i in range(1, r + 1)}
    values = set()
    germ = [0] * (r + 1)

    def rec(i):
        if i == 0:
            values.add(sum(germ[k] * m[k - 1] for k in range(1, r + 1)))
            return
        lower = sum(germ[j] for j in prox[i])
        for g in range(lower, m[i - 1] + 1):
            germ[i] = g
            rec(i - 1)
        germ[i] = 0

    rec(r)
    return values


def scanned_proximate_to(config, i, r):
    """Points ``j <= r`` proximate to ``p_i``, by scanning every later point."""
    return tuple(
        j for j in range(i + 1, r + 1) if j == i + 1 or config.extra(j) == i
    )


def sieved_contact_values(config, r):
    """Materialised-truncation oracle for :func:`maximal_contact_values`: pair
    the stage-``r`` multiplicities with every truncated multiplicity vector
    and sieve the minimal generators out of the sorted values."""
    m = multiplicities(config, r)
    total = sum(x * x for x in m)
    truncs = [multiplicities(config, i) for i in range(1, r + 1)]
    values = sorted({sum(a * b for a, b in zip(m, t)) for t in truncs})
    reach = [True] + [False] * total
    generators = []
    for v in values:
        if reach[v]:
            continue
        generators.append(v)
        for s in range(v, total + 1):
            if reach[s - v]:
                reach[s] = True
    return tuple(generators) + (total,)


def assert_matches_truncation_oracle(config):
    r = config.r
    truncs = [multiplicities(config, i) for i in range(1, r + 1)]
    for i in range(1, r + 1):
        assert config.proximate_to(i) == scanned_proximate_to(config, i, r)
        for j in range(1, r + 1):
            expected = sum(a * b for a, b in zip(truncs[i - 1], truncs[j - 1]))
            assert truncation_pairing(config, i, j) == expected, (i, j)
            assert truncation_pairing(config, j, i) == expected, (j, i)
    for k in {1, r // 2 or 1, r - 1 or 1, r}:
        assert maximal_contact_values(config, k) == sieved_contact_values(config, k)


def monoid_elements(generators, bound):
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for g in generators:
        for s in range(g, bound + 1):
            if reachable[s - g]:
                reachable[s] = True
    return {s for s, ok in enumerate(reachable) if ok}


# ---------------------------------------------------------------- construction


def test_single_point_configuration():
    config = build_configuration(
        Surface(0), [{"on_f1": True, "on_m": True}]
    )
    assert config.r == 1
    assert multiplicities(config) == (1,)


def test_shipped_special_configuration_has_section_through_p2():
    val = special_example_valuation()
    assert val.config.n_m == 2
    assert sum(x * x for x in val.m) == 612


def test_second_point_cannot_be_satellite():
    with pytest.raises(BadSatellite):
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {"extra_proximity": 1}],
        )


def test_broken_parent_chain_is_reported():
    with pytest.raises(ChainBroken):
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {"parent": 3}, {}],
        )


@pytest.mark.parametrize("extra", [1.0, True, "1", [1]])
def test_extra_proximity_must_be_an_integer(extra):
    with pytest.raises(ChainBroken, match="extra_proximity must be an integer"):
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {}, {"extra_proximity": extra}],
        )


@pytest.mark.parametrize(
    "record", [{"extra": 1}, {"extra_proximity": None, "extra": 1}, {"extra": None}]
)
def test_extra_is_an_unknown_field(record):
    # The documented field is ``extra_proximity``; ``extra`` is refused like
    # any other unknown field, whatever it holds.
    records = [{"on_f1": True, "on_m": True}, {}, record]
    with pytest.raises(ChainBroken, match=r"^p3: unknown fields \['extra'\]$"):
        build_configuration(Surface(0), records)
    records[2] = {"extra_proximity": 1}
    assert build_configuration(Surface(0), records).extra(3) == 1


@pytest.mark.parametrize("field", ["on_f1", "on_m"])
@pytest.mark.parametrize("value", ["false", "no", 0.0, 0, 1, [], {}])
def test_incidences_must_be_booleans(field, value):
    # A non-boolean incidence must not count by its truth value: "false"
    # would put the point on the chain.
    records = [{"on_f1": True, "on_m": True}, {field: value}]
    with pytest.raises(ChainBroken, match=rf"^p2: {field} must be true or false$"):
        build_configuration(Surface(1), records)
    for flag in (False, None):
        records[1][field] = flag
        assert build_configuration(Surface(1), records) == Configuration((None, None), 1, 1)


@pytest.mark.parametrize("value", [True, 1.0, "1", [1], {}])
def test_parent_must_be_an_integer(value):
    # True and 1.0 would compare equal to 1 and pass as p1; "1" would be
    # refused with the self-contradicting "must be p1, got p1".
    records = [{"on_f1": True, "on_m": True}, {"parent": value}]
    with pytest.raises(ChainBroken, match=r"^p2: parent must be an integer$"):
        build_configuration(Surface(1), records)
    for parent in (1, None):
        records[1]["parent"] = parent
        assert build_configuration(Surface(1), records) == Configuration((None, None), 1, 1)


def test_incidence_chains_must_be_initial_and_free():
    with pytest.raises(BadIncidence):
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {}, {"on_f1": True}],
        )
    with pytest.raises(BadIncidence):
        # both germs claimed through p2
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {"on_f1": True, "on_m": True}],
        )
    with pytest.raises(BadIncidence):
        # satellite point inside the section chain
        build_configuration(
            Surface(2, SPECIAL),
            [
                {"on_f1": True, "on_m": True},
                {"on_m": True},
                {"extra_proximity": 1, "on_m": True},
            ],
        )


def test_all_violations_are_collected():
    with pytest.raises(ChainBroken) as info:
        build_configuration(
            Surface(0),
            [{"on_f1": True, "on_m": True}, {"parent": 5, "extra_proximity": 1}],
        )
    assert len(info.value.violations) == 2


# ------------------------------------------------------------- multiplicities


def test_multiplicities_free_chain():
    config = free_chain(Surface(0), 3)
    assert multiplicities(config) == (1, 1, 1)


def test_multiplicities_cusp():
    # hand-solved: m2 = m3 = 1, m1 = m2 + m3
    config = cusp_config(Surface(0))
    assert multiplicities(config) == (2, 1, 1)


def test_multiplicities_of_shipped_examples():
    assert special_example_valuation().m == (20, 8, 8, 4, 4, 4, 4, 4, 1, 1, 1, 1)
    assert nonspecial_example_valuation().m == (15, 15, 15, 6, 6, 3, 3, 3, 3, 1, 1, 1)


def test_proximity_equalities_hold(corpus):
    for val, _, _ in corpus[:60]:
        config = val.config
        for i in range(1, val.r):
            prox = config.proximate_to(i)
            assert val.m[i - 1] == sum(val.m[j - 1] for j in prox)


# ------------------------------------------------------- maximal contact values


def test_order_of_vanishing_valuation():
    config = build_configuration(Surface(0), [{"on_f1": True, "on_m": True}])
    assert maximal_contact_values(config) == (1, 1)


def test_shipped_contact_values_round_trip():
    assert special_example_valuation().beta_bar == (20, 28, 153, 612)
    assert nonspecial_example_valuation().beta_bar == (15, 51, 262, 786)


def test_contact_values_of_cusp_with_free_tail():
    surface = Surface(0)
    config = build_configuration(
        surface,
        [
            {"on_f1": True, "on_m": True},
            {},
            {"extra_proximity": 1},
            {},
        ],
    )
    # the final value exceeds the product of the generator data: free tail
    assert maximal_contact_values(config) == (2, 3, 7)


def test_semigroup_brute_force_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        val = random_valuation(rng, r_max=8, max_total=900, require_npi=False)
        bound_product = 1
        for x in val.m:
            bound_product *= x + 1
        if bound_product > 120_000:
            continue
        beta = val.beta_bar
        values = brute_force_values(val.config)
        monoid = monoid_elements(beta[:-1], beta[-1])
        assert set(beta[:-1]) <= values
        attained_below = {v for v in values if v <= beta[-1]}
        assert attained_below == monoid
        checked += 1


def test_contact_value_invariants(corpus):
    for val, _, _ in corpus[:80]:
        beta = val.beta_bar
        g = 0
        for v in beta[:-1]:
            g = gcd(g, v)
        assert g == 1
        assert beta[-1] == sum(x * x for x in val.m)
        if val.config.extra(val.r) is not None and len(beta) >= 3:
            # final point satellite: the last value closes the chain of gcds
            e_prev = 0
            for v in beta[:-2]:
                e_prev = gcd(e_prev, v)
            assert beta[-1] == e_prev * beta[-2]


def _semigroup_outcome(f, *args):
    try:
        return f(*args)
    except (NotRealizable, SemigroupOverflow) as exc:
        return type(exc), str(exc)


def every_extras_pattern(r):
    """Every valid ``extras`` of ``r`` points: a satellite ``p_i`` lies on
    ``E_{i-2}`` or on the divisor ``p_{i-1}`` is proximate to."""
    patterns = [()]
    for i in range(1, r + 1):
        grown = []
        for extras in patterns:
            options = {None}
            if i >= 3:
                options |= {i - 2, extras[-1]}
            grown += [(*extras, e) for e in options]
        patterns = grown
    return patterns


def test_contact_values_match_reference_sieve(corpus):
    # The dead-end scan against the subset-sum sieve of the whole row, at
    # every stage: every configuration up to r=10, the corpus, the random
    # draws, and an alternating satellite chain whose stages cross the cap.
    # The last stage of that chain is refused while its multiplicities are
    # filled, before a row exists to sieve: the scan gives that refusal.
    configs = [Configuration(e, 1, 1) for r in range(1, 11) for e in every_extras_pattern(r)]
    assert len(configs) == 2585
    configs += [val.config for val, _, _ in corpus]
    configs += [flag.base.config for _, flag, _ in random_draws()]
    configs.append(Configuration((None, None, *range(1, 19)), 1, 1))
    refused = 0
    for config in configs:
        for k in range(1, config.r + 1):
            outcome = _semigroup_outcome(maximal_contact_values, config, k)
            try:
                row = config.curvette_values(k)[:k]
            except SemigroupOverflow as exc:
                assert (k, outcome) == (config.r, (SemigroupOverflow, str(exc)))
                refused += 1
                continue
            assert outcome == _semigroup_outcome(reference_sieve, row), (config, k)
            refused += outcome[0] is SemigroupOverflow
    assert refused == 2


@pytest.mark.parametrize("r", [92, 212, 512])
@pytest.mark.parametrize("family", ["tail", "block"])
def test_sieve_matches_reference_on_ladder(family, r):
    config = ladder_configuration(family, r)
    for k in (r, r - 1, r // 2):
        row = config.curvette_values(k)[:k]
        assert maximal_contact_values(config, k) == reference_sieve(row)
    assert maximal_contact_values(config) == tuple(ladder_beta_bar(family, r))


# ------------------------------------------------------------------ conversion


def test_from_contact_values_single_point():
    config = from_maximal_contact(Surface(0), [1, 1])
    assert config.r == 1


def test_from_contact_values_shipped_examples():
    special = from_maximal_contact(Surface(2, SPECIAL), [20, 28, 153, 612], 1, 2)
    assert special.r == 12
    free = [i for i in range(1, 13) if special.extra(i) is None]
    assert free == [1, 2, 6, 7, 8, 9]
    nonspecial = from_maximal_contact(Surface(2, GENERAL), [15, 51, 262, 786], 1, 3)
    assert nonspecial.r == 12
    assert [i for i in range(1, 13) if nonspecial.extra(i) is not None] == [5, 6, 7, 11, 12]


def test_from_contact_values_rejects_bad_sequences():
    for seq in ([2, 3, 5], [4, 6, 12], [6, 8, 9, 72], [2, 4, 8], [20, 28]):
        with pytest.raises(NotRealizable):
            from_maximal_contact(Surface(0), seq)


def test_contact_value_cap_is_checked_before_expansion(monkeypatch, tmp_path, capsys):
    from hirzebruch import cli

    def expanded(*args):
        raise AssertionError("the configuration was expanded before the cap check")

    monkeypatch.setattr(cluster, "_SEMIGROUP_VALUE_CAP", 1000)
    monkeypatch.setattr(cluster, "_extras_from_steps", expanded)
    monkeypatch.setattr(cluster, "_expand", expanded)
    beta_bar = [20, 28, 153, 5000]
    with pytest.raises(SemigroupOverflow):
        from_maximal_contact(Surface(2, SPECIAL), beta_bar, 1, 2)

    case = json.loads((CASES / "special_f2.json").read_text())
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**case, "beta_bar": beta_bar}), encoding="utf-8")
    assert cli.main(["classify", str(path)]) == 2
    assert "SemigroupOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["free_tail", "satellite_block"])
def test_point_cap_is_checked_before_expansion(monkeypatch, tmp_path, capsys, family):
    from hirzebruch import cli

    def expanded(*args):
        raise AssertionError("the configuration was expanded before the cap check")

    beta_bar = ladder_beta_bar(family, 92)
    assert from_maximal_contact(Surface(2, SPECIAL), beta_bar, 1, 2).r == 92
    # The count read from the Euclid data is exact: r = cap is accepted.
    monkeypatch.setattr(cluster, "_POINT_CAP", 92)
    assert from_maximal_contact(Surface(2, SPECIAL), beta_bar, 1, 2).r == 92
    monkeypatch.setattr(cluster, "_POINT_CAP", 91)
    monkeypatch.setattr(cluster, "_extras_from_steps", expanded)
    monkeypatch.setattr(cluster, "_expand", expanded)
    monkeypatch.setattr(cluster, "_coerce_point", expanded)
    with pytest.raises(TooManyPoints, match=r"^r = 92 points exceed the cap of 91$"):
        from_maximal_contact(Surface(2, SPECIAL), beta_bar, 1, 2)
    with pytest.raises(TooManyPoints, match=r"^r = 92 points exceed the cap of 91$"):
        build_configuration(Surface(2, SPECIAL), [{}] * 92)

    case = json.loads((CASES / "special_f2.json").read_text())
    for key in ("beta_bar", "on_f1", "on_m"):
        del case[key]
    for name, body in (
        ("beta_bar", {"beta_bar": beta_bar, "on_f1": 1, "on_m": 2}),
        ("configuration", {"configuration": {"points": [{}] * 92}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**case, **body}), encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "TooManyPoints: r = 92 points exceed the cap of 91\n"


def test_value_cap_refuses_alternating_satellites_before_the_row():
    # Alternating satellites at the point cap: the multiplicities grow
    # about 1.6-fold per point backwards from the last, so the refusal
    # comes while they are filled, with the first square past the cap, and
    # neither the full vector nor the curvette row is ever built.
    r = cluster._POINT_CAP
    surface = Surface(0)
    points = [{"on_f1": True, "on_m": True}, {}]
    points += [{"extra_proximity": i - 2} for i in range(3, r + 1)]
    tracemalloc.start()
    try:
        config = build_configuration(surface, points)
        with pytest.raises(SemigroupOverflow, match=f"^semigroup value bound {4181**2} "):
            divisorial_valuation(surface, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.r == r and config._rows == {} and config._m is None
    assert peak < 32 << 20, peak


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contact_value_round_trip_on_random_draws(seed):
    val = random_valuation(random.Random(seed), r_max=15, require_npi=False)
    config = val.config
    rebuilt = from_maximal_contact(
        val.surface, val.beta_bar, config.n_f1, config.n_m
    )
    assert maximal_contact_values(rebuilt) == val.beta_bar


def test_round_trip_reproduces_multiplicities():
    rng = random.Random(11)
    for _ in range(30):
        val = random_valuation(rng, r_max=15, max_total=40_000, require_npi=False)
        rebuilt = from_maximal_contact(
            Surface(1, SPECIAL), val.beta_bar, on_f1=1, on_m=1
        )
        assert multiplicities(rebuilt) == val.m


# ----------------------------------------------------------------- germ values


def test_fiber_and_section_values_of_shipped_examples():
    special = special_example_valuation()
    assert (special.phi_f1, special.phi_m) == (20, 28)
    nonspecial = nonspecial_example_valuation()
    assert (nonspecial.phi_f1, nonspecial.phi_m) == (15, 45)


# ----------------------------------------------------------------- truncations


def test_curvette_values_match_truncation_oracle_on_corpus(corpus):
    for val in dict.fromkeys(val for val, _, _ in corpus):
        assert_matches_truncation_oracle(val.config)


def test_curvette_values_match_truncation_oracle_on_random_draws():
    rng = random.Random(20261018)
    for _ in range(200):
        val = random_valuation(rng, r_max=12, max_total=20_000, require_npi=False)
        assert_matches_truncation_oracle(val.config)


@pytest.mark.parametrize("r", [17, 92])
@pytest.mark.parametrize("family", ["tail", "block"])
def test_curvette_values_match_truncation_oracle_on_ladder(family, r):
    config = ladder_configuration(family, r)
    assert config.r == r
    assert_matches_truncation_oracle(config)


# ------------------------------------------------------------------------ runs


def ladder_records(family, r):
    """Point records of the ladder configurations, written out: the twelve
    points of ``special_f2`` and a free tail, or ``p_1`` with every point
    from ``p_3`` on proximate to it."""
    if family == "tail":
        extras, n_m = [None, None, 1, 1, 3, None, None, None, None, 8, 8, 8], 2
        extras += [None] * (r - 12)
    else:
        extras, n_m = [None, None] + [1] * (r - 2), 1
    return [
        {"extra_proximity": e, "on_f1": i == 1, "on_m": i <= n_m}
        for i, e in enumerate(extras, 1)
    ]


@functools.cache
def draws_up_to_200_points():
    """80 valuations up to r = 200 at both center kinds, with satellites in
    up to three short runs."""
    rng = random.Random(20261021)
    return tuple(
        random_valuation(
            rng,
            r_max=200,
            max_total=10**6,
            require_npi=False,
            point_kind=kind,
            satellite_blocks=3,
        )
        for kind in (SPECIAL, GENERAL) * 40
    )


def valuations_for_run_tests(corpus):
    """The corpus valuations and the draws up to r = 200."""
    vals = [*dict.fromkeys(val for val, _, _ in corpus), *draws_up_to_200_points()]
    assert max(val.r for val in vals) >= 150
    assert sum(val.config.extra(val.r) is not None for val in vals) >= 10
    return vals


def test_contact_values_rebuild_the_record_configuration(corpus):
    # The runs that from_maximal_contact reads off the Euclid staircases are
    # the proximities the point records declare, incidences included.
    for val in valuations_for_run_tests(corpus):
        config = val.config
        rebuilt = from_maximal_contact(val.surface, val.beta_bar, config.n_f1, config.n_m)
        assert rebuilt == config
    for family in ("tail", "block"):
        records = ladder_records(family, 512)
        built = build_configuration(Surface(2, SPECIAL), records)
        assert ladder_configuration(family, 512) == built


def test_runs_equal_the_scanned_proximities(corpus):
    # Each run p_{i+1}..p_{last(i)} holds exactly the points a scan of the
    # extras finds proximate to p_i, and the multiplicities solved over the
    # runs satisfy the proximity equalities over the scanned lists.
    vals = valuations_for_run_tests(corpus)
    for family in ("tail", "block"):
        config = ladder_configuration(family, 512)
        vals.append(divisorial_valuation(Surface(2, SPECIAL), config))
    for val in vals:
        config, r, m = val.config, val.r, val.m
        scanned = [scanned_proximate_to(config, i, r) for i in range(1, r + 1)]
        assert [config.proximate_to(i) for i in range(1, r + 1)] == scanned
        assert m[-1] == 1
        assert all(m[i - 1] == sum(m[j - 1] for j in scanned[i - 1]) for i in range(1, r))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotNPI as exc:
        return NotNPI, str(exc)


def truncation_stage(val, k):
    """Oracle for :func:`cluster._stage`: the stage-``k`` kind, fiber value,
    section value and last value from the truncated valuation's
    multiplicities."""
    tv = truncate_valuation(val, k)
    config = val.config
    phi_m = chain_value(tv, range(1, config.n_m + 1))
    if tv.kind == SPECIAL and val.surface.point_kind == GENERAL:
        phi_m = 0
    phi_f1 = chain_value(tv, range(1, config.n_f1 + 1))
    return tv, (tv.kind, phi_f1, phi_m, sum(x * x for x in tv.m))


def assert_stages_match_truncations(val):
    d = BigDivisor(1, 2)
    for k in range(1, val.r + 1):
        stage = cluster._stage(val.surface, val.config, k)
        tv, expected = truncation_stage(val, k)
        assert stage[1:] == expected, k
        assert stage.delta == val.delta
        assert stage.last_contact == tv.last_contact
        assert npi_excess(stage) == npi_excess(tv)
        assert _outcome(mu_hat, stage, d) == _outcome(mu_hat, tv, d)
    if not is_npi(val):
        return
    positions = {val.r - 1, val.config.extra(val.r)} - {None, 0}
    for eta in sorted(positions):
        flag = flag_valuation(val, eta)
        if is_minimal(val, d):
            continue
        try:
            cap = q_points(flag, d).cap[1]
        except EtaNotNPI as exc:
            cap = EtaNotNPI, str(exc)
        expected = _outcome(mu_hat, truncate_valuation(val, eta), d)
        if isinstance(expected, tuple):
            expected = EtaNotNPI, f"the truncation at E{eta} is not non-positive at infinity"
        assert cap == expected, eta


def test_stage_values_match_truncations_on_corpus(corpus):
    for val in dict.fromkeys(val for val, _, _ in corpus):
        assert_stages_match_truncations(val)


def test_stage_values_match_truncations_on_random_draws():
    rng = random.Random(20261019)
    refused = 0
    for _ in range(400):
        val = random_valuation(rng, r_max=12, max_total=20_000, require_npi=False)
        assert_stages_match_truncations(val)
        refused += any(
            npi_excess(cluster._stage(val.surface, val.config, k)) < 0
            for k in range(1, val.r + 1)
        )
    # Both sides of the non-positivity test are exercised.
    assert 0 < refused < 400


@pytest.mark.parametrize("r", [92, 212])
@pytest.mark.parametrize("family", ["tail", "block"])
def test_stage_values_match_truncations_on_ladder(family, r):
    assert_stages_match_truncations(
        divisorial_valuation(Surface(2, SPECIAL), ladder_configuration(family, r))
    )


@pytest.mark.parametrize("family", ["tail", "block"])
def test_cluster_layer_calls_stay_constant_in_r(monkeypatch, family):
    # At r = 1012 the materialised truncations took one multiplicity solve
    # per stage; the curvette-value rows need one per stage asked for.  The
    # points of a beta_bar case skip the record parser, and the closed forms
    # read stage eta from rows, not from a truncated valuation.
    names = (
        "multiplicities",
        "truncate",
        "truncate_valuation",
        "divisorial_valuation",
        "_coerce_point",
    )
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cluster, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cluster, name, counted)
    solved = []  # the stage of every multiplicity call that has to solve
    kept = cluster.multiplicities

    def counted_solve(config, r=None):
        k = config.r if r is None else r
        if k < config.r or config._m is None:
            solved.append(k)
        return kept(config, r)

    monkeypatch.setattr(cluster, "multiplicities", counted_solve)
    r = 1012
    config = ladder_configuration(family, r)
    assert counts["_coerce_point"] == 0
    val = divisorial_valuation(Surface(2, SPECIAL), config)
    # The round trip solves stage r once; the valuation reuses that vector.
    assert solved == [r]
    assert val.r == r
    assert val.beta_bar == tuple(ladder_beta_bar(family, r))
    flag = flag_valuation(val, r - 1)
    cone_rays(flag)
    assert counts["multiplicities"] <= 3
    newton_okounkov_body(flag, BigDivisor(1, 2))
    cone_triangle(flag, BigDivisor(1, 2))
    for name in names[1:]:
        assert counts[name] == 0, name


def test_eta_valuation_at_first_point():
    val = special_example_valuation()
    eta1 = truncate_valuation(val, 1)
    assert eta1.beta_bar == (1, 1)


def test_eta_valuation_of_shipped_examples():
    # oracle: direct pairing on the truncated configuration
    special = special_example_valuation()
    flag = flag_valuation(special, 8)
    eta = truncate_valuation(flag.base, flag.eta)
    assert eta.phi_f1 == 5
    assert chain_value(eta, range(1, special.config.n_m + 1)) == 7
    assert truncation_pairing(special.config, 12, 8) == 152

    nonspecial = nonspecial_example_valuation()
    flag = flag_valuation(nonspecial, 9)
    eta = truncate_valuation(flag.base, flag.eta)
    assert eta.phi_f1 == 5
    assert chain_value(eta, range(1, nonspecial.config.n_m + 1)) == 15
    assert truncation_pairing(nonspecial.config, 12, 9) == 261


def test_flag_positions_are_validated():
    val = special_example_valuation()
    assert flag_valuation(val, 8).eta == 8
    assert flag_valuation(val, 11).eta == 11
    with pytest.raises(BadSatellite):
        flag_valuation(val, 5)


# -------------------------------------------------------------- classification


def test_delta_zero_is_special():
    val = minimal_four_point_valuation()
    assert val.kind == SPECIAL


def test_shipped_example_classifications():
    assert special_example_valuation().kind == SPECIAL
    nonspecial = nonspecial_example_valuation()
    assert nonspecial.kind == NON_SPECIAL
    # declared section self-intersection is negative: delta - k = 2 - 3
    assert nonspecial.delta - nonspecial.config.n_m < 0


def test_general_center_off_section_gives_zero_section_value():
    surface = Surface(2, GENERAL)
    config = build_configuration(surface, [{"on_f1": True}])
    val = divisorial_valuation(surface, config)
    assert val.kind == SPECIAL
    assert val.phi_m == 0


def test_npi_checks():
    special = special_example_valuation()
    assert 2 * special.phi_m * special.phi_f1 + 2 * special.phi_f1**2 == 1920
    assert is_npi(special)
    nonspecial = nonspecial_example_valuation()
    assert 2 * nonspecial.phi_m * nonspecial.phi_f1 - 2 * nonspecial.phi_f1**2 == 900
    assert is_npi(nonspecial)
    tiny = divisorial_valuation(
        Surface(0), build_configuration(Surface(0), [{"on_f1": True, "on_m": True}])
    )
    assert is_npi(tiny)  # 2 >= 1


def test_non_npi_example():
    surface = Surface(0)
    config = free_chain(surface, 5, k_f=1, k_m=1)
    val = divisorial_valuation(surface, config)
    assert not is_npi(val)  # 2 < 5
