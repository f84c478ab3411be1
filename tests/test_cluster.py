import json
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch import (
    GENERAL,
    NON_SPECIAL,
    SPECIAL,
    BigDivisor,
    Surface,
    build_configuration,
    classify,
    curvette,
    divisorial_valuation,
    eta_valuation,
    fiber_germ,
    flag_valuation,
    from_maximal_contact,
    germ_value,
    germ_vector,
    is_npi,
    maximal_contact_values,
    multiplicities,
    mu_hat,
    section_germ,
    truncate_valuation,
)
from hirzebruch import cluster
from hirzebruch.cluster import npi_excess, truncation_pairing
from hirzebruch.errors import (
    BadIncidence,
    BadSatellite,
    ChainBroken,
    DimensionMismatch,
    EtaNotNPI,
    NotNPI,
    NotRealizable,
    NotSatellite,
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
    assert val.config.m_chain == (1, 2)
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
        assert build_configuration(Surface(1), records).points[1] == cluster.ClusterPoint()


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


def _sieve_outcome(sieve, row):
    try:
        return sieve(row)
    except (NotRealizable, SemigroupOverflow) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sieve_matches_reference_on_random_rows(data):
    # Rows end in their largest entry, as curvette rows do; narrow ranges
    # repeat values and a common factor makes the semigroup refuse.
    total = data.draw(
        st.one_of(
            st.integers(1, 400),
            st.integers(1, 200_000),
            st.just(cluster._SEMIGROUP_VALUE_CAP),
        ),
        label="total",
    )
    factor = data.draw(st.sampled_from([1, 1, 1, 1, 2, 3, 7]), label="factor")
    top = data.draw(st.sampled_from([6, 60, total]), label="top")
    values = data.draw(
        st.lists(st.integers(1, max(1, min(top, total) // factor)), min_size=1, max_size=40),
        label="values",
    )
    row = [factor * v for v in values if factor * v <= total]
    row.append(total - total % factor if total >= factor else total)
    assert _sieve_outcome(cluster._sieve, row) == _sieve_outcome(reference_sieve, row)


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
    free = [i for i in range(1, 13) if special.is_free(i)]
    assert free == [1, 2, 6, 7, 8, 9]
    nonspecial = from_maximal_contact(Surface(2, GENERAL), [15, 51, 262, 786], 1, 3)
    assert nonspecial.r == 12
    assert [i for i in range(1, 13) if not nonspecial.is_free(i)] == [5, 6, 7, 11, 12]


def test_from_contact_values_rejects_bad_sequences():
    for seq in ([2, 3, 5], [4, 6, 12], [6, 8, 9, 72], [2, 4, 8], [20, 28]):
        with pytest.raises(NotRealizable):
            from_maximal_contact(Surface(0), seq)


def test_contact_value_cap_is_checked_before_expansion(monkeypatch, tmp_path, capsys):
    from hirzebruch import cli

    def expanded(*args):
        raise AssertionError("the configuration was expanded before the cap check")

    monkeypatch.setattr(cluster, "_SEMIGROUP_VALUE_CAP", 1000)
    monkeypatch.setattr(cluster, "_euclid_multiplicities", expanded)
    monkeypatch.setattr(cluster, "_proximities_from_multiplicities", expanded)
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
    monkeypatch.setattr(cluster, "_euclid_multiplicities", expanded)
    monkeypatch.setattr(cluster, "_proximities_from_multiplicities", expanded)
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contact_value_round_trip_on_random_draws(seed):
    val = random_valuation(random.Random(seed), r_max=15, require_npi=False)
    config = val.config
    rebuilt = from_maximal_contact(
        val.surface, val.beta_bar, len(config.f1_chain), len(config.m_chain)
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


def test_zero_germ_value():
    val = special_example_valuation()
    zero = germ_vector(val.config, [0] * val.r)
    assert germ_value(val, zero) == 0


def test_fiber_and_section_values_of_shipped_examples():
    special = special_example_valuation()
    assert germ_value(special, fiber_germ(special.config)) == 20
    assert germ_value(special, section_germ(special.config)) == 28
    nonspecial = nonspecial_example_valuation()
    assert germ_value(nonspecial, fiber_germ(nonspecial.config)) == 15
    assert germ_value(nonspecial, section_germ(nonspecial.config)) == 45


def test_germ_value_dimension_mismatch():
    val = special_example_valuation()
    with pytest.raises(DimensionMismatch):
        germ_value(val, germ_vector(free_chain(Surface(0), 3), [1, 1, 1]))


def test_germ_vector_rejects_proximity_violations():
    config = cusp_config(Surface(0))
    with pytest.raises(ValueError):
        germ_vector(config, [1, 1, 1])


def test_germ_value_is_additive():
    rng = random.Random(3)
    val = special_example_valuation()
    for _ in range(20):
        scale_a = rng.randint(0, 3)
        scale_b = rng.randint(0, 3)
        x = curvette(val.config, rng.randint(1, val.r)).scale(scale_a)
        y = curvette(val.config, rng.randint(1, val.r)).scale(scale_b)
        assert germ_value(val, x + y) == germ_value(val, x) + germ_value(val, y)


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
    phi_m = chain_value(tv, config.m_chain)
    if tv.kind == SPECIAL and val.surface.point_kind == GENERAL:
        phi_m = 0
    return tv, (tv.kind, chain_value(tv, config.f1_chain), phi_m, sum(x * x for x in tv.m))


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
        expected = _outcome(mu_hat, eta_valuation(flag), d)
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
    r = 1012
    config = ladder_configuration(family, r)
    assert counts["_coerce_point"] == 0
    val = divisorial_valuation(Surface(2, SPECIAL), config)
    assert val.r == r
    assert val.beta_bar == tuple(ladder_beta_bar(family, r))
    flag = flag_valuation(val, r - 1)
    cone_rays(flag)
    assert counts["multiplicities"] <= 3
    newton_okounkov_body(flag, BigDivisor(1, 2))
    cone_triangle(flag, BigDivisor(1, 2))
    for name in names[1:]:
        assert counts[name] == 0, name


def test_eta_valuation_requires_satellite_flag():
    val = minimal_four_point_valuation()
    with pytest.raises(NotSatellite):
        eta_valuation(flag_valuation(val, None))


def test_eta_valuation_at_first_point():
    val = special_example_valuation()
    eta1 = truncate_valuation(val, 1)
    assert eta1.beta_bar == (1, 1)


def test_eta_valuation_of_shipped_examples():
    # oracle: direct pairing on the truncated configuration
    special = special_example_valuation()
    flag = flag_valuation(special, 8)
    eta = eta_valuation(flag)
    assert eta.phi_f1 == 5
    assert chain_value(eta, special.config.m_chain) == 7
    assert truncation_pairing(special.config, 12, 8) == 152

    nonspecial = nonspecial_example_valuation()
    flag = flag_valuation(nonspecial, 9)
    eta = eta_valuation(flag)
    assert eta.phi_f1 == 5
    assert chain_value(eta, nonspecial.config.m_chain) == 15
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
    assert classify(val) == SPECIAL


def test_shipped_example_classifications():
    assert classify(special_example_valuation()) == SPECIAL
    nonspecial = nonspecial_example_valuation()
    assert classify(nonspecial) == NON_SPECIAL
    # declared section self-intersection is negative: delta - k = 2 - 3
    assert nonspecial.delta - len(nonspecial.config.m_chain) < 0


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
