import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hirzebruch import (
    BigDivisor,
    Surface,
    build_configuration,
    divisorial_valuation,
    fiber_germ,
    germ_value,
    is_minimal,
    lower_bound,
    mu_hat,
    mu_hat_bisection_check,
    never_minimal,
    section_germ,
    theta,
    vol,
)
from hirzebruch.errors import NotBig, NotNefBig, NotNPI

from conftest import (
    PACKAGE_ROOT,
    minimal_four_point_valuation,
    nonspecial_example_valuation,
    random_nef_big,
    special_example_valuation,
)


def order_valuation():
    surface = Surface(0)
    config = build_configuration(surface, [{"on_f1": True, "on_m": True}])
    return divisorial_valuation(surface, config)


def non_npi_valuation():
    surface = Surface(0)
    config = build_configuration(
        surface,
        [{"on_f1": i == 1, "on_m": i == 1} for i in range(1, 6)],
    )
    return divisorial_valuation(surface, config)


# --------------------------------------------------------------------- mu_hat


def test_mu_hat_shipped_examples():
    assert mu_hat(special_example_valuation(), (1, 2)) == 156
    assert mu_hat(nonspecial_example_valuation(), (2, 5)) == 255


def test_mu_hat_single_blow_up():
    assert mu_hat(order_valuation(), (1, 1)) == 2


def test_mu_hat_requires_npi():
    with pytest.raises(NotNPI):
        mu_hat(non_npi_valuation(), (1, 1))


def test_mu_hat_requires_big():
    with pytest.raises(NotBig):
        mu_hat(order_valuation(), (0, 1))  # delta = 0: a must be positive
    with pytest.raises(NotBig):
        mu_hat(special_example_valuation(), (-4, 2))


def test_mu_hat_is_linear_on_nef_classes():
    rng = random.Random(9)
    for val in (special_example_valuation(), nonspecial_example_valuation()):
        for _ in range(15):
            d1 = random_nef_big(rng, val.delta)
            d2 = random_nef_big(rng, val.delta)
            k = rng.randint(1, 6)
            total = BigDivisor(d1.a + d2.a, d1.b + d2.b)
            assert mu_hat(val, total) == mu_hat(val, d1) + mu_hat(val, d2)
            scaled = BigDivisor(k * d1.a, k * d1.b)
            assert mu_hat(val, scaled) == k * mu_hat(val, d1)


def test_value_is_attained_by_fiber_section_combinations():
    # the maximizing curve class is an explicit fiber/section combination
    for val, d in (
        (special_example_valuation(), BigDivisor(1, 2)),
        (minimal_four_point_valuation(), BigDivisor(2, 1)),
    ):
        m = 3
        witness = fiber_germ(val.config).scale(m * (d.a + d.b * val.delta)) + (
            section_germ(val.config).scale(m * d.b)
        )
        assert germ_value(val, witness) == m * mu_hat(val, d)
    val = nonspecial_example_valuation()
    d = BigDivisor(2, 5)
    witness = fiber_germ(val.config).scale(2) + section_germ(val.config).scale(5)
    assert germ_value(val, witness) == mu_hat(val, d)


# --------------------------------------------------------------- lower bound


def test_lower_bound_shipped_example():
    mu2, rhs, holds = lower_bound(special_example_valuation(), (1, 2))
    assert (mu2, rhs, holds) == (24336, 7344, True)


def test_lower_bound_equality_for_minimal_example():
    mu2, rhs, holds = lower_bound(minimal_four_point_valuation(), (2, 1))
    assert holds and mu2 == rhs == 16


def test_lower_bound_guards_non_big_classes():
    with pytest.raises(NotBig):
        lower_bound(order_valuation(), (0, 1))


# ---------------------------------------------------------------- minimality


def test_minimal_four_point_example():
    val = minimal_four_point_valuation()
    assert val.beta_bar == (1, 4)
    assert val.phi_f1 == 1 and val.phi_m == 2
    assert is_minimal(val, (2, 1))
    assert not is_minimal(val, (3, 1))
    assert not never_minimal(val)


def test_shipped_examples_are_never_minimal():
    special = special_example_valuation()
    assert never_minimal(special)
    assert not is_minimal(special, (1, 2))
    nonspecial = nonspecial_example_valuation()
    assert never_minimal(nonspecial)
    assert not is_minimal(nonspecial, (2, 5))


def test_is_minimal_requires_nef_big():
    with pytest.raises(NotNefBig):
        is_minimal(special_example_valuation(), (-1, 2))


def test_is_minimal_cross_check_survives_optimisation():
    # The check against the volume bound must not be an ``assert``, which
    # ``python -O`` strips; it raises the typed invariant error.
    script = (
        "import sys\n"
        "import hirzebruch.seshadri as seshadri\n"
        "from hirzebruch import Surface, build_configuration, divisorial_valuation\n"
        "from hirzebruch.errors import InvariantBroken\n"
        "surface = Surface(0)\n"
        "config = build_configuration(surface, [{'on_f1': True, 'on_m': True}])\n"
        "seshadri.lower_bound = lambda val, d: (1, 2, False)\n"
        "try:\n"
        "    seshadri.is_minimal(divisorial_valuation(surface, config), (1, 1))\n"
        "except InvariantBroken as exc:\n"
        "    print('raised', exc.clause, sys.flags.optimize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )
    assert out.stdout.strip() == "raised minimality 1", out.stderr


def test_minimality_matches_squared_bound(corpus):
    for val, _, d in corpus[:60]:
        mu2, rhs, holds = lower_bound(val, d)
        assert holds
        assert is_minimal(val, d) == (mu2 == rhs)


# ------------------------------------------------------------------ bisection


def test_bisection_certificates():
    assert mu_hat_bisection_check(special_example_valuation(), (1, 2))
    assert mu_hat_bisection_check(nonspecial_example_valuation(), (2, 5))
    assert mu_hat_bisection_check(minimal_four_point_valuation(), (2, 1))


# -------------------------------------------------- profile instrumentation


def _profile_special(val, x):
    num = (x + val.delta) * val.phi_f1 + val.phi_m
    if 0 <= x:
        return Fraction(num * num, 2 * x + val.delta)
    return num * num / (((x / val.delta) + 1) ** 2 * val.delta)


def _profile_nonspecial(val, x):
    num = val.phi_f1 * x + val.phi_m
    if 0 <= x:
        return Fraction(num * num, 2 * x + val.delta)
    return num * num / (((x / val.delta) + 1) ** 2 * val.delta)


def test_profile_equals_squared_ratio():
    rng = random.Random(31)
    special = special_example_valuation()
    nonspecial = nonspecial_example_valuation()
    for val, profile in ((special, _profile_special), (nonspecial, _profile_nonspecial)):
        for _ in range(25):
            b = rng.randint(1, 12)
            a = rng.randint(-val.delta * b + 1, 12)
            d = BigDivisor(a, b)
            x = Fraction(a, b)
            ratio = Fraction(mu_hat(val, d) ** 2, vol(val, d))
            if val.is_special or a >= 0:
                assert profile(val, x) == ratio
            else:
                # shedding the negative part can only lower the constant,
                # and the certified ratio stays above the reciprocal volume
                assert profile(val, x) >= ratio
                assert ratio == Fraction(val.phi_m**2, val.delta)
                assert ratio > val.last_contact


def test_profile_minimum_value():
    val = special_example_valuation()
    x1 = Fraction(val.phi_m, val.phi_f1)
    floor = 2 * val.phi_m * val.phi_f1 + val.delta * val.phi_f1**2
    assert _profile_special(val, x1) == floor
    rng = random.Random(33)
    for _ in range(40):
        x = Fraction(rng.randint(-2 * val.delta * 4 + 1, 60), rng.randint(1, 7))
        if x <= -val.delta:
            continue
        assert _profile_special(val, x) >= floor
    # strict floor above the reciprocal volume certifies never-minimal
    assert floor > val.last_contact


def test_nonspecial_profile_minimum():
    val = nonspecial_example_valuation()
    w = val.phi_m - val.delta * val.phi_f1
    x1 = Fraction(w, val.phi_f1)
    floor = 2 * val.phi_m * val.phi_f1 - val.delta * val.phi_f1**2
    assert _profile_nonspecial(val, x1) == floor
    assert floor > val.last_contact


def test_theta_examples():
    assert theta(special_example_valuation(), (1, 2)) == -36
    assert theta(nonspecial_example_valuation(), (2, 5)) == -45
