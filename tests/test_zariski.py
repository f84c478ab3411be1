import random
from fractions import Fraction

import pytest

from hirzebruch import (
    BigDivisor,
    alpha_beta,
    closed_form_decomposition,
    curve_basis,
    exceptional,
    flag_valuation,
    mu_hat,
    pair,
    pullback,
    t_values,
    theta,
    zariski_decompose,
    zariski_fano_base,
)
from hirzebruch.errors import NotPseudoeffective

from conftest import (
    nonspecial_example_valuation,
    random_flag,
    special_example_valuation,
)


def leading_minor_determinants(matrix):
    """Independent exact determinants of all leading principal minors."""
    n = len(matrix)
    out = []
    for k in range(1, n + 1):
        m = [row[:k] for row in matrix[:k]]
        det = Fraction(1)
        for c in range(k):
            piv_row = next((r for r in range(c, k) if m[r][c] != 0), None)
            if piv_row is None:
                det = Fraction(0)
                break
            if piv_row != c:
                m[c], m[piv_row] = m[piv_row], m[c]
                det = -det
            det *= m[c][c]
            inv = Fraction(1) / m[c][c]
            for r in range(c + 1, k):
                factor = m[r][c] * inv
                if factor:
                    m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
        out.append(det)
    return out


def assert_sound(zp, input_class, basis):
    """The three decomposition invariants, checked independently."""
    total = zp.positive + zp.negative_class()
    assert total == input_class
    support = [basis.get(name) for name, _ in zp.components]
    for cls in support:
        assert pair(zp.positive, cls) == 0
    for _, coeff in zp.components:
        assert coeff > 0
    for cls in basis.classes:
        assert pair(zp.positive, cls) >= 0
    if support:
        gram = [[pair(a, b) for b in support] for a in support]
        for k, det in enumerate(leading_minor_determinants(gram), 1):
            assert det != 0 and (det > 0) == (k % 2 == 0)


# ------------------------------------------------------------------- base case


def test_fano_base_nef_class():
    out = zariski_fano_base(2, (1, 2))
    assert out.positive == (1, 2) and out.negative_m0 == 0


def test_fano_base_big_not_nef():
    out = zariski_fano_base(2, (-1, 1))
    assert out.positive == (0, Fraction(1, 2))
    assert out.negative_m0 == Fraction(1, 2)


def test_fano_base_boundary():
    out = zariski_fano_base(3, (0, 1))
    assert out.positive == (0, 1) and out.negative_m0 == 0


def test_fano_base_rejects_non_pseudoeffective():
    with pytest.raises(NotPseudoeffective):
        zariski_fano_base(2, (-5, 2))
    with pytest.raises(NotPseudoeffective):
        zariski_fano_base(0, (-1, 1))


# --------------------------------------------------------------------- engine


def test_engine_nef_input_has_empty_negative_part():
    val = special_example_valuation()
    basis = curve_basis(val)
    d_star = pullback(2, 1, 2, val.r)
    zp = zariski_decompose(d_star, basis)
    assert zp.components == ()
    assert zp.positive == d_star


def test_engine_soundness_on_shipped_sweeps():
    for val, d in (
        (special_example_valuation(), BigDivisor(1, 2)),
        (nonspecial_example_valuation(), BigDivisor(2, 5)),
    ):
        basis = curve_basis(val)
        lo, hi = t_values(val, d)
        mu = mu_hat(val, d)
        for t in (Fraction(0), lo / 2, lo, (lo + hi) / 2, hi, (hi + mu) / 2, mu):
            cls = pullback(2, d.a, d.b, val.r) - t * exceptional(2, val.r, val.r)
            assert_sound(zariski_decompose(cls, basis), cls, basis)


def test_engine_rejects_non_pseudoeffective_classes():
    val = special_example_valuation()
    basis = curve_basis(val)
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(pullback(2, -1, 0, val.r), basis)
    mu = mu_hat(val, BigDivisor(1, 2))
    beyond = pullback(2, 1, 2, val.r) - (40 * mu) * exceptional(2, val.r, val.r)
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(beyond, basis)


# ---------------------------------------------------------------- closed forms


def test_breakpoints_of_shipped_examples():
    special = special_example_valuation()
    assert t_values(special, (1, 2)) == (Fraction(612, 28), Fraction(4068, 68))
    nonspecial = nonspecial_example_valuation()
    assert t_values(nonspecial, (2, 5)) == (Fraction(9432, 45), Fraction(3597, 15))


def test_breakpoints_coincide_when_theta_vanishes():
    val = special_example_valuation()
    # theta = a*20 - b*28 = 0 at (a, b) = (7, 5)
    assert theta(val, (7, 5)) == 0
    lo, hi = t_values(val, (7, 5))
    assert lo == hi


def test_closed_forms_match_engine_on_shipped_examples(corpus):
    # One nef and big divisor per corpus valuation (the corpus holds four
    # cases per valuation): the engine is the only independent check of the
    # negative-part coefficients below stage r.
    for val, d in (
        (special_example_valuation(), BigDivisor(1, 2)),
        (nonspecial_example_valuation(), BigDivisor(2, 5)),
        *((val, d) for val, _, d in corpus[::4]),
    ):
        basis = curve_basis(val)
        lo, hi = t_values(val, d)
        for which, t in (("lower", lo), ("upper", hi)):
            closed = closed_form_decomposition(val, d, which)
            cls = pullback(val.delta, d.a, d.b, val.r) - t * exceptional(
                val.delta, val.r, val.r
            )
            engine = zariski_decompose(cls, basis)
            assert closed.positive == engine.positive
            assert closed.components == engine.components
            assert_sound(closed, cls, basis)


def test_closed_form_fiber_regime():
    # theta > 0 regime of the shipped special example
    val = special_example_valuation()
    d = BigDivisor(10, 1)
    assert theta(val, d) > 0
    basis = curve_basis(val)
    lo, hi = t_values(val, d)
    for which, t in (("lower", lo), ("upper", hi)):
        closed = closed_form_decomposition(val, d, which)
        cls = pullback(2, 10, 1, val.r) - t * exceptional(2, val.r, val.r)
        assert closed.positive == zariski_decompose(cls, basis).positive
        assert_sound(closed, cls, basis)
    assert closed.coefficient("F1") > 0


# --------------------------------------------------------------------- sweeps


def test_alpha_beta_at_zero():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    assert alpha_beta(flag, (1, 2), 0) == (0, 0)


def test_alpha_beta_at_lower_breakpoint():
    # oracle run bracketing the first vertex pair of the body
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    lo, _ = t_values(val, (1, 2))
    assert alpha_beta(flag, (1, 2), lo) == (Fraction(152, 28), Fraction(153, 28))


def test_alpha_beta_at_the_constant():
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    assert alpha_beta(flag, (1, 2), 156) == (39, 39)


def test_volume_profile_along_the_sweep():
    val = special_example_valuation()
    basis = curve_basis(val)
    d = BigDivisor(1, 2)
    mu = mu_hat(val, d)
    samples = [mu * Fraction(k, 8) for k in range(9)]
    volumes = []
    for t in samples:
        cls = pullback(2, 1, 2, val.r) - t * exceptional(2, val.r, val.r)
        p = zariski_decompose(cls, basis).positive
        volumes.append(pair(p, p))
    assert all(x >= y for x, y in zip(volumes, volumes[1:]))
    assert all(v > 0 for v in volumes[:-1])
    assert volumes[-1] == 0


def _convexity_profile(flag, d):
    val = flag.base
    lo, hi = t_values(val, d)
    mu = mu_hat(val, d)
    base = sorted({Fraction(0), lo, hi, mu})
    samples = []
    for i, t in enumerate(base):
        if i:
            samples.append((base[i - 1] + t) / 2)
        samples.append(t)
    return [(t, *alpha_beta(flag, d, t)) for t in samples]


def test_alpha_convex_beta_concave():
    rng = random.Random(23)
    for val, d in (
        (special_example_valuation(), BigDivisor(1, 2)),
        (nonspecial_example_valuation(), BigDivisor(2, 5)),
        (special_example_valuation(), BigDivisor(9, 1)),
    ):
        flag = random_flag(rng, val, d)
        profile = _convexity_profile(flag, d)
        for (t0, a0, b0), (t1, a1, b1), (t2, a2, b2) in zip(
            profile, profile[1:], profile[2:]
        ):
            if t0 == t2:
                continue
            assert a1 * (t2 - t0) <= a0 * (t2 - t1) + a2 * (t1 - t0)
            assert b1 * (t2 - t0) >= b0 * (t2 - t1) + b2 * (t1 - t0)
        alphas = [a for _, a, _ in profile]
        assert all(x <= y for x, y in zip(alphas, alphas[1:]))
