import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hirzebruch.lattice as lattice
import hirzebruch.zariski as zariski_module
import zariski_reference as reference
from hirzebruch import (
    GENERAL,
    SPECIAL,
    BigDivisor,
    DivisorClassZ,
    Surface,
    alpha_beta,
    closed_form_decomposition,
    curve_basis,
    div_class,
    divisorial_valuation,
    exceptional,
    flag_valuation,
    is_negative_definite,
    mu_hat,
    newton_okounkov_body,
    pair,
    pullback,
    sweep_body,
    t_values,
    theta,
    zariski_decompose,
    zariski_fano_base,
)
from hirzebruch.cluster import truncate_valuation
from hirzebruch.errors import InvariantBroken, NegativePartOnEr, NotPseudoeffective
from hirzebruch.lattice import CurveBasis
from hirzebruch.okounkov import sweep_breakpoints
from hirzebruch.zariski import _Regime, _forest_solve, _swept_class

from conftest import (
    chain_value,
    ladder_configuration,
    nonspecial_example_valuation,
    random_flag,
    random_nef_big,
    random_valuation,
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
    total = zp.positive + sum(
        (c * basis.get(name) for name, c in zp.components), 0 * zp.divisor
    )
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
    with pytest.raises(NotPseudoeffective, match=r"^-5 F \+ 2 M is not"):
        zariski_fano_base(2, (-5, 2))
    with pytest.raises(NotPseudoeffective, match=r"^-1 F \+ 1 M is not"):
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
    # The refusal names the support and the offending coefficient.
    val = special_example_valuation()
    basis = curve_basis(val)
    support = re.escape("support " + ", ".join(basis.names))
    with pytest.raises(
        NotPseudoeffective,
        match=rf"^{support}: negative part would need a negative coefficient, E2 = -1$",
    ):
        zariski_decompose(pullback(2, -1, 0, val.r), basis)
    mu = mu_hat(val, BigDivisor(1, 2))
    beyond = pullback(2, 1, 2, val.r) - (40 * mu) * exceptional(2, val.r, val.r)
    with pytest.raises(
        NotPseudoeffective, match=r"^support F1, M0, E1, .*, E12: negative part "
        r"would need a negative coefficient, E12 = -6084$"
    ):
        zariski_decompose(beyond, basis)


def _outcome(engine, cls, basis):
    try:
        zp = engine(cls, basis)
    except NotPseudoeffective as exc:
        return "refused", str(exc)
    return zp.positive, zp.components


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    inside=st.fractions(0, 1, max_denominator=64),
    beyond=st.fractions(1, 8, max_denominator=64).filter(lambda x: x > 1),
)
def test_integer_engine_equals_dense_reference(seed, inside, beyond):
    # On D* - t E_r for t in [0, mu_hat], at both breakpoints, and beyond
    # mu_hat, where the class is refused: the integer engine returns what
    # the dense Fraction engine returns, and refuses for the same reason.
    rng = random.Random(seed)
    val = random_valuation(rng, r_max=10)
    d = random_nef_big(rng, val.delta)
    basis = curve_basis(val)
    mu = mu_hat(val, d)
    base = pullback(val.delta, d.a, d.b, val.r)
    e_last = exceptional(val.delta, val.r, val.r)
    for t in (inside * mu, *t_values(val, d), beyond * mu):
        cls = base - t * e_last
        got = _outcome(zariski_decompose, cls, basis)
        want = _outcome(reference.zariski_decompose, cls, basis)
        if want[0] == "refused":
            assert got[0] == "refused" and want[1] in got[1]
        else:
            assert got == want


_coordinate = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    delta=st.integers(0, 3),
    rows=st.lists(
        st.tuples(_coordinate, _coordinate, st.lists(_coordinate, min_size=4, max_size=4)),
        min_size=1,
        max_size=5,
    ),
    exceptional_only=st.booleans(),
)
def test_is_negative_definite_equals_leading_minors(delta, rows, exceptional_only):
    # Classes without fiber and section parts are mostly negative definite.
    if exceptional_only:
        rows = [(0, 0, e) for _, _, e in rows]
    classes = [div_class(delta, f, m, e) for f, m, e in rows]
    gram = [[pair(a, b) for b in classes] for a in classes]
    minors = leading_minor_determinants(gram)
    expected = all(det != 0 and (det > 0) == (k % 2 == 0) for k, det in enumerate(minors, 1))
    assert is_negative_definite(classes) == expected
    assert reference.is_negative_definite(classes) == expected


def test_definiteness_failure_names_the_leading_minor():
    assert lattice.definiteness_failure([[-2, 1], [1, -2]]) is None
    assert lattice.definiteness_failure([[-1, 2], [2, -1]]) == (2, -3)
    assert lattice.definiteness_failure([[0, 1], [1, -1]]) == (1, 0)
    assert lattice.definiteness_failure([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]) == (3, 1)


def test_sweep_makes_no_dense_pairing_and_adds_no_class(monkeypatch):
    # The engine pairs the input with the generators in integers and the
    # sweep reads beta from the Gram column over the support: one sweep of
    # the body calls the dense pairing 0 times and adds 0 classes.
    val = special_example_valuation()
    flag = flag_valuation(val, 8)
    d = BigDivisor(1, 2)
    e_last = exceptional(2, val.r, val.r)
    cls = pullback(2, 1, 2, val.r) - t_values(val, d)[0] * e_last
    calls = Counter()
    dense_pair = lattice.pair
    dense_add = DivisorClassZ.__add__

    def counting_pair(x, y):
        calls["pair"] += 1
        return dense_pair(x, y)

    def counting_add(x, y):
        calls["add"] += 1
        return dense_add(x, y)

    for name, module in list(sys.modules.items()):
        holds_pair = getattr(module, "pair", None) is dense_pair
        if name.split(".")[0] == "hirzebruch" and holds_pair:
            monkeypatch.setattr(module, "pair", counting_pair)
    monkeypatch.setattr(DivisorClassZ, "__add__", counting_add)
    assert sweep_body(flag, d) == newton_okounkov_body(flag, d)
    assert calls == Counter()
    # The counters are live: reading the positive class adds classes, and
    # its dense pairing with E_r is the Gram-column one.
    zp = zariski_decompose(cls, curve_basis(val))
    assert zp.components
    assert lattice.pair(zp.positive, e_last) == zp.positive_pairing(f"E{val.r}")
    assert calls["pair"] == 1 and calls["add"] > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), inside=st.fractions(0, 1, max_denominator=64))
def test_alpha_beta_equals_dense_route(seed, inside):
    # At t in [0, mu_hat] and at both breakpoints: alpha is the reference
    # engine's coefficient on E_eta and beta adds the dense pairing of the
    # reference's positive class with E_r.
    rng = random.Random(seed)
    val = random_valuation(rng, r_max=10)
    d = random_nef_big(rng, val.delta)
    flag = random_flag(rng, val, d)
    basis = curve_basis(val)
    e_last = exceptional(val.delta, val.r, val.r)
    for t in (inside * mu_hat(val, d), *t_values(val, d)):
        cls = pullback(val.delta, d.a, d.b, val.r) - t * e_last
        ref = reference.zariski_decompose(cls, basis)
        if ref.coefficient(f"E{val.r}"):
            with pytest.raises(NegativePartOnEr):
                alpha_beta(flag, d, t)
            continue
        alpha = ref.coefficient(f"E{flag.eta}") if flag.is_satellite else 0
        beta = alpha + pair(reference.positive_part(cls, basis), e_last)
        assert alpha_beta(flag, d, t) == (alpha, beta)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), inside=st.fractions(0, 1, max_denominator=64))
def test_lazy_positive_equals_dense_positive(seed, inside):
    # The positive class built on first read is the one the dense loop
    # computes, and the Gram-column pairing equals the dense pairing with
    # every generator.
    rng = random.Random(seed)
    val = random_valuation(rng, r_max=10)
    d = random_nef_big(rng, val.delta)
    basis = curve_basis(val)
    e_last = exceptional(val.delta, val.r, val.r)
    for t in (inside * mu_hat(val, d), *t_values(val, d)):
        cls = pullback(val.delta, d.a, d.b, val.r) - t * e_last
        zp = zariski_decompose(cls, basis)
        dense = reference.positive_part(cls, basis)
        assert zp.positive == dense
        for name, c in basis.items():
            assert zp.positive_pairing(name) == pair(dense, c)


def _hand_basis(delta, rows):
    """A basis of generators ``A, B, ...`` with integer coordinates
    ``(f, m, e)``; it need not be the cone of curves of a surface."""
    names = tuple("ABCDEFGH"[: len(rows)])
    return CurveBasis.from_classes(delta, names, [div_class(delta, *row) for row in rows])


def _count_definiteness_checks(monkeypatch):
    """Count the calls to ``lattice.definiteness_failure``."""
    calls = Counter()
    original = lattice.definiteness_failure

    def counting(gram):
        calls["definiteness_failure"] += 1
        return original(gram)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "definiteness_failure", None)
        if name.split(".")[0] == "hirzebruch" and held is original:
            monkeypatch.setattr(module, "definiteness_failure", counting)
    return calls


# On F_2 with three points: A = E1* - E2*, B = E2* - E3* and
# C = M* - E2* - E3*.  Gram (-2, 1, -1; 1, -2, 0; -1, 0, 0), a star at A:
# C has square 0, and as a leaf under A its reduced pivot is 0.
_STAR = ((0, 0, (1, -1, 0)), (0, 0, (0, 1, -1)), (0, 1, (0, -1, -1)))
# Pairings (-2, -2, -2): C pairs with A, whose value C's equation fixes;
# the solution (2, 2, 0) leaves C out of the negative part.
_STAR_DECOMPOSED = (0, 0, (2, 0, -2))
# Pairings (-4, -2, -2): the solution (2, 2, 2) is positive on the whole
# star, whose leading minors are -2, 3 and 2.
_STAR_INDEFINITE = (0, 0, (4, 0, -2))
# -F* meets only C, negatively: C alone is a zero-pivot root.
_STAR_SINGULAR = (-1, 0, (0, 0, 0))


def test_zero_pivot_pairs_with_its_parent():
    # A zero reduced pivot pairs the leaf with its parent, and the
    # decomposition is the reference's.
    basis = _hand_basis(2, _STAR)
    assert [basis.sparse_gram[k].get(k, 0) for k in range(3)] == [-2, -2, 0]
    assert basis.sparse_gram[2] == {0: -1}
    cls = div_class(2, *_STAR_DECOMPOSED)
    assert basis.pairings(cls) == ([-2, -2, -2], 1)
    zp = zariski_decompose(cls, basis)
    assert zp.components == (("A", Fraction(2)), ("B", Fraction(2)))
    assert _outcome(zariski_decompose, cls, basis) == _outcome(
        reference.zariski_decompose, cls, basis
    )
    for name, c in basis.items():
        assert zp.positive_pairing(name) == pair(zp.positive, c)
    # A support whose only generator has square 0 is singular.
    with pytest.raises(NotPseudoeffective) as exc:
        zariski_decompose(div_class(2, *_STAR_SINGULAR), basis)
    assert str(exc.value) == "support C: orthogonality system is singular"


def test_indefinite_support_names_its_leading_minor(monkeypatch):
    # A pair was formed, so the chosen rows are eliminated again, once, only
    # to name the failing minor.
    calls = _count_definiteness_checks(monkeypatch)
    basis = _hand_basis(2, _STAR)
    with pytest.raises(NotPseudoeffective) as exc:
        zariski_decompose(div_class(2, *_STAR_INDEFINITE), basis)
    assert str(exc.value) == (
        "support A, B, C: support Gram matrix is not negative definite, "
        "leading minor 3 is 2"
    )
    assert calls == Counter(definiteness_failure=1)


def test_engine_refuses_a_cycle_in_the_support():
    # A = E1* - E2*, B = E2* - E3*, C = E1* - E3* meet pairwise: no basis of
    # a valuation looks like this, and the solve's walk refuses it.
    basis = _hand_basis(0, [(0, 0, (1, -1, 0)), (0, 0, (0, 1, -1)), (0, 0, (1, 0, -1))])
    cls = div_class(0, 0, 0, (1, 0, -1))
    assert basis.pairings(cls) == ([-1, -1, -2], 1)
    with pytest.raises(InvariantBroken, match=r"^generator forest: support A, B, C: "):
        zariski_decompose(cls, basis)


@st.composite
def _forest_systems(draw):
    """A forest Gram on 1 to 12 vertices, as rows of non-zero entries, with
    a walk order and an integer right-hand side."""
    n = draw(st.integers(1, 12))
    gram = [{} for _ in range(n)]
    for v in range(n):
        # Zero is drawn often, so that two zero-pivot leaves share a parent.
        diagonal = draw(st.one_of(st.just(0), st.integers(-3, 1)))
        if diagonal:
            gram[v][v] = diagonal
    for v in range(1, n):
        u = draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if u is not None:
            gram[u][v] = gram[v][u] = draw(st.sampled_from([-2, -1, 1, 2]))
    support = draw(st.permutations(range(n)))
    rhs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    return tuple(gram), support, rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system=_forest_systems())
def test_forest_solve_equals_dense_reference(system):
    # Zero and positive pivots occur: the solve equals the dense Fraction
    # solve, or both call the system singular, and it calls the support
    # negative definite exactly when the leading minors say so.
    gram, support, rhs = system
    names = [f"G{k}" for k in range(len(gram))]
    dense = [[gram[i].get(j, 0) for j in support] for i in support]
    want = reference._solve(
        [[Fraction(x) for x in row] for row in dense], [Fraction(rhs[i]) for i in support]
    )
    solved = _forest_solve(gram, names, list(support), rhs)
    if want is None:
        assert solved is None
        return
    assert solved is not None
    x, det, definite = solved
    assert [Fraction(v, det) for v in x] == want
    assert definite == (lattice.definiteness_failure(dense) is None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    f=st.fractions(-4, 24, max_denominator=6),
    m=st.fractions(-4, 24, max_denominator=6),
    e=st.lists(st.fractions(-16, 4, max_denominator=8), min_size=12, max_size=12),
)
def test_engine_equals_dense_reference_on_random_classes(seed, f, m, e):
    # Any rational class, not only D* - t E_r: the same positive part and
    # components, or a refusal for the same reason.
    val = random_valuation(random.Random(seed), r_max=12)
    basis = curve_basis(val)
    cls = div_class(val.delta, f, m, e[: val.r])
    got = _outcome(zariski_decompose, cls, basis)
    want = _outcome(reference.zariski_decompose, cls, basis)
    if want[0] == "refused":
        assert got[0] == "refused" and want[1] in got[1]
    else:
        assert got == want


@pytest.mark.parametrize("family", ["tail", "block"])
def test_sweep_runs_no_definiteness_check(monkeypatch, family):
    # At r = 92 with eta = r - 1 every support a sweep solves is negative
    # definite by its own pivots: 0 separate definiteness checks.
    surface = Surface(2, SPECIAL)
    val = divisorial_valuation(surface, ladder_configuration(family, 92))
    flag = flag_valuation(val, val.r - 1)
    d = BigDivisor(1, 2)
    calls = _count_definiteness_checks(monkeypatch)
    assert sweep_body(flag, d) == newton_okounkov_body(flag, d)
    assert calls == Counter()
    # The counter is live: a refused class is checked once.
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(div_class(2, *_STAR_INDEFINITE), _hand_basis(2, _STAR))
    assert calls == Counter(definiteness_failure=1)


def _count_solves(monkeypatch):
    """Count the calls to ``zariski._forest_solve``."""
    calls = Counter()
    original = zariski_module._forest_solve

    def counting(*args):
        calls["solve"] += 1
        return original(*args)

    monkeypatch.setattr(zariski_module, "_forest_solve", counting)
    return calls


@pytest.mark.parametrize("family", ["tail", "block"])
def test_sweep_carries_its_support(monkeypatch, family):
    # Each sample starts from the previous sample's support, so only the
    # first sample with a negative part grows it from nothing: at most
    # r + 2 solves per sample in one sweep, where cold samples take about
    # r each.
    surface = Surface(2, SPECIAL)
    val = divisorial_valuation(surface, ladder_configuration(family, 92))
    flag = flag_valuation(val, val.r - 1)
    d = BigDivisor(1, 2)
    samples = len(sweep_breakpoints(flag, d))
    calls = _count_solves(monkeypatch)
    assert sweep_body(flag, d) == newton_okounkov_body(flag, d)
    assert 0 < calls["solve"] <= val.r + 2 * samples
    # The counter is live: a cold decomposition in the sweep's chamber
    # grows its support one round at a time.
    before = calls["solve"]
    t = t_values(val, d)[1]
    zariski_decompose(_swept_class(val, d, t), curve_basis(val))
    assert calls["solve"] - before > val.r // 2


def _sweep_case(rng, case):
    """A valuation, flag and big class for the warm-start property test:
    a nef class at a center of the given kind, or a non-nef one at a
    general center."""
    if case == "non-nef":
        val = random_valuation(rng, r_max=10, point_kind=GENERAL)
        b = rng.randint(2 if val.delta == 1 else 1, 6)
        d = BigDivisor(rng.randint(-b * val.delta + 1, -1), b)
        return val, random_flag(rng, val, BigDivisor(0, 1)), d
    val = random_valuation(rng, r_max=10, point_kind=case)
    d = random_nef_big(rng, val.delta)
    return val, random_flag(rng, val, d), d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([SPECIAL, GENERAL, None, "non-nef"]),
)
def test_warm_sweep_equals_cold_engine(seed, case):
    # At every sample of the sweep, the engine started from the previous
    # sample's support gives the cold engine's components and E_r pairing
    # of the positive part, and the carrying alpha_beta the cold (alpha,
    # beta); what it carries on is the cold support.
    val, flag, d = _sweep_case(random.Random(seed), case)
    basis = curve_basis(val)
    last = f"E{val.r}"
    carry: list[int] = []
    for t in sweep_breakpoints(flag, d):
        cls = _swept_class(val, d, t)
        cold = zariski_decompose(cls, basis)
        warm = zariski_decompose(cls, basis, _start=list(carry))
        assert warm.components == cold.components
        assert warm.positive_pairing(last) == cold.positive_pairing(last)
        assert alpha_beta(flag, d, t, _carry=carry) == alpha_beta(flag, d, t)
        assert carry == [basis.index[name] for name, _ in cold.components]


def test_start_outside_the_negative_part_is_refused():
    # -E1* on the star meets A positively and B, C not at all, so it is nef:
    # the cold engine finds no negative part.  Started from A it pulls C in
    # and ends with A at 0, which the warm start's theorem rules out.
    basis = _hand_basis(2, _STAR)
    cls = div_class(2, 0, 0, (-1, 0, 0))
    assert basis.pairings(cls) == ([1, 0, 0], 1)
    assert zariski_decompose(cls, basis).components == ()
    with pytest.raises(
        InvariantBroken, match=r"^sweep support: support A, C: start generator A ends at 0$"
    ):
        zariski_decompose(cls, basis, _start=[0])


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


def assert_at_stage_matches_truncation(val):
    """The chain value read by ``at_stage`` equals the value of the chain
    under each truncated valuation, for both chains and every stage."""
    for chain in (val.config.f1_chain, val.config.m_chain):
        # theta = 1 and zero affine parts: the upper value is the chain value.
        rec = _Regime(1, Fraction(0), 0, 1, "F1", chain, 1)
        for i in range(1, val.r + 1):
            stage = val if i == val.r else truncate_valuation(val, i)
            assert rec.at_stage(val, i)[1] == chain_value(stage, chain)


@pytest.mark.parametrize("family", ["tail", "block"])
@pytest.mark.parametrize("r", [92, 212])
def test_at_stage_matches_truncation_on_ladders(family, r):
    surface = Surface(2, SPECIAL)
    assert_at_stage_matches_truncation(
        divisorial_valuation(surface, ladder_configuration(family, r))
    )


def test_at_stage_matches_truncation_on_random_valuations():
    rng = random.Random(5)
    for _ in range(400):
        assert_at_stage_matches_truncation(
            random_valuation(rng, r_max=10, require_npi=False)
        )


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
