import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hirzebruch.lattice as lattice
import hirzebruch.okounkov as okounkov_module
import hirzebruch.zariski as zariski_module
import sweep_reference
import zariski_reference as reference
from hirzebruch import (
    GENERAL,
    SPECIAL,
    BigDivisor,
    DivisorClassZ,
    Surface,
    alpha_beta,
    build_configuration,
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
    verify_body,
    vol,
    zariski_decompose,
)
from hirzebruch.cluster import truncate_valuation
from hirzebruch.errors import (
    HirzebruchError,
    InvariantBroken,
    NegativePartOnEr,
    NotBig,
    NotPseudoeffective,
    VerificationFailed,
)
from hirzebruch.lattice import CurveBasis
from hirzebruch.zariski import _Regime, _forced, _forest_solve, _swept_class

from conftest import (
    chain_value,
    ladder_configuration,
    minimal_four_point_valuation,
    nonspecial_example_valuation,
    random_flag,
    random_draws,
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


def _negative_definite(matrix) -> bool:
    """Whether the leading minors alternate in sign, starting negative."""
    minors = leading_minor_determinants(matrix)
    return all(det != 0 and (det > 0) == (k % 2 == 0) for k, det in enumerate(minors, 1))


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
        assert _negative_definite(gram)


# ------------------------------------------------------------------- base case


def test_fano_base_nef_class():
    # A nef class is its own positive part: its volume is its self-pairing.
    val = nonspecial_example_valuation()
    cls = pullback(2, 1, 2, val.r)
    assert vol(val, (1, 2)) == pair(cls, cls) == 12
    assert mu_hat(val, (1, 2)) == val.phi_f1 + 2 * val.phi_m


def test_fano_base_big_not_nef():
    # -F + M on F_2 sheds M0 / 2: the positive part is (b + a/delta) M.
    val = nonspecial_example_valuation()
    assert vol(val, (-1, 1)) == Fraction(1, 2) ** 2 * 2
    assert mu_hat(val, (-1, 1)) == Fraction(1, 2) * val.phi_m


def test_fano_base_boundary():
    # M on F_3 is nef and its own positive part; -3F + 2M sheds one M0 and
    # keeps the same positive part, b + a/delta = 1.
    surface = Surface(3, SPECIAL)
    val = divisorial_valuation(
        surface, build_configuration(surface, [{"on_f1": True, "on_m": True}])
    )
    assert vol(val, (0, 1)) == vol(val, (-3, 2)) == 3


def test_fano_base_rejects_non_pseudoeffective():
    # Below the boundary a + delta * b >= 0 the class is not big, and the
    # engine refuses its pullback.
    val = nonspecial_example_valuation()
    with pytest.raises(NotBig, match=r"^-5 F \+ 2 M is not big"):
        vol(val, (-5, 2))
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(pullback(2, -5, 2, val.r), curve_basis(val))
    minimal = minimal_four_point_valuation()
    with pytest.raises(NotBig, match=r"^-1 F \+ 1 M is not big"):
        vol(minimal, (-1, 1))
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(pullback(0, -1, 1, minimal.r), curve_basis(minimal))


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
    # The refusal names the support and the first generator whose reduced
    # pivot is not negative.
    val = special_example_valuation()
    basis = curve_basis(val)
    support = re.escape("support " + ", ".join(basis.names))
    indefinite = f"^{support}: support Gram matrix is not negative definite, "
    with pytest.raises(NotPseudoeffective, match=indefinite + "reduced pivot of E2 is 0$"):
        zariski_decompose(pullback(2, -1, 0, val.r), basis)
    mu = mu_hat(val, BigDivisor(1, 2))
    beyond = pullback(2, 1, 2, val.r) - (40 * mu) * exceptional(2, val.r, val.r)
    with pytest.raises(NotPseudoeffective, match=indefinite + "reduced pivot of E8 is 1/82$"):
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
    expected = _negative_definite(gram)
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
    sparse = tuple((f, m, {j: x for j, x in enumerate(e) if x}) for f, m, e in rows)
    return CurveBasis(delta, len(rows[0][2]), names, sparse)


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
# C = M* - E2* - E3*.  Gram (-2, 1, -1; 1, -2, 0; -1, 0, 0), a star at A
# whose edge A.C = -1 no two distinct curves on a surface have.
_STAR = ((0, 0, (1, -1, 0)), (0, 0, (0, 1, -1)), (0, 1, (0, -1, -1)))
# Pairings (-2, -2, -2): the whole star is forced in.
_STAR_CLASS = (0, 0, (2, 0, -2))
# A = E1* and B = F* - E1*, both of square -1, meet at 1: B's reduced pivot
# under the leaf A is -1 - 1/(-1) = 0.
_PENCIL = ((0, 0, (1,)), (1, 0, (-1,)))
# -M* meets B at -1 and A at 0, so both are forced in.
_PENCIL_CLASS = (0, -1, (0,))


def test_star_basis_is_refused_as_a_broken_forest():
    # The engine's precondition is a forest of non-negative edges: the walk
    # refuses the negative edge before any pivot is formed.
    basis = _hand_basis(2, _STAR)
    assert basis.sparse_gram[0] == {0: -2, 1: 1, 2: -1}
    cls = div_class(2, *_STAR_CLASS)
    assert basis.pairings(cls) == ([-2, -2, -2], 1)
    with pytest.raises(InvariantBroken) as exc:
        zariski_decompose(cls, basis)
    assert str(exc.value) == "generator forest: support A, B, C: A and C meet at -1"


def test_zero_pivot_is_refused():
    # On a forest with positive edges a zero reduced pivot proves the
    # support is not negative definite, and the class is refused with it.
    basis = _hand_basis(1, _PENCIL)
    assert basis.sparse_gram == ({0: -1, 1: 1}, {0: 1, 1: -1})
    cls = div_class(1, *_PENCIL_CLASS)
    assert basis.pairings(cls) == ([0, -1], 1)
    with pytest.raises(NotPseudoeffective) as exc:
        zariski_decompose(cls, basis)
    assert str(exc.value) == (
        "support A, B: support Gram matrix is not negative definite, "
        "reduced pivot of B is 0"
    )
    assert _outcome(reference.zariski_decompose, cls, basis) == (
        "refused", "support Gram matrix is not negative definite"
    )


def test_engine_refuses_a_cycle_in_the_support():
    # A = E1* - E2*, B = E2* - E3*, C = E1* - E3* meet pairwise: no basis of
    # a valuation looks like this, and the solve's walk refuses it.
    basis = _hand_basis(0, [(0, 0, (1, -1, 0)), (0, 0, (0, 1, -1)), (0, 0, (1, 0, -1))])
    cls = div_class(0, 0, 0, (1, 0, -1))
    assert basis.pairings(cls) == ([-1, -1, -2], 1)
    with pytest.raises(InvariantBroken, match=r"^generator forest: support A, B, C: "):
        zariski_decompose(cls, basis)


@st.composite
def _forest_systems(draw, negative_edge=False):
    """A forest Gram on 1 to 12 vertices, as rows of non-zero entries, with
    a walk order and an integer right-hand side.  Edges are positive, or,
    with ``negative_edge``, one of them is negative."""
    n = draw(st.integers(2 if negative_edge else 1, 12))
    gram = [{} for _ in range(n)]
    for v in range(n):
        # Zero and positive diagonals are drawn often, so that zero and
        # positive reduced pivots occur.
        diagonal = draw(st.one_of(st.just(0), st.integers(-3, 1)))
        if diagonal:
            gram[v][v] = diagonal
    bad = draw(st.integers(1, n - 1)) if negative_edge else None
    for v in range(1, n):
        if v == bad:
            u, w = draw(st.integers(0, v - 1)), draw(st.sampled_from([-2, -1]))
        else:
            u, w = draw(st.one_of(st.none(), st.integers(0, v - 1))), draw(st.sampled_from([1, 2]))
        if u is not None:
            gram[u][v] = gram[v][u] = w
    support = draw(st.permutations(range(n)))
    rhs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    return tuple(gram), support, rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system=_forest_systems())
def test_forest_solve_equals_dense_reference(system):
    # Zero and positive pivots occur: the solve equals the dense Fraction
    # solve when the leading minors say the support is negative definite,
    # and otherwise refuses it at a reduced pivot that is not negative.
    gram, support, rhs = system
    names = [f"G{k}" for k in range(len(gram))]
    dense = [[gram[i].get(j, 0) for j in support] for i in support]
    if not _negative_definite(dense):
        with pytest.raises(NotPseudoeffective, match=r"reduced pivot of G\d+ is \d+(/\d+)?$"):
            _forest_solve(gram, names, list(support), rhs)
        return
    want = reference._solve(
        [[Fraction(x) for x in row] for row in dense], [Fraction(rhs[i]) for i in support]
    )
    x, det = _forest_solve(gram, names, list(support), rhs)
    assert [Fraction(v, det) for v in x] == want


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(system=_forest_systems(negative_edge=True))
def test_forest_solve_refuses_a_negative_edge(system):
    # Whatever the pivots, a negative edge breaks the engine's precondition.
    gram, support, rhs = system
    names = [f"G{k}" for k in range(len(gram))]
    with pytest.raises(InvariantBroken, match=r"^generator forest: .* meet at -[12]$"):
        _forest_solve(gram, names, list(support), rhs)


@st.composite
def _definite_forest_systems(draw):
    """A negative-definite forest Gram on 1 to 12 vertices with positive
    edges, a walk order and a right-hand side ``<= 0``.  Each diagonal entry
    starts near minus the row's edge weight and is lowered, on every row at
    once, until the Gram is negative definite; so rows with and without
    diagonal dominance occur."""
    n = draw(st.integers(1, 12))
    gram = [{} for _ in range(n)]
    for v in range(1, n):
        u = draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if u is not None:
            gram[u][v] = gram[v][u] = draw(st.sampled_from([1, 2]))
    for v, row in enumerate(gram):
        row[v] = -sum(row.values()) - draw(st.integers(-1, 2))
    # Two steps make every row strictly dominant.
    while not _negative_definite([[row.get(j, 0) for j in range(n)] for row in gram]):
        for v, row in enumerate(gram):
            row[v] -= 1
    support = draw(st.permutations(range(n)))
    rhs = draw(st.lists(st.integers(-6, 0), min_size=n, max_size=n))
    return tuple(gram), support, rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system=_definite_forest_systems())
def test_forest_solve_keeps_a_nonpositive_rhs_nonnegative(system):
    # Minus a negative-definite Gram with non-negative edges is an M-matrix,
    # whose inverse is entrywise non-negative: a right-hand side <= 0 gives
    # x >= 0.  The engine's forced start and each later round solve such a
    # system, which is why no coefficient of the engine can go negative.
    gram, support, rhs = system
    names = [f"G{k}" for k in range(len(gram))]
    x, det = _forest_solve(gram, names, list(support), rhs)
    assert all(v * det >= 0 for v in x)


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
    # definite by its own pivots, and refusals come from the pivots and the
    # walk: 0 separate definiteness checks.
    surface = Surface(2, SPECIAL)
    val = divisorial_valuation(surface, ladder_configuration(family, 92))
    flag = flag_valuation(val, val.r - 1)
    d = BigDivisor(1, 2)
    calls = _count_definiteness_checks(monkeypatch)
    assert sweep_body(flag, d) == newton_okounkov_body(flag, d)
    with pytest.raises(NotPseudoeffective):
        zariski_decompose(div_class(1, *_PENCIL_CLASS), _hand_basis(1, _PENCIL))
    with pytest.raises(InvariantBroken):
        zariski_decompose(div_class(2, *_STAR_CLASS), _hand_basis(2, _STAR))
    assert calls == Counter()
    # The counter is live: a dense check of the refused pencil counts once.
    assert not is_negative_definite(_hand_basis(1, _PENCIL).classes)
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
@pytest.mark.parametrize("r", [92, 512])
def test_sweep_makes_at_most_two_solves_per_sample(monkeypatch, family, r):
    # Every sample starts from its forced support, the whole first chamber
    # E_1 ... E_{r-1}, so a sample takes one solve there and one more once
    # the named curve joins: at most 2 per sample, where a start from the
    # generators met negatively alone grows the chain one solve at a time.
    surface = Surface(2, SPECIAL)
    val = divisorial_valuation(surface, ladder_configuration(family, r))
    flag = flag_valuation(val, val.r - 1)
    d = BigDivisor(1, 2)
    samples = len(sweep_reference.sweep_breakpoints(flag, d))
    calls = _count_solves(monkeypatch)
    assert sweep_reference.sweep_body(flag, d) == newton_okounkov_body(flag, d)
    assert 0 < calls["solve"] <= 2 * samples


def _sweep_case(rng, case):
    """A valuation, flag and big class for the sweep property test: a nef
    class at a center of the given kind, or a non-nef one at a general
    center."""
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
def test_every_sweep_sample_equals_the_dense_reference(seed, case):
    # At every sample of the sweep, the engine started from the forced
    # support gives the dense reference's positive part, components and E_r
    # pairing, and alpha_beta reads its (alpha, beta) from them.
    val, flag, d = _sweep_case(random.Random(seed), case)
    basis = curve_basis(val)
    last = f"E{val.r}"
    for t in sweep_reference.sweep_breakpoints(flag, d):
        cls = _swept_class(val, d, t)
        got = zariski_decompose(cls, basis)
        want = reference.zariski_decompose(cls, basis)
        assert got.components == want.components
        assert got.positive == want.positive
        assert got.positive_pairing(last) == want.positive_pairing(last)
        alpha = want.coefficient(f"E{flag.eta}") if flag.is_satellite else 0
        assert alpha_beta(flag, d, t) == (alpha, alpha + want.positive_pairing(last))


def _first_chamber_starts(val, d):
    """The forced supports of ``D* - t E_r`` at the lower breakpoint and
    at a point below it, by name, with the names of E_1 ... E_{r-1}; or
    ``None`` when the lower breakpoint is 0 and the first chamber empty."""
    basis = curve_basis(val)
    lo = t_values(val, d)[0]
    if lo == 0:
        return None
    starts = []
    for t in (lo / 3, lo):
        rhs, _ = basis.pairings(_swept_class(val, d, t))
        starts.append(sorted(basis.names[k] for k in _forced(basis.sparse_gram, rhs)))
    return starts, sorted(f"E{i}" for i in range(1, val.r))


def test_forced_support_is_the_first_chamber_on_the_corpus(corpus):
    checked = 0
    for val, _, d in corpus:
        found = _first_chamber_starts(val, d)
        if found is not None:
            starts, chamber = found
            assert starts == [chamber, chamber]
            checked += 1
    assert checked >= len(corpus) // 2


@pytest.mark.parametrize("family", ["tail", "block"])
def test_forced_support_is_the_first_chamber_on_ladders(family):
    val = divisorial_valuation(Surface(2, SPECIAL), ladder_configuration(family, 92))
    starts, chamber = _first_chamber_starts(val, BigDivisor(1, 2))
    assert starts == [chamber, chamber]


def test_forced_generator_outside_the_support_is_refused(monkeypatch):
    # D* meets every exceptional curve at zero and is nef, so its negative
    # part is empty.  A start rule that forces E1 in anyway ends with E1 at
    # 0, which the theorem behind the forced support rules out.
    val = special_example_valuation()
    basis = curve_basis(val)
    cls = _swept_class(val, BigDivisor(1, 2), Fraction(0))
    assert zariski_decompose(cls, basis).components == ()
    e1 = basis.index["E1"]
    original = zariski_module._forced
    monkeypatch.setattr(
        zariski_module, "_forced", lambda gram, rhs: original(gram, rhs) + [e1]
    )
    with pytest.raises(
        InvariantBroken, match=r"^forced support: support E1: forced generator E1 ends at 0$"
    ):
        zariski_decompose(cls, basis)


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
            closed = reference.closed_form_decomposition(val, d, which)
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
        closed = reference.closed_form_decomposition(val, d, which)
        cls = pullback(2, 10, 1, val.r) - t * exceptional(2, val.r, val.r)
        assert closed.positive == zariski_decompose(cls, basis).positive
        assert_sound(closed, cls, basis)
    assert closed.coefficient("F1") > 0


def assert_at_stage_matches_truncation(val):
    """The chain value read by ``at_stage`` equals the value of the chain
    under each truncated valuation, for both chains and every stage."""
    for length in (val.config.n_f1, val.config.n_m):
        # theta = 1 and zero affine parts: the upper value is the chain value.
        rec = _Regime(1, Fraction(0), 0, 1, "F1", length, 1)
        for i in range(1, val.r + 1):
            stage = val if i == val.r else truncate_valuation(val, i)
            assert rec.at_stage(val, i)[1] == chain_value(stage, range(1, length + 1))


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


# ----------------------------------------------------------- the chamber walk


def _sweep_outcome(sweep, flag, d):
    """The vertices of a sweep's polygon, or its refusal class and text."""
    try:
        return "body", sweep(flag, d).vertices
    except HirzebruchError as exc:
        return type(exc).__name__, str(exc)


def _family_flag(family, r, eta):
    """A ladder family at ``r`` points with its flag and class."""
    kind = GENERAL if family == "nonspecial" else SPECIAL
    val = divisorial_valuation(Surface(2, kind), ladder_configuration(family, r))
    d = BigDivisor(2, 5) if family == "nonspecial" else BigDivisor(1, 2)
    return flag_valuation(val, eta), d


def test_walk_equals_the_sampled_sweep_on_the_corpus(corpus):
    for _, flag, d in corpus:
        want = _sweep_outcome(sweep_reference.sweep_body, flag, d)
        assert want[0] == "body"
        assert _sweep_outcome(sweep_body, flag, d) == want


def test_walk_equals_the_sampled_sweep_on_random_draws():
    # 200 draws up to r = 200 at both center kinds, a quarter of the classes
    # big but not nef: the same vertices, or the same refusal class and text.
    seen = Counter()
    for kind, flag, d in random_draws():
        want = _sweep_outcome(sweep_reference.sweep_body, flag, d)
        assert _sweep_outcome(sweep_body, flag, d) == want
        seen[want[0], d.is_nef(), kind] += 1
    # The draws reach non-nef bodies at general centers and the refusal at
    # special ones.
    assert seen["body", False, GENERAL] >= 10
    assert seen["NegativePartOnEr", False, SPECIAL] >= 10


@pytest.mark.parametrize("family", ["tail", "block", "nonspecial"])
@pytest.mark.parametrize("r", [17, 92, 512])
def test_walk_equals_the_sampled_sweep_on_families(family, r):
    # The non-special tail is non-positive at infinity up to r = 126 only;
    # beyond, both sweeps refuse it alike.
    for eta in (None, r - 1):
        flag, d = _family_flag(family, r, eta)
        want = _sweep_outcome(sweep_reference.sweep_body, flag, d)
        assert want[0] == ("NotNPI" if family == "nonspecial" and r > 126 else "body")
        assert _sweep_outcome(sweep_body, flag, d) == want


def test_walk_makes_at_most_three_chambers(monkeypatch, corpus):
    # The paper's shape claim: the support of the negative part changes at
    # two breakpoints at most, so the walk grows its support (one ``_grow``
    # per chamber) at most three times, on the corpus, on the random draws
    # and on the families, refusals included.
    grown = Counter()
    original = zariski_module._grow

    def counting(*args):
        grown["chambers"] += 1
        return original(*args)

    monkeypatch.setattr(zariski_module, "_grow", counting)
    families = [
        _family_flag(family, r, eta)
        for family in ("tail", "block", "nonspecial")
        for r in (17, 92, 512)
        for eta in (None, r - 1)
    ]
    cases = [
        *((flag, d) for _, flag, d in corpus),
        *((flag, d) for _, flag, d in random_draws()),
        *families,
    ]
    walks = Counter()
    for flag, d in cases:
        grown.clear()
        outcome = _sweep_outcome(sweep_body, flag, d)[0]
        walks[outcome, grown["chambers"]] += 1
    assert max(chambers for _, chambers in walks) <= 3
    # The guard is live: most bodies take all three chambers.
    assert walks["body", 3] > len(cases) // 2


@pytest.mark.parametrize("family", ["tail", "block"])
def test_walk_makes_as_many_eliminations_at_r_1012_as_at_r_17(monkeypatch, family):
    # One elimination per chamber, and the number of chambers does not grow
    # with r: the forced walk takes the whole first chamber at once.
    counts = []
    for r in (17, 1012):
        flag, d = _family_flag(family, r, r - 1)
        calls = _count_solves(monkeypatch)
        assert sweep_body(flag, d) == newton_okounkov_body(flag, d)
        counts.append(calls["solve"])
    assert counts[0] == counts[1] > 0


_E1_TO_E11 = ", ".join(f"E{i}" for i in range(1, 12))


def _force_at_wall(monkeypatch, wall, names):
    """Add the given generators to the forced start of the walk's
    ``wall``-th growth step (step 0 is at ``t = 0``), or empty that start
    for ``None``."""
    calls = Counter()
    original = zariski_module._forced

    def forcing(gram, rhs):
        calls["grow"] += 1
        found = original(gram, rhs)
        if calls["grow"] != wall + 1:
            return found
        return [] if names is None else found + names

    monkeypatch.setattr(zariski_module, "_forced", forcing)


@pytest.mark.parametrize(
    "make, eta, d, patch, want",
    [
        # Nothing joins at the first wall, where the remainder reaches M0.
        (
            special_example_valuation, 8, BigDivisor(1, 2), (1, None),
            f"chamber: support {_E1_TO_E11}: the remainder meets a generator "
            "negatively just after t = 153/7",
        ),
        # F1, which the remainder meets positively, joins with M0 there.
        (
            special_example_valuation, 8, BigDivisor(1, 2), (1, ["F1"]),
            f"chamber: support F1, M0, {_E1_TO_E11}: coefficient of M0 is -39/763 "
            "at t = 153/7",
        ),
        # The walk's last chamber, with the root helper finding no root.
        (
            special_example_valuation, 8, BigDivisor(1, 2), "root",
            f"chamber: support F1, M0, {_E1_TO_E11}: P^2 = (-1) s^2 + (312) s + "
            "(-24336) has no rational root after t = 1017/17",
        ),
        # A non-nef class at a special center: E_r is in the first chamber.
        (
            special_example_valuation, 8, BigDivisor(-1, 2), None,
            "E12 entered the negative part at t = 0; the position contract is violated",
        ),
        # E_r itself forced in at the first wall, where it meets D* positively.
        (
            special_example_valuation, 8, BigDivisor(1, 2), (1, ["E12"]),
            "E12 entered the negative part at t = 153/7; the position contract is violated",
        ),
        # D.M0 = 0 and M0 meets no generator of the support, so its remainder
        # is 0 on the whole line; forced in at the first wall, it ends at 0.
        (
            nonspecial_example_valuation, None, BigDivisor(0, 5), (1, ["M0"]),
            f"forced support: support M0, M1, {_E1_TO_E11}: forced generator M0 ends at 0",
        ),
    ],
    ids=[
        "falling-pairing", "negative-coefficient", "no-root", "er-at-0", "er-at-wall",
        "forced-at-wall",
    ],
)
def test_walk_refusals_keep_their_text(monkeypatch, make, eta, d, patch, want):
    # Each refusal of the chamber walk, reached through ``sweep_body`` with
    # its exact message: the walk's names, walls and coefficients print as
    # reduced fractions.
    val = make()
    basis = curve_basis(val)
    if patch == "root":
        monkeypatch.setattr(zariski_module, "_least_root_after", lambda *args: None)
    elif patch is not None:
        wall, names = patch
        names = None if names is None else [basis.index[name] for name in names]
        _force_at_wall(monkeypatch, wall, names)
    error = NegativePartOnEr if want.startswith("E") else InvariantBroken
    with pytest.raises(error) as caught:
        sweep_body(flag_valuation(val, eta), d)
    assert str(caught.value) == want


@pytest.mark.parametrize(
    "case",
    [
        (special_example_valuation, 8, BigDivisor(1, 2)),
        (special_example_valuation, None, BigDivisor(9, 1)),
        (nonspecial_example_valuation, None, BigDivisor(2, 5)),
    ],
    ids=["special-satellite", "special-free", "nonspecial-free"],
)
def test_walk_reads_nothing_of_the_closed_form(monkeypatch, case):
    # Breakpoints, constants and regime records moved in both modules of the
    # closed form, inside the range its own checks accept, move the body but
    # not the walk: the oracle clause would refuse the moved body on its
    # own, and verification fails.  A valuation keeps its last body, so the
    # moved closed form runs on new ones.
    make, eta, d = case
    flag = flag_valuation(make(), eta)
    want = sweep_body(flag, d)
    assert want == newton_okounkov_body(flag, d)
    # The body reads its breakpoints from the regime record, not from
    # ``t_values``, which only the zariski module holds.
    shifted_t = zariski_module.t_values
    monkeypatch.setattr(
        zariski_module, "t_values", lambda val, d, f=shifted_t: tuple(t / 2 for t in f(val, d))
    )
    for module in (okounkov_module, zariski_module):
        shifted_mu, shifted_regime = module.mu_hat, module._regime
        monkeypatch.setattr(module, "mu_hat", lambda val, d, f=shifted_mu: f(val, d) + 1)
        monkeypatch.setattr(
            module,
            "_regime",
            lambda val, d, f=shifted_regime: f(val, d)._replace(lower=f(val, d).lower / 2),
        )
    # The closed form reads the constant of its checked class unchecked.
    shifted_mu = okounkov_module._mu_hat
    monkeypatch.setattr(okounkov_module, "_mu_hat", lambda val, d, f=shifted_mu: f(val, d) + 1)
    flag = flag_valuation(make(), eta)
    assert sweep_body(flag, d) == want
    assert newton_okounkov_body(flag, d) != want
    with pytest.raises(VerificationFailed):
        verify_body(flag, d)
    with pytest.raises(VerificationFailed):
        verify_body(flag_valuation(make(), eta), d)
