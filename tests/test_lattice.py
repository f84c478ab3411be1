import random
from fractions import Fraction

import pytest

from hirzebruch import (
    Configuration,
    Surface,
    build_configuration,
    curve_basis,
    div_class,
    divisorial_valuation,
    dual_graph,
    exceptional,
    is_negative_definite,
    pair,
    precedes,
    pullback,
)
from hirzebruch.errors import DimensionMismatch, NotATree

from conftest import (
    nonspecial_example_valuation,
    random_valuation,
    special_example_valuation,
)


def lambda_class(val):
    """The nef class pairing to zero with every exceptional curve."""
    return div_class(val.delta, val.phi_m, val.phi_f1, [-x for x in val.m])


def delta_gamma_classes(val):
    w = val.phi_m - val.delta * val.phi_f1
    d_cls = div_class(val.delta, w, val.phi_f1, [-x for x in val.m])
    g_cls = div_class(val.delta, 0, val.phi_m, [-val.delta * x for x in val.m])
    return d_cls, g_cls


def test_pair_on_base_classes():
    f = pullback(2, 1, 0, 3)
    m = pullback(2, 0, 1, 3)
    assert pair(f, m) == 1
    assert pair(f, f) == 0
    assert pair(m, m) == 2
    e1 = exceptional(2, 3, 1)
    assert pair(e1, e1) == -1
    assert pair(e1, f) == 0 and pair(e1, m) == 0


def test_pair_of_special_section_shipped_example():
    val = special_example_valuation()
    m0 = curve_basis(val).get("M0")
    # section through two cluster points: delta + number of points
    assert pair(m0, m0) == -4


def test_pair_dimension_guard():
    with pytest.raises(DimensionMismatch):
        pair(pullback(2, 1, 0, 3), pullback(2, 1, 0, 4))


def test_pair_is_symmetric_and_bilinear():
    rng = random.Random(5)
    for _ in range(25):
        delta, r = rng.randint(0, 3), rng.randint(1, 6)

        def rand_cls():
            return div_class(
                delta,
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                [Fraction(rng.randint(-9, 9)) for _ in range(r)],
            )

        x, y, z = rand_cls(), rand_cls(), rand_cls()
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert pair(x, y) == pair(y, x)
        assert pair(x + s * y, z) == pair(x, z) + s * pair(y, z)


def free_chain_valuation(r):
    surface = Surface(0)
    config = build_configuration(
        surface,
        [{"on_f1": i == 1, "on_m": i == 1} for i in range(1, r + 1)],
    )
    return divisorial_valuation(surface, config)


def cusp_valuation():
    surface = Surface(2, "special")
    config = build_configuration(
        surface,
        [
            {"on_f1": True, "on_m": True},
            {},
            {"extra_proximity": 1},
        ],
    )
    return divisorial_valuation(surface, config)


def test_dual_graph_free_chain_is_a_path():
    graph = dual_graph(free_chain_valuation(3))
    assert sorted(graph[1]) == [2]
    assert sorted(graph[2]) == [1, 3]
    assert sorted(graph[3]) == [2]


def test_dual_graph_cusp():
    # expand strict transforms and pair: the last vertex separates the others
    graph = dual_graph(cusp_valuation())
    assert sorted(graph[3]) == [1, 2]
    assert graph[1] == (3,) and graph[2] == (3,)


def test_dual_graph_shipped_example_path_avoids_last_vertex():
    val = special_example_valuation()
    graph = dual_graph(val)
    assert sum(len(adj) for adj in graph[1:]) == 2 * (val.r - 1)
    assert not precedes(graph, 12, 8)
    # walk the path from 1 to 8 explicitly
    assert precedes(graph, 7, 8)


def test_dual_graph_rejects_a_non_tree():
    # Built directly, past the satellite rule that build_configuration
    # checks (p5 proximate to p1 after p4 proximate to p2): read as runs,
    # p1's (p2..p5) and p2's (p3, p4) overlap in two points, so the strict
    # transforms of E1 and E2 meet negatively and the graph is no tree.
    config = Configuration((None, None, 1, 2, 1), 1, 1)
    assert config.proximate_to(1) == (2, 3, 4, 5)
    assert config.proximate_to(2) == (3, 4)
    val = divisorial_valuation(Surface(1), config)
    with pytest.raises(NotATree, match="E1.E2 = -1"):
        dual_graph(val)


def test_precedes():
    val = special_example_valuation()
    graph = dual_graph(val)
    for beta in range(1, 13):
        assert precedes(graph, 1, beta)
    assert not precedes(graph, 12, 8)
    assert not precedes(dual_graph(nonspecial_example_valuation()), 12, 9)
    assert precedes(dual_graph(cusp_valuation()), 3, 2)


def is_nef_against(d, basis):
    """Nefness against the cone generators, valid in the NPI regime."""
    return all(v >= 0 for v in basis.pairings(d)[0])


def test_is_nef_against_zero_class():
    val = special_example_valuation()
    basis = curve_basis(val)
    assert is_nef_against(pullback(2, 0, 0, val.r), basis)


def test_lambda_class_is_nef_shipped_example():
    val = special_example_valuation()
    assert is_nef_against(lambda_class(val), curve_basis(val))


def test_minus_exceptional_is_not_nef():
    val = special_example_valuation()
    basis = curve_basis(val)
    assert not is_nef_against(-exceptional(2, val.r, val.r), basis)


def test_nonspecial_nef_classes():
    val = nonspecial_example_valuation()
    basis = curve_basis(val)
    d_cls, g_cls = delta_gamma_classes(val)
    assert is_nef_against(d_cls, basis)
    assert is_nef_against(g_cls, basis)


def test_basis_gram_is_the_integer_pairing():
    # The sparse entries equal the dense pairing on every generator pair,
    # an absent entry meaning 0; and the pairings of a class read from the
    # column index equal its dense pairing with every generator, for sparse
    # classes D* - t E_r* and dense random rational ones.
    rng = random.Random(5)
    vals = [special_example_valuation(), nonspecial_example_valuation()]
    vals += [random_valuation(rng, r_max=12, require_npi=False) for _ in range(20)]

    def rational():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for val in vals:
        basis = curve_basis(val)
        for k, a in enumerate(basis.classes):
            row = basis.sparse_gram[k]
            assert all(type(x) is int and x != 0 for x in row.values())
            for l, b in enumerate(basis.classes):
                assert row.get(l, 0) == pair(a, b)

        t = Fraction(rng.randint(0, 40), rng.randint(1, 7))
        swept = pullback(val.delta, rng.randint(-3, 9), rng.randint(0, 9), val.r)
        classes = [swept - t * exceptional(val.delta, val.r, val.r)]
        classes += [
            div_class(val.delta, rational(), rational(), [rational() for _ in range(val.r)])
            for _ in range(3)
        ]
        for cls in classes:
            values, scale = basis.pairings(cls)
            assert all(type(v) is int for v in values) and scale > 0
            assert [Fraction(v, scale) for v in values] == [pair(cls, c) for c in basis.classes]


def test_basis_tables_stay_on_the_valuation():
    # Built once per valuation instance; an equal valuation built apart
    # builds its own.
    val = special_example_valuation()
    assert curve_basis(val) is curve_basis(val)
    assert dual_graph(val) is dual_graph(val)
    other = special_example_valuation()
    assert other == val and curve_basis(other) is not curve_basis(val)
    assert curve_basis(other) == curve_basis(val)


def test_negative_definite_examples():
    val = special_example_valuation()
    basis = curve_basis(val)
    assert is_negative_definite([exceptional(2, val.r, 1)])
    family = [basis.get("F1")] + [basis.get(f"E{i}") for i in range(1, val.r)]
    assert is_negative_definite(family)
    family_m = [basis.get("M0")] + [basis.get(f"E{i}") for i in range(1, val.r)]
    assert is_negative_definite(family_m)
    assert not is_negative_definite([pullback(2, 1, 0, val.r)])


def test_nef_classes_on_random_corpus(corpus):
    seen_nonspecial = False
    for val, _, _ in corpus[:60]:
        basis = curve_basis(val)
        assert is_nef_against(lambda_class(val), basis) or val.kind == "non-special"
        if val.kind == "non-special":
            seen_nonspecial = True
            d_cls, g_cls = delta_gamma_classes(val)
            assert is_nef_against(d_cls, basis)
            assert is_nef_against(g_cls, basis)
    assert seen_nonspecial


def test_dual_graph_is_tree_on_random_configurations():
    rng = random.Random(17)
    for _ in range(25):
        val = random_valuation(rng, r_max=12, require_npi=False, max_total=50_000)
        graph = dual_graph(val)
        assert sum(len(adj) for adj in graph[1:]) == 2 * (val.r - 1)
