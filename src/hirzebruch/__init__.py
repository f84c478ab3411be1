"""Exact Seshadri-type constants and Newton-Okounkov polygons for
valuations of Hirzebruch surfaces."""

from .cluster import (
    GENERAL,
    NON_SPECIAL,
    SPECIAL,
    Configuration,
    DivisorialValuation,
    FlagValuation,
    GermVector,
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
    section_germ,
    truncate_valuation,
)
from .lattice import (
    CurveBasis,
    DivisorClassZ,
    curve_basis,
    div_class,
    dual_graph,
    exceptional,
    is_negative_definite,
    is_nef_against,
    pair,
    precedes,
    pullback,
)
from .okounkov import (
    Polygon,
    QPoints,
    cone_rays,
    cone_triangle,
    newton_okounkov_body,
    q_points,
    sweep_body,
    verify_body,
)
from .seshadri import (
    BigDivisor,
    is_minimal,
    lower_bound,
    mu_hat,
    mu_hat_bisection_check,
    never_minimal,
    theta,
    vol,
)
from .zariski import (
    ZariskiPair,
    alpha_beta,
    closed_form_decomposition,
    t_values,
    zariski_decompose,
    zariski_fano_base,
)

__all__ = [
    "GENERAL", "NON_SPECIAL", "SPECIAL", "Configuration", "DivisorialValuation",
    "FlagValuation", "GermVector", "Surface", "build_configuration", "classify",
    "curvette", "divisorial_valuation", "eta_valuation", "fiber_germ", "flag_valuation",
    "from_maximal_contact", "germ_value", "germ_vector", "is_npi",
    "maximal_contact_values", "multiplicities", "section_germ", "truncate_valuation",
    "CurveBasis", "DivisorClassZ", "curve_basis", "div_class", "dual_graph",
    "exceptional", "is_negative_definite", "is_nef_against", "pair", "precedes",
    "pullback", "Polygon", "QPoints", "cone_rays", "cone_triangle",
    "newton_okounkov_body", "q_points", "sweep_body", "verify_body", "BigDivisor",
    "is_minimal", "lower_bound", "mu_hat", "mu_hat_bisection_check", "never_minimal",
    "theta", "vol", "ZariskiPair", "alpha_beta", "closed_form_decomposition",
    "t_values", "zariski_decompose", "zariski_fano_base",
]
__version__ = "0.1.0"
