"""Exact Seshadri-type constants and Newton-Okounkov polygons for
valuations of Hirzebruch surfaces."""

from .cluster import (
    GENERAL,
    NON_SPECIAL,
    SPECIAL,
    Configuration,
    DivisorialValuation,
    FlagValuation,
    Surface,
    build_configuration,
    divisorial_valuation,
    flag_valuation,
    from_maximal_contact,
    is_npi,
    maximal_contact_values,
    multiplicities,
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
    never_minimal,
    theta,
    vol,
)
from .zariski import (
    ZariskiPair,
    alpha_beta,
    t_values,
    zariski_decompose,
)

__all__ = [
    "GENERAL", "NON_SPECIAL", "SPECIAL", "Configuration", "DivisorialValuation",
    "FlagValuation", "Surface", "build_configuration", "divisorial_valuation",
    "flag_valuation", "from_maximal_contact", "is_npi", "maximal_contact_values",
    "multiplicities", "truncate_valuation", "CurveBasis", "DivisorClassZ",
    "curve_basis", "div_class", "dual_graph", "exceptional", "is_negative_definite",
    "pair", "precedes", "pullback", "Polygon", "QPoints", "cone_rays", "cone_triangle",
    "newton_okounkov_body", "q_points", "sweep_body", "verify_body", "BigDivisor",
    "is_minimal", "lower_bound", "mu_hat", "never_minimal", "theta", "vol",
    "ZariskiPair", "alpha_beta", "t_values", "zariski_decompose",
]
__version__ = "0.1.0"
