"""Exact-arithmetic toolkit for a two-parameter family of reflexive
lattice simplices: lattice points, h*-vectors, binomial rewrite
families, and regular unimodular triangulations."""

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InternalConsistency,
    InvalidPair,
    NonGraphSupport,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
    WpsimplexError,
)
from .simplex import (
    PointConfiguration,
    QVector,
    build_q,
    h_description,
    lattice_points_formula,
)
from .ehrhart import (
    HStarVector,
    ehrhart_bruteforce,
    ehrhart_value,
    hstar,
    weight,
)
from .toric import (
    Binomial,
    GroebnerFamily,
    binomial_text,
    build_B,
    companion,
    excluded_pair_binomial,
    groebner_family,
    monomial_text,
)
from .groebner import injectivity_check
from .triangulation import (
    TriangulationSummary,
    family_facets,
    initial_complex,
    summarize_triangulation,
    verify_unimodular,
)

__version__ = "0.1.0"
