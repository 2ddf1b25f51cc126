"""Exact-arithmetic toolkit for a two-parameter family of reflexive
lattice simplices: lattice points, h*-vectors, binomial rewrite
families, and regular unimodular triangulations."""

from .errors import (
    BudgetExceeded,
    CertificateFailure,
    DegenerateLift,
    DimensionMismatch,
    IndexOutOfRange,
    InternalConsistency,
    InvalidPair,
    NonPureComplex,
    ParameterOutOfRange,
    PointOutsideSimplex,
    SingularFacet,
    WpsimplexError,
)
from .simplex import (
    Classification,
    HalfspaceDescription,
    PointConfiguration,
    QVector,
    build_q,
    classify_2supported,
    enumerate_dilation_points,
    h_description,
    lattice_points_bruteforce,
    lattice_points_formula,
    tightness_profile,
)
from .ehrhart import (
    HStarVector,
    ehrhart_bruteforce,
    ehrhart_value,
    hstar,
    lattice_point_count_from_h1,
    weight,
)
from .toric import (
    Binomial,
    GroebnerFamily,
    Monomial,
    binomial_text,
    build_B,
    companion,
    excluded_pair_binomial,
    groebner_family,
    is_toric_member,
    monomial_text,
    pi_image,
    zsupport,
)
from .groebner import (
    InitialIdeal,
    SupportCase,
    initial_ideal,
    injectivity_check,
    zsupport_shape,
)
from .triangulation import (
    Triangulation,
    WeightCertificate,
    initial_complex,
    make_weight_certificate,
    triangulation_from_family,
    verify_unimodular,
)

__version__ = "0.1.0"
