"""Exact certified polynomial algebra over commutative rings.

The library certifies, by explicit computation, Groebner bases of monic
polynomial families over ZZ, QQ, ZZ/m, and GF(p); decides membership in
the level ideals of multiset grids (also punctured and mixed variants)
with zero-remainder certificates; and audits the hyperplane-covering and
nonzero-count bounds that follow.  Everything is exact: coefficients are
arbitrary-precision integers or fractions, and every verdict is backed by
a recheckable identity.
"""

__version__ = "0.1.0"

from .alon_furedi import NonzeroBoundReport, SupportExceedsBeta, nonzero_bound
from .covering import (
    BlockingReport,
    CoverInstance,
    CoverReport,
    affine_blocking_bound,
    blocking_audit,
    covering_audit,
    exists_blocking_of_size,
    minimal_blocking_size,
    point_cover_threshold,
)
from .errors import (
    ArityMismatch,
    CombnullError,
    DivisibilityFailure,
    EmptyPuncture,
    GammaExceedsAlpha,
    Inapplicable,
    InfiniteComplement,
    InternalInvariantError,
    NonPositiveMultiplicity,
    NonzeroRemainder,
    NotAxisPoly,
    NotCertified,
    NotInIdeal,
    NotMember,
    NotMonic,
    ParseError,
    RingMismatch,
    ScaleExceeded,
    UncertifiedBasis,
    UnsupportedField,
    ZeroPolynomial,
)
from .multiset_ideals import (
    Axis,
    MultisetGrid,
    PuncturedGrid,
    PuncturedReport,
    level_basis,
    level_certificate,
    level_membership,
    level_normal_form,
    min_extra_degree,
    mixed_basis,
    mixed_certificate,
    mixed_membership,
    punctured_analysis,
    punctured_membership,
)
from .polynomials import (
    NEG_INF,
    Poly,
    format_poly,
    monic_power_product,
    parse_poly,
    root_product,
    taylor_shift,
)
from .reduction import (
    MonicFamily,
    ReductionOutcome,
    buchberger_certifies,
    decompose_member,
    membership_refutation,
    normal_form,
    reduce,
    s_polynomial,
)
from .rings import GF, QQ, ZZ, Ring, Zmod, parse_ring
from .staircase import (
    complement,
    compositions,
    format_expvec,
    grlex_key,
    has_finite_complement,
    in_downset,
    in_upset,
    leq,
    maximal_elements,
    parse_expvec,
    punctured_staircase_count,
    staircase_count,
)
from .vanishing import (
    GroebnerReport,
    MultiplicityTable,
    VanishingSpec,
    certify_groebner,
    grid_staircase_count,
    groebner_decompose,
    in_vanishing_ideal,
    leading_staircase_count,
    multiplicity_family,
)
