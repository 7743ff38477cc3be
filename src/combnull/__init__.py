"""Exact certified polynomial algebra over commutative rings.

The library certifies, by explicit computation, Groebner bases of monic
polynomial families over ZZ, QQ, ZZ/m, and GF(p); decides membership in
the level ideals of multiset grids (also punctured and mixed variants)
with zero-remainder certificates; and audits the hyperplane-covering and
nonzero-count bounds that follow.  Everything is exact: coefficients are
arbitrary-precision integers or fractions, and every verdict is backed by
a recheckable identity.

Importing the package loads no submodule.  A public name, or a submodule,
is imported on first access and then bound here, so later lookups are
plain attribute reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "alon_furedi": ("NonzeroBoundReport", "SupportExceedsBeta", "nonzero_bound"),
    "cli": (),
    "covering": (
        "BlockingReport", "CoverInstance", "CoverReport", "affine_blocking_bound",
        "blocking_audit", "covering_audit", "exists_blocking_of_size",
        "minimal_blocking_size", "point_cover_threshold",
    ),
    "errors": (
        "ArityMismatch", "CombnullError", "EmptyPuncture", "GammaExceedsAlpha",
        "Inapplicable", "InfiniteComplement", "InternalInvariantError",
        "NonPositiveMultiplicity", "NonzeroRemainder", "NotCertified", "NotInIdeal",
        "NotMember", "NotMonic", "ParseError", "RingMismatch", "ScaleExceeded",
        "UncertifiedBasis", "UnsupportedField", "ZeroPolynomial",
    ),
    "multiset_ideals": (
        "Axis", "MultisetGrid", "PuncturedGrid", "PuncturedReport", "in_level_ideal",
        "level_basis", "level_certificate", "level_membership", "level_normal_form",
        "min_extra_degree", "mixed_basis", "mixed_certificate", "mixed_membership",
        "punctured_analysis", "punctured_membership",
    ),
    "polynomials": (
        "NEG_INF", "Poly", "format_poly", "parse_poly", "root_product", "taylor_shift",
    ),
    "reduction": (
        "MonicFamily", "ReductionOutcome", "buchberger_certifies", "decompose_member",
        "membership_refutation", "normal_form", "reduce", "s_polynomial",
    ),
    "rings": ("GF", "QQ", "ZZ", "Ring", "Zmod", "parse_ring"),
    "serialization": (),
    "staircase": (
        "complement", "compositions", "format_expvec", "grlex_key",
        "has_finite_complement", "in_downset", "in_upset", "leq", "maximal_elements",
        "parse_expvec", "punctured_staircase_count", "staircase_count",
    ),
    "vanishing": (
        "GroebnerReport", "MultiplicityTable", "VanishingSpec", "certify_groebner",
        "grid_staircase_count", "groebner_decompose", "in_vanishing_ideal",
        "leading_staircase_count", "multiplicity_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
