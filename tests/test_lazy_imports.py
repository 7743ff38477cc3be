"""The package and the CLI import only the modules that a call runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import combnull

SRC = Path(__file__).resolve().parent.parent / "src"

SUBMODULES = (
    "alon_furedi", "cli", "covering", "errors", "multiset_ideals", "polynomials",
    "reduction", "rings", "serialization", "staircase", "vanishing",
)

# Every name the package exported when its __init__ imported all submodules,
# by defining module.
EXPORTS = {
    "alon_furedi": "NonzeroBoundReport SupportExceedsBeta nonzero_bound",
    "covering": "BlockingReport CoverInstance CoverReport affine_blocking_bound "
                "blocking_audit covering_audit exists_blocking_of_size "
                "minimal_blocking_size point_cover_threshold",
    "errors": "ArityMismatch CombnullError DivisibilityFailure EmptyPuncture "
              "GammaExceedsAlpha Inapplicable InfiniteComplement InternalInvariantError "
              "NonPositiveMultiplicity NonzeroRemainder NotAxisPoly NotCertified "
              "NotInIdeal NotMember NotMonic ParseError RingMismatch ScaleExceeded "
              "UncertifiedBasis UnsupportedField ZeroPolynomial",
    "multiset_ideals": "Axis MultisetGrid PuncturedGrid PuncturedReport level_basis "
                       "level_certificate level_membership level_normal_form "
                       "min_extra_degree mixed_basis mixed_certificate mixed_membership "
                       "punctured_analysis punctured_membership",
    "polynomials": "NEG_INF Poly format_poly monic_power_product parse_poly root_product "
                   "taylor_shift",
    "reduction": "MonicFamily ReductionOutcome buchberger_certifies decompose_member "
                 "membership_refutation normal_form reduce s_polynomial",
    "rings": "GF QQ ZZ Ring Zmod parse_ring",
    "staircase": "complement compositions format_expvec grlex_key has_finite_complement "
                 "in_downset in_upset leq maximal_elements parse_expvec "
                 "punctured_staircase_count staircase_count",
    "vanishing": "GroebnerReport MultiplicityTable VanishingSpec certify_groebner "
                 "grid_staircase_count groebner_decompose in_vanishing_ideal "
                 "leading_staircase_count multiplicity_family",
}


def loaded_after(code: str) -> set:
    """The combnull submodules a fresh interpreter holds after running code."""
    probe = ("\nimport sys\nprint(*sorted(k.removeprefix('combnull.') for k in sys.modules"
             " if k.startswith('combnull.')))")
    proc = subprocess.run(
        [sys.executable, "-c", code + probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


HEAVY = {"alon_furedi", "covering", "vanishing"}
SPEC = '{"ring":"ZZ","S":[[0,1]],"B":{"(0)":[[1]],"(1)":[[1]]}}'


@pytest.mark.parametrize(
    "argv, needs",
    [
        (None, set()),
        (("membership", "--ring", "ZZ", "--grid", "{S:[[0,1]]}", "--t", "1",
          "--poly", "x1^2-x1"), set()),
        (("cover", "--q", "2", "--n", "2", "--bound-only"), {"covering"}),
        (("alon-furedi", "--ring", "ZZ", "--S", "[[0,1]]", "--beta", "(1)",
          "--poly", "x1"), {"alon_furedi"}),
        (("groebner-check", "--ring", "ZZ", "--spec", SPEC, "--basis", "x1^2-x1"),
         {"vanishing"}),
    ],
    ids=["import", "membership", "cover", "alon_furedi", "groebner_check_spec"],
)
def test_cli_loads_only_what_its_command_runs(argv, needs):
    code = "import combnull.cli"
    if argv is not None:
        code += f"\nassert combnull.cli.main({list(argv)!r}) == 0"
    loaded = loaded_after(code)
    assert loaded & HEAVY == needs


def test_bare_import_loads_no_submodule():
    assert loaded_after("import combnull") == set()
    assert loaded_after("import combnull; combnull.reduction.reduce") == {
        "errors", "polynomials", "reduction", "rings", "staircase"}
    every = f"import combnull, types\nfor m in {SUBMODULES!r}:\n" \
            "    assert isinstance(getattr(combnull, m), types.ModuleType), m"
    assert loaded_after(every) == set(SUBMODULES)


def test_exports_are_their_definitions():
    exported = set()
    for module, names in EXPORTS.items():
        home = getattr(combnull, module)
        for name in names.split():
            assert getattr(combnull, name) is getattr(home, name), name
            exported.add(name)
    assert len(exported) == 89
    assert exported <= set(dir(combnull))
    star = {}
    exec("from combnull import *", star)
    assert all(star[name] is getattr(combnull, name) for name in exported)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        combnull.no_such_name
