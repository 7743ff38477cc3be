"""The package and the CLI import only the modules that a call runs, and
the value types that load no ``dataclasses`` keep frozen-dataclass semantics."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import combnull
from combnull import (
    GF,
    ZZ,
    BlockingReport,
    CoverInstance,
    MonicFamily,
    MultiplicityTable,
    MultisetGrid,
    NotMonic,
    PuncturedGrid,
    UnsupportedField,
    VanishingSpec,
    Zmod,
    blocking_audit,
    certify_groebner,
    covering_audit,
    nonzero_bound,
    punctured_analysis,
)
from conftest import P

SRC = Path(__file__).resolve().parent.parent / "src"

SUBMODULES = (
    "alon_furedi", "cli", "covering", "errors", "multiset_ideals", "polynomials",
    "reduction", "rings", "serialization", "staircase", "vanishing",
)

# Every name the package exports, by defining module: those it exported when
# its __init__ imported all submodules, less two moved into the tests.
EXPORTS = {
    "alon_furedi": "NonzeroBoundReport SupportExceedsBeta nonzero_bound",
    "covering": "BlockingReport CoverInstance CoverReport affine_blocking_bound "
                "blocking_audit covering_audit exists_blocking_of_size "
                "minimal_blocking_size point_cover_threshold",
    "errors": "ArityMismatch CombnullError DivisibilityFailure EmptyPuncture "
              "GammaExceedsAlpha Inapplicable InfiniteComplement InternalInvariantError "
              "NonPositiveMultiplicity NonzeroRemainder NotCertified "
              "NotInIdeal NotMember NotMonic ParseError RingMismatch ScaleExceeded "
              "UncertifiedBasis UnsupportedField ZeroPolynomial",
    "multiset_ideals": "Axis MultisetGrid PuncturedGrid PuncturedReport level_basis "
                       "level_certificate level_membership level_normal_form "
                       "min_extra_degree mixed_basis mixed_certificate mixed_membership "
                       "punctured_analysis punctured_membership",
    "polynomials": "NEG_INF Poly format_poly parse_poly root_product taylor_shift",
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


def loaded_after(code: str, watched=None, flags=()) -> set:
    """The combnull submodules a fresh interpreter holds after running code,
    or, given ``watched`` module names, those of them it holds."""
    if watched is None:
        probe = ("\nimport sys\nprint(*sorted(k.removeprefix('combnull.') for k in sys.modules"
                 " if k.startswith('combnull.')))")
    else:
        probe = f"\nimport sys\nprint(*(m for m in {tuple(watched)!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code + probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


HEAVY = {"alon_furedi", "covering", "vanishing"}
SPEC = '{"ring":"ZZ","S":[[0,1]],"B":{"(0)":[[1]],"(1)":[[1]]}}'


COMMANDS = {  # id -> (argv, or None for the bare import; heavy modules it loads)
    "import": (None, set()),
    "membership": (("membership", "--ring", "ZZ", "--grid", "{S:[[0,1]]}", "--t", "1",
                    "--poly", "x1^2-x1"), set()),
    "cover": (("cover", "--q", "2", "--n", "2", "--bound-only"), {"covering"}),
    "alon_furedi": (("alon-furedi", "--ring", "ZZ", "--S", "[[0,1]]", "--beta", "(1)",
                     "--poly", "x1"), {"alon_furedi"}),
    "groebner_check_spec": (("groebner-check", "--ring", "ZZ", "--spec", SPEC,
                             "--basis", "x1^2-x1"), {"vanishing"}),
}
EVERY_SUBMODULE = (f"import combnull, types\nfor m in {SUBMODULES!r}:\n"
                   "    assert isinstance(getattr(combnull, m), types.ModuleType), m")


def cli_call(argv) -> str:
    code = "import combnull.cli"
    if argv is not None:
        code += f"\nassert combnull.cli.main({list(argv)!r}) == 0"
    return code


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_loads_only_what_its_command_runs(command):
    argv, needs = COMMANDS[command]
    loaded = loaded_after(cli_call(argv))
    assert loaded & HEAVY == needs


# Standard modules no call needs: dataclasses pulls in inspect, only selftest
# draws random numbers, only @path arguments and certificate --out touch
# files (through open, not pathlib), and only QQ needs fractions, which loads
# decimal.  ``-S`` keeps site hooks from preloading them.
QQ_MEMBERSHIP = ("membership", "--ring", "QQ", "--grid", '{S:[[0,"1/2"]]}', "--t", "1",
                 "--poly", "x1^2-1/2*x1")
WATCHED = ("dataclasses", "inspect", "random", "pathlib", "fractions", "decimal")


@pytest.mark.parametrize("code, loads", [
    *(pytest.param(cli_call(argv), set(), id=name) for name, (argv, _) in COMMANDS.items()),
    pytest.param(cli_call(("selftest", "--seed", "7")), {"random"}, id="selftest"),
    pytest.param(cli_call(QQ_MEMBERSHIP), {"fractions", "decimal"}, id="membership_qq"),
    pytest.param(EVERY_SUBMODULE, set(), id="every_submodule"),
])
def test_no_call_loads_dataclasses_or_inspect(code, loads):
    assert loaded_after(code, WATCHED, ("-S",)) == loads


def test_qq_is_one_ring_built_on_first_use():
    code = """import pickle, sys
import combnull
import combnull.rings as rings
assert "QQ" not in vars(rings) and "fractions" not in sys.modules
ring = rings.parse_ring("QQ")
from combnull.rings import QQ
assert combnull.QQ is QQ is ring is rings.parse_ring(" QQ ")
copy = pickle.loads(pickle.dumps(ring))
assert copy == ring and copy.canon(3) == copy.from_int(3) == copy.parse_element("6/2") == 3
"""
    assert loaded_after(code, ("fractions",), ("-S",)) == {"fractions"}


def test_bare_import_loads_no_submodule():
    assert loaded_after("import combnull") == set()
    assert loaded_after("import combnull; combnull.reduction.reduce") == {
        "errors", "polynomials", "reduction", "rings", "staircase"}
    assert loaded_after(EVERY_SUBMODULE) == set(SUBMODULES)


def test_exports_are_their_definitions():
    exported = set()
    for module, names in EXPORTS.items():
        home = getattr(combnull, module)
        for name in names.split():
            assert getattr(combnull, name) is getattr(home, name), name
            exported.add(name)
    assert len(exported) == 87
    assert exported <= set(dir(combnull))
    # the builder oracle and its error live in the tests
    for name in ("monic_power_product", "NotAxisPoly"):
        assert not hasattr(combnull, name)
    star = {}
    exec("from combnull import *", star)
    assert all(star[name] is getattr(combnull, name) for name in exported)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        combnull.no_such_name


def test_value_types_keep_frozen_dataclass_semantics():
    ring = GF(5)
    assert ring == GF(5) and hash(ring) == hash(GF(5)) and ring != Zmod(5)
    assert repr(ring) == "Ring(kind='GF', modulus=5)"
    assert ring.__eq__(("GF", 5)) is NotImplemented
    report = BlockingReport(True, None, 3, 3)
    assert report == BlockingReport(True, None, 3, 3) != BlockingReport(True, None, 3, 4)
    assert hash(report) == hash((True, None, 3, 3))
    assert repr(report) == ("BlockingReport(blocked=True, unblocked_hyperplane=None, "
                            "size=3, bound=3)")
    # equal fields in another class are not equal
    assert type("Subclass", (BlockingReport,), {})(True, None, 3, 3) != report
    # Axis.terms and Axis.ring are not shown; an Axis, which build interns,
    # compares and hashes by identity, and a Poly field is unhashable
    axis = MultisetGrid.build(ZZ, [[0, 1]], [{0: 2, 1: 1}]).axes[0]
    assert axis != type(axis)(axis.support, axis.psi, axis.terms, ZZ)
    assert hash(axis) == object.__hash__(axis)
    assert repr(axis) == "Axis(support=(0, 1), psi=mappingproxy({0: 2, 1: 1}))"
    family = MonicFamily.build([P("x1^2 - x1")])
    assert family == MonicFamily.build([P("x1^2 - x1")]) != family.replace(certified=True)
    with pytest.raises(TypeError, match="unhashable"):
        hash(family)
    for value, name in ((ring, "modulus"), (axis, "psi"), (family, "witnesses"), (report, "size")):
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
    # replace builds through the constructor, so every check runs again
    assert ring.replace(modulus=7) == GF(7)
    assert family.replace(certified=True).witnesses == family.witnesses
    with pytest.raises(NotMonic):
        family.replace(members=(P("2*x1"),))
    with pytest.raises(UnsupportedField):
        ring.replace(modulus=6)
    table = MultiplicityTable(1, ("a",), {(0, 0, "a"): 1})
    with pytest.raises(ValueError, match="multiplicity at"):
        table.replace(values={(0, 0, "a"): -1})


# The report types that store their fields through FrozenValue.__init__, each
# with the repr it had when it wrote its own storing __init__.
SQUARE = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1], [0, 1]]), [[0], [0]])
COVER = CoverInstance.build(SQUARE, [(P("x1 - 1", nvars=2), 1), (P("x2 - 1", nvars=2), 1)], 1)
REPORTS = {
    "NonzeroBoundReport": (
        lambda: nonzero_bound(P("x1^2*x2 - x1*x2"), [[0, 1, 2], [0, 1, 2]], (2, 1)),
        "NonzeroBoundReport(mu=(1, 2), bound=2, actual=2)"),
    "CoverInstance": (
        lambda: COVER,
        "CoverInstance(pgrid=PuncturedGrid(ring=Ring(kind='ZZ', modulus=None), axes=("
        "Axis(support=(0, 1), psi=mappingproxy({0: 1, 1: 1})), "
        "Axis(support=(0, 1), psi=mappingproxy({0: 1, 1: 1}))), punctures=((0,), (0,))), "
        "planes=((Poly(ZZ, 'x1 - 1'), 1), (Poly(ZZ, 'x2 - 1'), 1)), t=1)"),
    "CoverReport": (
        lambda: covering_audit(COVER),
        "CoverReport(hypothesis_coverage=True, uncovered_point=None, hypothesis_escape=True, "
        "escape_point=(0, 0), sum_degrees=2, product_degree=2, bounds=(2, 2), "
        "verdict='bound_holds')"),
    "CoverReport_unmet": (
        lambda: covering_audit(COVER.replace(planes=COVER.planes[:1])),
        "CoverReport(hypothesis_coverage=False, uncovered_point=(0, 1), hypothesis_escape=True, "
        "escape_point=(0, 0), sum_degrees=1, product_degree=None, bounds=None, "
        "verdict='hypotheses_unmet')"),
    "BlockingReport": (
        lambda: blocking_audit(2, 2, 1, [(0, 0), (0, 1)]),
        "BlockingReport(blocked=False, unblocked_hyperplane=((1, 0), 1), size=2, bound=3)"),
    "PuncturedReport": (
        lambda: punctured_analysis(P("x1*x2 - x1 - x2 + 1"), SQUARE, 1),
        "PuncturedReport(eta=Poly(ZZ, 'x1*x2 - x1 - x2 + 1'), "
        "divisor=Poly(ZZ, 'x1*x2 - x1 - x2 + 1'), cofactor=Poly(ZZ, '1'), "
        "nonvanishing_point=(0, 0), degree_f=2, degree_eta=2, degree_bound=2, "
        "bound_holds=True)"),
    "GroebnerReport": (
        lambda: certify_groebner(
            VanishingSpec.build(MultisetGrid.build(ZZ, [[0, 1]]), {(0,): [(1,)], (1,): [(1,)]}),
            MonicFamily.build([P("x1^2 - x1")])),
        "GroebnerReport(condition_d=(True,), grid_count=2, leading_count=2, "
        "verdict='groebner', degenerate_empty_grid=False)"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_types_store_one_value_per_field(name):
    build, shown = REPORTS[name]
    report = build()
    cls = type(report)
    assert cls.__init__ is combnull.rings.FrozenValue.__init__
    assert repr(report) == shown
    values = tuple(getattr(report, field) for field in cls._fields)
    named = dict(zip(cls._fields, values))
    # positional, named and mixed calls store the same values
    mixed = cls(values[0], **dict(list(named.items())[1:]))
    assert cls(*values) == cls(**named) == mixed == report
    assert list(vars(report)) == list(cls._fields)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)
    else:
        assert hash(report) == expected
    again = pickle.loads(pickle.dumps(report))
    assert type(again) is cls and again == report and repr(again) == shown
    # replace keeps every other field
    last = cls._fields[-1]
    moved = report.replace(**{last: "moved"})
    assert getattr(moved, last) == "moved"
    assert moved == cls(*values[:-1], "moved") != report
    for bad in (
        lambda: cls(*values[:-1]),                       # missing, positional
        lambda: cls(**dict(list(named.items())[1:])),    # missing, named
        lambda: cls(*values, "extra"),                   # one positional too many
        lambda: cls(*values[:-1], **{last: values[-1], "extra": 1}),  # unknown name
        lambda: cls(*values, **{cls._fields[0]: values[0]}),  # a field given twice
        lambda: report.replace(extra=1),
    ):
        with pytest.raises(TypeError, match=f"{cls.__name__}\\(\\) takes the fields"):
            bad()
