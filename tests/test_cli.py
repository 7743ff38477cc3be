import json
import re
import shlex
import time
from pathlib import Path

import pytest

import combnull.cli
from combnull import ZZ, InternalInvariantError, MultisetGrid, multiset_ideals
from combnull.cli import main
from combnull.polynomials import format_poly, parse_poly
from combnull.serialization import grid_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_membership_generator(capsys):
    code, out, _ = run(
        capsys,
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
        "--poly", "x1^2-x1",
    )
    assert code == 0
    assert out.strip() == "true"


def test_membership_negative_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
        "--poly", "x1*x2",
    )
    assert code == 1
    assert out.strip() == "false"


def test_membership_inapplicable_exit_code(capsys):
    code, _, err = run(
        capsys,
        "membership",
        "--ring", "ZZ/6",
        "--grid", "{S:[[0,3]]}",
        "--t", "1",
        "--poly", "x1",
    )
    assert code == 2
    assert "inapplicable" in err.lower()


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]]}",
        "--t", "1",
        "--poly", "x1 ++ 2",
    )
    assert code == 3
    assert err


def test_negative_level_exit_code(capsys):
    code, out, err = run(
        capsys,
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]]}",
        "--t", "-1",
        "--poly", "x1",
    )
    assert code == 3
    assert out == ""
    assert "t must be an integer >= 0, got -1" in err


def test_oversized_basis_exit_code(capsys):
    # level 60 on {0,1}^3: a basis of 1 891 members with 8 259 888 terms;
    # 0 is a member, so the certificate needs the basis
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "certificate",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1],[0,1]]}",
        "--t", "60",
        "--poly", "0",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: 1891 power products need over 1000000 terms")
    assert time.perf_counter() - start < 5


def test_oversized_level_is_refused_before_listing(capsys):
    # level 100 000 on {0,1}^3 has C(100 002, 2) ~ 5e9 members: the count
    # alone refuses it, before any exponent vector is listed
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "certificate",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1],[0,1]]}",
        "--t", "100000",
        "--poly", "0",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: 5000150001 power products need over 1000000 terms")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("t", ["60", "100000"])
def test_normal_form_at_a_level_whose_basis_is_refused(capsys, t):
    # the normal form needs no basis: x1 is reduced at every level >= 1
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "normal-form",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1],[0,1]]}",
        "--t", t,
        "--poly", "x1",
    )
    assert (code, out, err) == (0, "x1\n", "")
    assert time.perf_counter() - start < 5


def test_normal_form_of_a_huge_power_answers_or_is_refused_quickly(capsys):
    # the division of x1^m steps down one degree at a time, so its terms
    # are counted before the first step
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "normal-form",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]]}",
        "--t", "1",
        "--poly", "x1^1000000000",
    )
    assert code in (0, 3)
    assert (out == "x1\n") if code == 0 else err.startswith("error: ")
    assert time.perf_counter() - start < 5


def test_certificate_of_a_high_degree_member_answers_quickly(capsys):
    # membership is decided by the level normal form: no Taylor shift of
    # x1^1000*x2^1000 to each grid point runs before the division
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "certificate",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
        "--poly", "x1^1000*x2^1000 - x1*x2",
    )
    assert (code, err) == (0, "")
    assert out.startswith("member of the level-1 ideal; certificate:\n")
    assert out.endswith("support containment: True\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "grid, t, poly",
    [("{S:[[0,1,2]]}", "1", "x1^1000000000"),
     ("{S:[[0,1,2],[0,1]]}", "2", "x1^1000000000*x2^5")],
    ids=["one_axis", "two_axes"],
)
def test_normal_form_of_a_huge_power_is_refused_at_once(capsys, grid, t, poly):
    # about 2 * 10^9 terms to divide on the axis {0, 1, 2}, counted up front
    start = time.perf_counter()
    code, out, err = run(capsys, "normal-form", "--ring", "ZZ", "--grid", grid,
                         "--t", t, "--poly", poly)
    assert (code, out) == (3, "")
    assert err == f"error: the level-{t} normal form needs over 1000000 terms\n"
    assert time.perf_counter() - start < 1


def test_an_axis_of_five_thousand_values_is_refused_at_once(capsys):
    # g has degree 5 000: 12 502 500 coefficient steps, counted before the
    # first product (building it took ~8 s on a 2 vCPU Xeon)
    grid = json.dumps({"S": [list(range(5000))]})
    start = time.perf_counter()
    code, out, err = run(capsys, "normal-form", "--ring", "GF(1000003)", "--grid", grid,
                         "--t", "1", "--poly", "x1")
    assert (code, out) == (3, "")
    assert err == "error: an axis polynomial of degree 5000 needs over 1000000 coefficient steps\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "poly, answer",
    [(format_poly(parse_poly("x1 + 1", ZZ, 1) ** 1500), f"{2**1500 - 1}*x1 + 1\n"),
     (" + ".join(f"x1^{m}" for m in range(1501)), "1500*x1 + 1\n")],
    ids=["binomial", "all_powers"],
)
def test_normal_form_of_a_dense_high_degree_polynomial_answers(capsys, poly, answer):
    # counted term by term, the division of these would take about 1.1 * 10^6
    # terms; their terms meet as they go down, so it takes about 1 500 steps
    start = time.perf_counter()
    code, out, err = run(capsys, "normal-form", "--ring", "ZZ", "--grid", "{S:[[0,1]]}",
                         "--t", "1", "--poly", poly)
    assert (code, out, err) == (0, answer, "")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("t", [400, 700])
@pytest.mark.parametrize(
    "command, grid, answer",
    [("certificate", "{S:[[0,1]]}", "member of the level-{t} ideal; certificate:\n"
      "quotient[({t},)]: 1\nsupport containment: True\n"),
     ("punctured", "{S:[[0,1]],E:[[]]}", "true\n"),
     ("punctured", "{S:[[0,1]],E:[[0]]}", "true\n"),
     ("mixed", "{S:[[0,1]],E:[[]]}", "true\n"),
     ("mixed", "{S:[[0,1]],E:[[0]]}", "true\n")],
    ids=["certificate", "punctured_empty", "punctured_0", "mixed_empty", "mixed_0"],
)
def test_high_power_of_the_axis_polynomial_answers_quickly(capsys, command, grid, answer, t):
    # (x1^2 - x1)^t is the one member of the level-t basis on {0, 1}, so its
    # normal form is one division step, and on {1} a step per degree
    poly = format_poly(parse_poly("x1^2 - x1", ZZ, 1) ** t)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--ring", "ZZ", "--grid", grid, "--t", str(t),
                         "--poly", poly)
    assert (code, out, err) == (0, answer.format(t=t), "")
    assert time.perf_counter() - start < 5


def test_verify_refuses_colliding_basis_keys(capsys, tmp_path):
    # "0" and " 0" name one label; read as one, the single quotient was
    # applied to both members and the document printed valid: True
    doc = {"ring": "ZZ", "nvars": 2, "poly": "x1^2 + x2^2 - x1 - x2",
           "basis": {"0": "x1^2 - x1", " 0": "x2^2 - x2"}, "quotients": {"0": "1"},
           "remainder": "0"}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--certificate", f"@{path}")
    assert (code, out) == (3, "")
    assert err.startswith("error: basis keys '0' and ' 0' both name the label 0")


def test_oversized_claim_is_refused_before_listing(capsys):
    # a short document claiming level 100 000 in 3 variables: its one label
    # is counted against C(100 002, 2) before any exponent vector is listed
    doc = {
        "ring": "ZZ", "nvars": 3, "poly": "0", "basis": "I_t", "t": 100000,
        "basis_polys": {"(100000,0,0)": "x1"}, "quotients": {"(100000,0,0)": "0"},
        "remainder": "0",
    }
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--certificate", json.dumps(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("error: I_t claim at t = 100000 needs 5000150001 basis members, got 1")
    assert time.perf_counter() - start < 5


def test_normal_form_on_many_axes(capsys):
    # the level-1 basis of 1 100 one-point axes is x1, ..., x1100, so x1
    # reduces to 0; listing its exponent vectors must not recurse per axis
    grid = json.dumps({"S": [[0]] * 1100})
    code, out, err = run(
        capsys, "normal-form", "--ring", "ZZ", "--grid", grid, "--t", "1", "--poly", "x1"
    )
    assert (code, out, err) == (0, "0\n", "")


def test_internal_invariant_exit_code(capsys, monkeypatch):
    def broken(*_):
        raise InternalInvariantError("forced")

    monkeypatch.setattr(combnull.cli, "level_membership", broken)
    code, _, err = run(
        capsys,
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]]}",
        "--t", "1",
        "--poly", "x1",
    )
    assert code == 4
    assert "internal error: forced" in err


@pytest.mark.parametrize(
    "exc, message",
    [(TypeError("forced"), "TypeError: forced"), (KeyError("forced"), "KeyError: 'forced'")],
    ids=["type_error", "key_error"],
)
def test_unexpected_exception_exit_code(capsys, monkeypatch, exc, message):
    # only errors the library raises on purpose are usage errors (exit 3)
    def broken(*_):
        raise exc

    monkeypatch.setattr(combnull.cli, "level_membership", broken)
    code, out, err = run(
        capsys, "membership", "--ring", "ZZ", "--grid", "{S:[[0,1]]}", "--t", "1", "--poly", "x1"
    )
    assert (code, out) == (4, "")
    assert err.endswith(f"internal error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("punctured", "--ring", "ZZ", "--grid", "{S:[[0,1]], E:[[0],[1]]}"), None),
        (("membership", "--ring", "ZZ",
          "--grid", '{"S":[[0,1],[0,1]], "psi":[{"0":1,"1":1}]}'), None),
        (("membership", "--ring", "ZZ",
          "--grid", '{"S":[[0,1]], "psi":[{"0":1,"1":1},{"0":3}]}'), None),
        (("membership", "--ring", "QQ", "--grid", "{S:[[true,0]]}"), None),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"psi":[{"0":1.9,"1":1}]}'), None),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"psi":[{"0":true,"1":1}]}'), None),
        (("membership", "--grid", '{"ring":5,"S":[[0,1]]}'), None),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"psi":[5]}'), None),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"E":[[0]]}'), None),
        (("certificate", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"E":[[0]]}'), None),
        (("normal-form", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"E":[[0]]}'), None),
        # The reader names what is missing or mistyped.
        (("membership", "--ring", "ZZ", "--grid", "null"),
         "grid document must be a JSON object"),
        (("membership", "--grid", "{}"), "grid document lacks ring, S"),
        (("membership", "--ring", "ZZ", "--grid", '{"axes":[{}]}'), "grid axis 1 lacks S"),
        (("membership", "--ring", "ZZ", "--grid", '{"axes":5}'),
         "grid entry axes must be a JSON list"),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[0,1]}'),
         "grid entry S must be a JSON list of lists"),
        (("membership", "--grid", '{"S":[[0,1]],"ring":"ZZ","psi":null}'),
         "grid entry psi must be a JSON list of objects or nulls"),
        (("punctured", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"E":null}'),
         "grid entry E must be a JSON list of lists"),
        # An entry the reader does not know is refused, not dropped.
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"pis":[{"0":2,"1":1}]}'),
         "grid document has unknown keys pis"),
        (("membership", "--ring", "ZZ", "--grid", '{"axes":[{"S":[0,1]}],"S":[[0,1,2],[0,1]]}'),
         "grid document has unknown keys S"),
        (("membership", "--ring", "ZZ", "--grid", '{"axes":[{"S":[0,1]}],"psi":[{"0":2,"1":1}]}'),
         "grid document has unknown keys psi"),
        (("membership", "--ring", "ZZ", "--grid", '{"axes":[{"S":[0,1],"pis":{"0":2}}]}'),
         "grid axis 1 has unknown keys pis"),
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"pis":[],"e":[]}'),
         "grid document has unknown keys pis, e"),
        # JSON nested past the decoder's recursion limit is bad input, not a bug.
        (("membership", "--ring", "ZZ", "--grid", "[" * 100000 + "]" * 100000), None),
        # psi(u) follows the one integer rule, a missing entry included.
        (("membership", "--ring", "ZZ", "--grid", '{"S":[[0,1]],"psi":[{"0":1}]}'),
         "psi(1) must be an integer >= 1, got None"),
    ],
    ids=["extra_puncture", "short_psi", "extra_psi", "bool_element", "fractional_psi",
         "bool_psi", "number_ring", "number_psi", "membership_puncture",
         "certificate_puncture", "normal_form_puncture", "null_grid", "no_ring_no_S",
         "axis_without_S", "number_axes", "flat_S", "null_psi", "null_E", "misspelt_psi",
         "axes_and_S", "axes_and_psi", "axis_misspelt_psi", "two_unknown_keys",
         "deep_nesting", "missing_psi_entry"],
)
def test_malformed_grid_exit_code(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--t", "1", "--poly", "x1^2-x1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, grid, message",
    [
        ("membership", "{S:[[0,1]], E:[[0]]}", "membership takes no puncture set E"),
        ("certificate", "{S:[[0,1]], E:[[0]]}", "certificate takes no puncture set E"),
        ("normal-form", "{S:[[0,1]], E:[[0]]}", "normal-form takes no puncture set E"),
        ("punctured", "{S:[[0,1]]}", "punctured grid document needs an 'E' entry"),
        ("mixed", "{S:[[0,1]]}", "punctured grid document needs an 'E' entry"),
    ],
)
def test_puncture_set_must_match_the_command(capsys, command, grid, message):
    code, out, err = run(
        capsys, command, "--ring", "ZZ", "--grid", grid, "--t", "1", "--poly", "x1"
    )
    assert (code, out, err) == (3, "", f"error: {message}\n")


SPEC_B = '"B":{"(0,)":[[1]],"(1,)":[[1]]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (("groebner-check", "--spec", '{"S":[[0,1]],"psi":[{"0":2,"1":1}],' + SPEC_B + "}"),
         "a vanishing spec takes no psi: its multiplicities are in B"),
        (("groebner-check", "--spec", '{"S":[[0,1]],"E":[[0]],' + SPEC_B + "}"),
         "grid document carries both E and B"),
        (("groebner-check", "--spec", '{"S":[[0,1]],"E":[[0]]}'),
         "groebner-check takes no puncture set E"),
        (("groebner-check", "--spec", '{"S":[[0,1]]}'),
         "vanishing spec document needs a 'B' entry"),
        (("membership", "--grid", '{"S":[[0,1]],' + SPEC_B + "}"),
         "membership takes no vanishing table B"),
        (("punctured", "--grid", '{"S":[[0,1]],' + SPEC_B + "}"),
         "punctured takes no vanishing table B"),
        (("punctured", "--grid", '{"S":[[0,1]],"E":[[0]],' + SPEC_B + "}"),
         "grid document carries both E and B"),
    ],
    ids=["spec_psi", "spec_with_E", "spec_E_only", "spec_without_B", "membership_B",
         "punctured_B", "punctured_E_and_B"],
)
def test_grid_entries_must_match_the_command(capsys, argv, message):
    # every entry of a grid document is read or refused, never dropped
    extra = ("--basis", "x1^2-x1") if argv[0] == "groebner-check" else ("--t", "1", "--poly", "x1")
    code, out, err = run(capsys, *argv, "--ring", "ZZ", *extra)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_canonical_spec_reads_like_compact(capsys, fmt):
    B = {"(0,0)": [[1, 0], [0, 1]], "(0,2)": [[1, 0], [0, 1]], "(1,0)": [[1, 0], [0, 1]],
         "(1,2)": [[1, 0], [0, 1]]}
    compact = {"ring": "ZZ", "S": [[0, 1], [0, 2]], "B": B}
    canonical = dict(grid_to_json(MultisetGrid.build(ZZ, [[0, 1], [0, 2]])), B=B)
    answers = [
        run(capsys, "groebner-check", "--ring", "ZZ", "--spec", json.dumps(doc),
            "--basis", "x1^2-x1", "--basis", "x2^2-2*x2", "--format", fmt)
        for doc in (compact, canonical)
    ]
    assert answers[0] == answers[1]
    assert answers[0][0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("membership", "--ring", "ZZ", "--grid", json.dumps({"S": [[0, 1]] * 40}),
         "--t", "1", "--poly", "x1^2-x1"),
        # a non-member: its first grid point answered false before the count
        ("membership", "--ring", "ZZ", "--grid", json.dumps({"S": [[0, 1]] * 40}),
         "--t", "1", "--poly", "1"),
        ("alon-furedi", "--ring", "ZZ", "--S", json.dumps([list(range(10))] * 7),
         "--beta", "(1,0,0,0,0,0,0)", "--poly", "x1-1"),
    ],
    ids=["member", "non_member", "alon_furedi"],
)
def test_oversized_grid_is_refused_up_front(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.endswith(" grid points exceed the limit of 1000000\n")
    assert time.perf_counter() - start < 5


def test_oversized_staircase_box_is_refused_up_front(capsys):
    # the spec and basis are valid; zeta1 would scan the 10^7 vectors below
    # 10 * e_k on 7 axes
    tens = [[10 if k == j else 0 for j in range(7)] for k in range(7)]
    spec = {"S": [[0]] * 7, "B": {"(0,0,0,0,0,0,0)": tens}}
    basis = [arg for k in range(7) for arg in ("--basis", f"x{k + 1}^10")]
    start = time.perf_counter()
    code, out, err = run(capsys, "groebner-check", "--ring", "ZZ", "--spec", json.dumps(spec), *basis)
    assert (code, out) == (3, "")
    assert err == "error: 10000000 box points exceed the limit of 1000000\n"
    assert time.perf_counter() - start < 5


def test_cover_instance_needs_a_puncture_set(capsys):
    doc = {"pgrid": {"ring": "ZZ", "S": [[0, 1]]}, "planes": [{"poly": "x1"}], "t": 1}
    code, out, err = run(capsys, "cover", "--instance", json.dumps(doc))
    assert (code, out, err) == (3, "", "error: punctured grid document needs an 'E' entry\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"S":[[0,1]],"B":{"(0,)":[[1,7]],"(1,)":[[1,7]]}}', None),
        ('{"S":[[0,1],[0,1]],"B":{"(0,0)":[[1]],"(0,1)":[[1]],"(1,0)":[[1]],"(1,1)":[[1]]}}',
         None),
        ('{"S":[[0,1]],"B":{"(0,)":[[1]],"(1,)":[[1]],"(5,)":[[9]]}}', None),
        ('{"S":[[0,1]],"B":[]}', None),
        # B's exponents follow the one integer rule, and its vectors are lists.
        ('{"S":[[0,1]],"B":{"(0,)":[[-1]],"(1,)":[[1]]}}',
         "exponent in B at (0,) must be an integer >= 0, got -1"),
        ('{"S":[[0,1]],"B":{"(0,)":[[true]],"(1,)":[[1]]}}',
         "exponent in B at (0,) must be an integer >= 0, got True"),
        ('{"S":[[0,1]],"B":{"(0,)":[[1.0]],"(1,)":[[1]]}}',
         "exponent in B at (0,) must be an integer >= 0, got 1.0"),
        ('{"S":[[0,1]],"B":{"(0,)":[[[1]]],"(1,)":[[1]]}}',
         "exponent in B at (0,) must be an integer >= 0, got [1]"),
        ('{"S":[[0,1]],"B":{"(0,)":[null],"(1,)":[[1]]}}',
         "spec entry B must hold JSON lists of lists"),
        ('{"S":[[0,1]],"B":{"(0,)":5,"(1,)":[[1]]}}',
         "spec entry B must hold JSON lists of lists"),
    ],
    ids=["long_vectors", "short_vectors", "off_grid_point", "list_B", "negative_exponent",
         "bool_exponent", "float_exponent", "nested_exponent", "null_vector", "number_entry"],
)
def test_malformed_spec_exit_code(capsys, spec, message):
    code, out, err = run(
        capsys, "groebner-check", "--ring", "ZZ", "--spec", spec, "--basis", "x1^2-x1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    if message is not None:
        assert err == f"error: {message}\n"


def _level_certificate_doc(capsys):
    code, out, _ = run(
        capsys, "certificate", "--ring", "ZZ", "--grid", "{S:[[0,1]]}", "--t", "1",
        "--poly", "x1^2 - x1", "--format", "json",
    )
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(
    "field, value, message",
    [("nvars", 1.9, None), ("nvars", True, None), ("nvars", 0, None), ("poly", 0, None),
     ("remainder", None, None), ("ring", 5, None),
     ("nvars", "2", "nvars must be an integer >= 1, got '2'"),
     ("t", 1.0, "I_t claim: t must be an integer >= 0, got 1.0"),
     ("quotients", 5, "certificate entry quotients must be a JSON object"),
     ("quotient", {}, "certificate document has unknown keys quotient")],
    ids=["fractional_nvars", "bool_nvars", "zero_nvars", "number_poly", "null_remainder",
         "number_ring", "string_nvars", "float_t", "number_quotients", "unknown_key"],
)
def test_malformed_certificate_exit_code(capsys, field, value, message):
    doc = _level_certificate_doc(capsys)
    assert run(capsys, "verify", "--certificate", json.dumps(doc))[0] == 0
    doc[field] = value
    code, out, err = run(capsys, "verify", "--certificate", json.dumps(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    if message is not None:
        assert err == f"error: {message}\n"


COVER_INSTANCE = {
    "pgrid": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "E": [[0], [0]]},
    "planes": [{"poly": "x1 - 1", "degree": 1}, {"poly": "x2 - 1", "degree": 1}],
    "t": 1,
}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**COVER_INSTANCE, "t": 1.9}, None),
        ({**COVER_INSTANCE, "t": True}, None),
        ({**COVER_INSTANCE,
          "planes": [{"poly": "x1 - 1", "degree": 1.7}, {"poly": "x2 - 1"}]}, None),
        ({**COVER_INSTANCE,
          "planes": [{"poly": "x1 - 1", "degree": True}, {"poly": "x2 - 1"}]}, None),
        ({**COVER_INSTANCE, "planes": [{"poly": 5}, {"poly": "x2 - 1"}]}, None),
        ({**COVER_INSTANCE, "planes": [{"poly": "0"}, {"poly": "x2 - 1"}]}, None),
        # The reader names what is missing or mistyped.
        ({}, "cover instance lacks pgrid, planes, t"),
        (None, "cover instance must be a JSON object"),
        ({"planes": [], "t": 1}, "cover instance lacks pgrid"),
        ({**COVER_INSTANCE, "planes": 5}, "planes must be a JSON list"),
        ({**COVER_INSTANCE, "planes": [{"poly": "x1 - 1"}, {"degree": 1}]},
         "plane 2 lacks poly"),
        ({**COVER_INSTANCE, "pgrid": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "E": None}},
         "grid entry E must be a JSON list of lists"),
        ({**COVER_INSTANCE, "planes": [{"poly": "x1 - 1", "degre": 3}, {"poly": "x2 - 1"}]},
         "plane 1 has unknown keys degre"),
        ({**COVER_INSTANCE, "T": 2}, "cover instance has unknown keys T"),
        ({**COVER_INSTANCE, "planes": [{"poly": "x1 - 1", "degree": "1"}]},
         "degree must be an integer >= 0, got '1'"),
    ],
    ids=["fractional_t", "bool_t", "fractional_degree", "bool_degree", "number_poly",
         "zero_plane", "empty_instance", "null_instance", "no_pgrid", "number_planes",
         "plane_without_poly", "null_E", "misspelt_degree", "unknown_key", "string_degree"],
)
def test_malformed_instance_exit_code(capsys, doc, message):
    code, out, err = run(capsys, "cover", "--instance", json.dumps(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    if message is not None:
        assert err == f"error: {message}\n"


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").strip().splitlines()
    return [shlex.split(line) for line in lines]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert len(commands) == 13
    for words in commands:
        assert words[0] == "combnull"
        code, out, err = run(capsys, *words[1:])
        assert code == 0, (words, err)
        assert out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "mixed", "--grid", "{S:[[0,1]],E:[[0]]}", "--t", "1")[0] == 3


COMMAND_NAMES = list(combnull.cli._COMMANDS)
build_parser = combnull.cli._build_parser


def test_command_table_is_the_documented_list():
    listed = re.search(r"Subcommands: ([^.]*)\.", combnull.cli.__doc__).group(1)
    assert COMMAND_NAMES == [name.strip() for name in listed.split(",")]


@pytest.fixture
def parsers_built(monkeypatch):
    """The subcommand names of every parser ``main`` builds."""
    built = []
    monkeypatch.setattr(combnull.cli, "_build_parser",
                        lambda names: built.append(list(names)) or build_parser(names))
    return built


def help_of(call, capsys):
    with pytest.raises(SystemExit) as exit_:
        call()
    return exit_.value.code, capsys.readouterr()


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_a_command_builds_only_its_own_parser(capsys, parsers_built, name):
    expected = help_of(lambda: build_parser().parse_args([name, "--help"]), capsys)
    assert help_of(lambda: main([name, "--help"]), capsys) == expected
    assert expected[0] == 0 and expected[1].err == ""
    assert parsers_built == [[name]]


CHOICES = ", ".join(f"'{name}'" for name in COMMAND_NAMES)


@pytest.mark.parametrize("argv, err", [
    ([], "usage error: the following arguments are required: command\n"),
    (["bogus"], f"usage error: argument command: invalid choice: 'bogus' (choose from {CHOICES})\n"),
    (["--format", "json", "membership"],
     f"usage error: argument command: invalid choice: 'json' (choose from {CHOICES})\n"),
], ids=["no_command", "unknown_command", "option_first"])
def test_calls_naming_no_command_build_every_parser(capsys, parsers_built, argv, err):
    assert run(capsys, *argv) == (3, "", err)
    assert parsers_built == [COMMAND_NAMES]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--version"]])
def test_help_and_version_list_every_command(capsys, parsers_built, argv):
    expected = help_of(lambda: build_parser().parse_args(argv), capsys)
    assert help_of(lambda: main(argv), capsys) == expected
    assert expected[0] == 0 and expected[1].err == ""
    assert parsers_built == [COMMAND_NAMES]
    if argv != ["--version"]:
        assert all(name in expected[1].out for name in COMMAND_NAMES)


@pytest.mark.parametrize("nvars", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [("reduce", "--poly", "x1", "--basis", "x1"), ("groebner-check", "--basis", "x1")],
    ids=["reduce", "groebner_check"],
)
def test_nvars_must_be_positive(capsys, argv, nvars):
    # only a missing --nvars is inferred; 0 used to certify, -1 to blame x1
    code, out, err = run(capsys, *argv, "--ring", "ZZ", "--nvars", nvars)
    assert (code, out, err) == (3, "", "usage error: nvars must be at least 1\n")


def test_count_matches_formula(capsys):
    code, out, _ = run(capsys, "count", "--alpha", "(2,3)", "--t", "2")
    assert code == 0
    assert out.strip() == "18"
    code, out, _ = run(
        capsys, "count", "--alpha", "(2,2)", "--gamma", "(1,2)", "--t", "2"
    )
    assert out.strip() == "8"


def test_cover_bound_only(capsys):
    code, out, _ = run(capsys, "cover", "--q", "2", "--n", "2", "--t", "1", "--bound-only")
    assert code == 0
    assert out.strip() == "3"


def test_cover_points(capsys):
    code, out, _ = run(
        capsys,
        "cover", "--q", "2", "--n", "2", "--t", "1",
        "--points", "(0,1);(1,0);(1,1)",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "cover", "--q", "2", "--n", "2", "--t", "1", "--points", "(0,1)"
    )
    assert code == 1


def test_cover_points_beyond_a_thousand_points(capsys):
    # GF(37)^2 has 1 369 points; the audit makes 2 812 tests and answers
    code, out, _ = run(capsys, "cover", "--q", "37", "--n", "2", "--points", "(0,0);(1,1)")
    assert (code, out) == (1, "blocked: False\nsize: 2 (bound 73)\n"
                               "unblocked hyperplane: <(0, 1), x> = 2\n")


@pytest.mark.parametrize("mode", [["--bound-only"], ["--points", "(0,1);(1,0)"]])
@pytest.mark.parametrize("given,missing", [(["--n", "2"], "--q"), (["--q", "2"], "--n")])
def test_cover_needs_q_and_n(capsys, mode, given, missing):
    code, out, err = run(capsys, "cover", *given, *mode)
    assert code == 3
    assert out == ""
    assert err.startswith("usage error:") and f"need {missing}" in err


GRID_1 = "{S:[[0,1]], E:[[0]]}"
INSTANCE = json.dumps({"pgrid": {"ring": "ZZ", "S": [[0, 1]], "E": [[0]]},
                       "planes": [{"poly": "x1 - 1", "degree": 1}], "t": 1})


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cover", "--q", "2", "--n", "2", "--t", "1", "--bound-only", "--points", "(0,0)"),
         "argument --points: not allowed with argument --bound-only"),
        (("cover", "--q", "2", "--n", "2", "--points", "(0,0)", "--instance", INSTANCE),
         "argument --instance: not allowed with argument --points"),
        (("cover", "--instance", INSTANCE, "--q", "2"), "argument --q: not allowed with argument --instance"),
        (("cover", "--instance", INSTANCE, "--n", "2"), "argument --n: not allowed with argument --instance"),
        (("cover", "--instance", INSTANCE, "--t", "1"), "argument --t: not allowed with argument --instance"),
        (("mixed", "--ring", "ZZ", "--grid", GRID_1, "--t", "2", "--min-extra-degree",
          "--poly", "x1"), "argument --poly: not allowed with argument --min-extra-degree"),
        (("mixed", "--ring", "ZZ", "--grid", GRID_1, "--t", "2", "--min-extra-degree",
          "--certificate"), "argument --certificate: not allowed with argument --min-extra-degree"),
        (("groebner-check", "--ring", "ZZ", "--spec", '{"S":[[0,1]],"B":{"(0,)":[[1]],"(1,)":[[1]]}}',
          "--basis", "x1^2-x1", "--nvars", "1"), "argument --nvars: not allowed with argument --spec"),
    ],
    ids=["bound_only_points", "points_instance", "instance_q", "instance_n", "instance_t",
         "min_extra_poly", "min_extra_certificate", "spec_nvars"],
)
def test_flags_that_exclude_each_other_are_refused(capsys, argv, message):
    # each of these used to drop a flag and answer from the others
    assert run(capsys, *argv) == (3, "", f"usage error: {message}\n")


@pytest.mark.parametrize("keys", [("(1)", "( 1)"), ("( 1)", "(1)")], ids=["plain_first", "spaced_first"])
def test_spec_point_keys_naming_one_point_are_refused(capsys, keys):
    # the later key's vectors won: with "( 1)": [[3]] last the spec was
    # refused, with it first the spec was certified
    B = {"(0)": [[1]]} | {key: {"(1)": [[1]], "( 1)": [[3]]}[key] for key in keys}
    spec = json.dumps({"ring": "ZZ", "S": [[0, 1]], "B": B})
    code, out, err = run(capsys, "groebner-check", "--ring", "ZZ", "--spec", spec, "--basis", "x1^2-x1")
    assert (code, out) == (3, "")
    assert err == f"error: B keys {keys[0]!r} and {keys[1]!r} both name the point (1,)\n"


def test_cover_instance_json(capsys, tmp_path):
    doc = {
        "pgrid": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "E": [[0], [0]]},
        "planes": [
            {"poly": "x1 - 1", "degree": 1},
            {"poly": "x2 - 1", "degree": 1},
        ],
        "t": 1,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "cover", "--instance", f"@{path}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "bound_holds"


def test_cover_instance_of_twelve_dense_planes_answers(capsys):
    # the planes x1 + ... + x12 - c (c = 1..12) cover every point of
    # {0,1}^12 but the origin once; their product, which the audit never
    # expands, has 705 432 terms
    total = " + ".join(f"x{k}" for k in range(1, 13))
    doc = {"pgrid": {"ring": "ZZ", "S": [[0, 1]] * 12, "E": [[0]] * 12},
           "planes": [{"poly": f"{total} - {c}"} for c in range(1, 13)], "t": 1}
    start = time.perf_counter()
    code, out, err = run(capsys, "cover", "--instance", json.dumps(doc), "--format", "json")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "bound_holds"
    assert payload["hypotheses"]["escape_point"] == [0] * 12
    assert payload["lhs"] == {"product_degree": 12, "sum_degrees": 12}
    assert payload["bound"] == 12


def test_punctured_analysis_scans_only_the_puncture(capsys, tmp_path):
    # {0..10}^6 has 1 771 561 points, over the grid-point limit, but the
    # witness of a member is sought on E = {0..8}^6 alone; f is the
    # off-puncture product prod_k (x_k - 9)(x_k - 10), 729 terms
    poly = parse_poly("1", ZZ, 6)
    for k in range(1, 7):
        poly = poly * parse_poly(f"x{k}^2 - 19*x{k} + 90", ZZ, 6)
    path = tmp_path / "f.txt"
    path.write_text(format_poly(poly))
    assert len(poly.terms) == 729
    pgrid = json.dumps({"S": [list(range(11))] * 6, "E": [list(range(9))] * 6})
    code, out, err = run(capsys, "punctured", "--ring", "ZZ", "--grid", pgrid, "--t", "1",
                         "--poly", f"@{path}", "--analyze", "--format", "json")
    assert (code, err) == (0, "")
    analysis = json.loads(out)["analysis"]
    assert analysis["nonvanishing_point"] == [0] * 6
    assert (analysis["degree_bound"], analysis["bound_holds"]) == (12, True)


def test_off_product_refusal_names_one_product(capsys):
    # the verdict answers, but the analysis expands the off-puncture product
    # (x1 - 1)...(x21 - 1), one product of 2^21 terms
    grid = json.dumps({"S": [[0, 1]] * 21, "E": [[0]] * 21})
    argv = ("punctured", "--ring", "ZZ", "--grid", grid, "--t", "1", "--poly", "x1^2-x1")
    assert run(capsys, *argv) == (0, "true\n", "")
    assert run(capsys, *argv, "--analyze") == (
        3, "", "error: 1 power product needs over 1000000 terms\n")


def test_qq_points_in_json_reports(capsys):
    # A QQ grid point is written as element strings, as grid documents are.
    code, out, _ = run(capsys, "punctured", "--ring", "QQ",
                       "--grid", '{S:[["1/2",1],[0,1]],E:[["1/2"],[0]]}', "--t", "1",
                       "--poly", "x1*x2 - x1 - x2 + 1", "--analyze", "--format", "json")
    assert code == 0
    assert json.loads(out)["analysis"]["nonvanishing_point"] == ["1/2", "0"]
    pgrid = {"ring": "QQ", "S": [["1/2", "3/2"]], "E": [["1/2"]]}
    for plane, exit_code, key, point in (("x1 - 3/2", 0, "escape_point", ["1/2"]),
                                         ("x1 - 1/2", 1, "uncovered_point", ["3/2"])):
        doc = {"pgrid": pgrid, "planes": [{"poly": plane}], "t": 1}
        code, out, _ = run(capsys, "cover", "--instance", json.dumps(doc), "--format", "json")
        assert code == exit_code
        assert json.loads(out)["hypotheses"][key] == point


PINNED_PGRID = "{S:[[0,1],[0,1]], E:[[0],[0]]}"
PINNED_ANALYSIS = {"bound_holds": True, "cofactor": "1", "degree_bound": 2, "degree_eta": 2,
                   "degree_f": 2, "divisor": "x1*x2 - x1 - x2 + 1", "eta": "x1*x2 - x1 - x2 + 1"}


@pytest.mark.parametrize(
    "argv, code, doc",
    [
        (("punctured", "--ring", "ZZ", "--grid", PINNED_PGRID, "--t", "1",
          "--poly", "x1*x2 - x1 - x2 + 1", "--analyze"), 0,
         {"analysis": {**PINNED_ANALYSIS, "nonvanishing_point": [0, 0]}, "member": True, "t": 1}),
        (("punctured", "--ring", "QQ", "--grid", '{S:[["1/2",1],[0,1]],E:[["1/2"],[0]]}',
          "--t", "1", "--poly", "x1*x2 - x1 - x2 + 1", "--analyze"), 0,
         {"analysis": {**PINNED_ANALYSIS, "nonvanishing_point": ["1/2", "0"]},
          "member": True, "t": 1}),
        # the zero operand has degree -inf and no nonvanishing point: nulls
        (("punctured", "--ring", "ZZ", "--grid", PINNED_PGRID, "--t", "1", "--poly", "0",
          "--analyze"), 0,
         {"analysis": {"bound_holds": None, "cofactor": "0", "degree_bound": None,
                       "degree_eta": None, "degree_f": None, "divisor": "x1*x2 - x1 - x2 + 1",
                       "eta": "0", "nonvanishing_point": None}, "member": True, "t": 1}),
        (("cover", "--q", "3", "--n", "2", "--t", "1",
          "--points", "(0,0);(0,1);(0,2);(1,0);(2,0)"), 0,
         {"blocked": True, "bound": 5, "size": 5, "unblocked_hyperplane": None}),
        (("cover", "--q", "2", "--n", "2", "--t", "1", "--points", "(0,1)"), 1,
         {"blocked": False, "bound": 3, "size": 1, "unblocked_hyperplane": [[0, 1], 0]}),
        (("cover", "--instance", json.dumps(COVER_INSTANCE)), 0,
         {"bound": 2, "bounds_per_axis": [2, 2],
          "hypotheses": {"coverage": True, "escape": True, "escape_point": [0, 0],
                         "uncovered_point": None},
          "lhs": {"product_degree": 2, "sum_degrees": 2}, "verdict": "bound_holds"}),
        (("cover", "--instance", json.dumps({"pgrid": {"ring": "QQ", "S": [["1/2", "3/2"]],
                                                       "E": [["1/2"]]},
                                             "planes": [{"poly": "x1 - 1/2"}], "t": 1})), 1,
         {"bound": None, "bounds_per_axis": None,
          "hypotheses": {"coverage": False, "escape": True, "escape_point": ["3/2"],
                         "uncovered_point": ["3/2"]},
          "lhs": {"product_degree": None, "sum_degrees": 1}, "verdict": "hypotheses_unmet"}),
        (("alon-furedi", "--ring", "ZZ", "--S", "[[0,1,2],[0,1,2]]", "--beta", "(2,1)",
          "--poly", "x1^2*x2 - x1*x2"), 0, {"actual": 2, "bound": 2, "mu": [1, 2]}),
    ],
    ids=["punctured_zz", "punctured_qq_point", "punctured_zero", "cover_blocked",
         "cover_unblocked", "cover_instance_holds", "cover_instance_unmet", "alon_furedi"],
)
def test_json_reports_are_pinned(capsys, argv, code, doc):
    # the whole document, byte for byte, as the command prints it
    assert run(capsys, *argv, "--format", "json") == (
        code, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


def test_reduce_text_and_json_agree(capsys):
    args = [
        "reduce",
        "--ring", "ZZ",
        "--poly", "x1^2*x2+x2",
        "--basis", "x1^2-1",
    ]
    code_t, out_t, _ = run(capsys, *args)
    code_j, out_j, _ = run(capsys, *args, "--format", "json")
    assert code_t == code_j == 0
    payload = json.loads(out_j)
    assert payload["remainder"] == "2*x2"
    assert "remainder: 2*x2" in out_t


def test_groebner_check_buchberger(capsys):
    code, out, _ = run(
        capsys,
        "groebner-check",
        "--ring", "ZZ",
        "--basis", "x1^2-x1",
        "--basis", "x2^2-x2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["certified"] is True
    code, _, _ = run(
        capsys,
        "groebner-check",
        "--ring", "ZZ",
        "--basis", "x1*x2+x1",
        "--basis", "x2^2",
    )
    assert code == 1


def test_groebner_check_tied_lcms_stay_inconclusive(capsys):
    # Every pair's lcm is x1*x2, so each pair has a third witness dividing
    # its lcm, but never with both smaller lcms strictly below it; the pair
    # (x1, x1*x2 + 1) leaves -1, and 1 lies in the ideal.
    code, out, _ = run(
        capsys,
        "groebner-check",
        "--ring", "ZZ",
        "--basis", "x1",
        "--basis", "x2",
        "--basis", "x1*x2 + 1",
    )
    assert code == 1
    assert out.strip() == "inconclusive"


def test_groebner_check_with_spec(capsys):
    spec = json.dumps(
        {"ring": "ZZ", "S": [[0, 1]], "B": {"(0)": [[1]], "(1)": [[1]]}}
    )
    code, out, _ = run(
        capsys,
        "groebner-check",
        "--ring", "ZZ",
        "--spec", spec,
        "--basis", "x1^2-x1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "groebner"
    assert payload["zeta1"] == payload["zeta2"] == 2


INFINITE_STAIRCASE_SPEC = json.dumps({
    "S": [[0, 1], [0, 1]],
    "B": {f"({a},{b})": [[1, 0], [0, 1]] for a in (0, 1) for b in (0, 1)},
})


@pytest.mark.parametrize(
    "argv",
    [
        ("membership", "--ring", "", "--grid", "{S:[[0,1]]}", "--t", "1", "--poly", "x1"),
        ("groebner-check", "--ring", "", "--basis", "x1^2-x1", "--spec",
         json.dumps({"ring": "GF(5)", "S": [[0, 1]], "B": {"(0)": [[1]], "(1)": [[1]]}})),
    ],
    ids=["membership", "groebner_check"],
)
def test_empty_ring_text_is_refused(capsys, argv):
    # an empty --ring is a ring text to parse, not an absent flag that
    # defers to the document's ring
    assert run(capsys, *argv) == (3, "", "error: unrecognized ring ''\n")


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (("groebner-check", "--ring", "ZZ", "--spec", "", "--basis", "x1^2-x1"), "",
         "error: bad JSON argument: Expecting value: line 1 column 1 (char 0)\n"),
        # the file is written before the certificate is printed
        (("certificate", "--ring", "ZZ", "--grid", "{S:[[0,1]]}", "--t", "1",
          "--poly", "x1^2-x1", "--out", ""), "",
         "error: [Errno 2] No such file or directory: ''\n"),
        (("count", "--alpha", "(2,3)", "--t", "2", "--gamma", ""), "",
         "error: bad exponent vector ''\n"),
    ],
    ids=["spec", "out", "gamma"],
)
def test_empty_flag_text_is_refused(capsys, argv, out, err):
    # an empty text is read like any other, not taken for an absent flag:
    # the spec was skipped for a Buchberger check, the file was not written,
    # and the gamma-free staircase was counted
    assert run(capsys, *argv) == (3, out, err)


def test_certificate_out_in_a_missing_directory_prints_nothing(capsys, tmp_path):
    path = tmp_path / "missing" / "cert.json"
    code, out, err = run(capsys, "certificate", "--ring", "ZZ", "--grid", "{S:[[0,1]]}",
                         "--t", "1", "--poly", "x1^2-x1", "--out", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert not path.parent.exists()


def test_groebner_check_infinite_leading_staircase(capsys):
    # x1^2 - x1 bounds no power of x2, so its leading staircase is infinite
    # while the grid count is 4: not a Groebner basis of I(spec).
    argv = ("groebner-check", "--ring", "GF(5)", "--spec", INFINITE_STAIRCASE_SPEC,
            "--basis", "x1^2-x1")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "grid staircase count (zeta1): 4",
        "leading staircase count (zeta2): infinite",
        "verdict: not_groebner",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert (payload["zeta1"], payload["zeta2"], payload["groebner"]) == (4, None, False)
    code, out, _ = run(capsys, *argv, "--basis", "x2^2-x2")
    assert code == 0 and out.splitlines()[-1] == "verdict: groebner"


def test_psi_keys_naming_one_element_exit_3(capsys):
    code, out, err = run(
        capsys,
        "normal-form",
        "--ring", "GF(5)",
        "--grid", '{"S": [[0, 2]], "psi": [{"0": 1, "2": 1, "7": 3}]}',
        "--t", "1",
        "--poly", "x1^3",
    )
    assert (code, out) == (3, "")
    assert "psi keys '2' and '7' both name the element 2" in err


def test_certificate_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "certificate",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
        "--poly", "x1^3*x2 - x1*x2",
        "--format", "json",
        "--out", str(cert_path),
    )
    assert code == 0
    assert json.loads(out)["checks"]["identity"] is True
    code, out, _ = run(capsys, "verify", "--certificate", f"@{cert_path}")
    assert code == 0
    assert "valid: True" in out

    doc = json.loads(cert_path.read_text())
    doc["remainder"] = "x1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "verify", "--certificate", f"@{bad_path}")
    assert code == 1


def test_verify_rejects_claim_with_remainder(capsys):
    # x1^2 = 1*(x1^2 - x1) + x1 is a true identity, but x1^2 is not in I_1
    # of {0,1}, so a level claim with remainder x1 must not verify
    code, out, _ = run(
        capsys,
        "certificate",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]]}",
        "--t", "1",
        "--poly", "x1^2 - x1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    doc.update(poly="x1^2", remainder="x1")
    code, out, _ = run(capsys, "verify", "--certificate", json.dumps(doc))
    assert code == 1
    assert "remainder_reduced: False" in out
    assert "valid: False" in out


def test_verify_incomplete_document_exit_code(capsys):
    doc = {"nvars": 1, "poly": "x1", "basis_polys": {}, "quotients": {}, "remainder": "x1"}
    code, _, err = run(capsys, "verify", "--certificate", json.dumps(doc))
    assert code == 3
    assert err.strip() == "error: certificate document lacks ring"
    code, _, err = run(capsys, "verify", "--certificate", "5")
    assert code == 3
    assert err.strip() == "error: certificate document must be a JSON object"


def test_normal_form(capsys):
    code, out, _ = run(
        capsys,
        "normal-form",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
        "--poly", "x1^3*x2",
    )
    assert code == 0
    assert out.strip() == "x1*x2"


def test_punctured_analyze(capsys):
    code, out, _ = run(
        capsys,
        "punctured",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]], E:[[0],[0]]}",
        "--t", "1",
        "--poly", "x1*x2 - x1 - x2 + 1",
        "--analyze",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["analysis"]["degree_bound"] == 2
    assert payload["analysis"]["bound_holds"] is True


PGRID_2 = "{S:[[0,1],[0,1]], E:[[0],[0]]}"


@pytest.mark.parametrize(
    "argv, decider, code, out",
    [
        (("punctured", "--poly", "x1*x2 - x1 - x2 + 1", "--analyze"), "punctured_membership",
         0, "true\nnormal form: x1*x2 - x1 - x2 + 1\ndivisor: x1*x2 - x1 - x2 + 1\n"
            "cofactor: 1\ndegree bound: 2 (holds: True)\n"),
        (("punctured", "--poly", "x1", "--analyze"), "punctured_membership", 1, "false\n"),
        (("mixed", "--poly", "x1*x2 - x1 - x2 + 1", "--certificate"), "mixed_membership",
         0, "true\nsupport containment: True\n"),
        (("mixed", "--poly", "x1", "--certificate"), "mixed_membership", 1, "false\n"),
    ],
    ids=["analyze_member", "analyze_non_member", "certificate_member",
         "certificate_non_member"],
)
def test_membership_is_decided_once(capsys, monkeypatch, argv, decider, code, out):
    # --analyze and --certificate take the verdict from the analysis or the
    # certificate, without a membership test of their own
    calls = []
    real = getattr(multiset_ideals, decider)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (combnull.cli, multiset_ideals):
        monkeypatch.setattr(module, decider, counted)
    assert run(capsys, *argv, "--ring", "ZZ", "--grid", PGRID_2, "--t", "1")[:2] == (code, out)
    assert len(calls) == 1


@pytest.mark.parametrize("flag", ["--analyze", "--certificate"])
@pytest.mark.parametrize(
    "ring, grid, t, code",
    [("ZZ", PGRID_2, "0", 3), ("ZZ/6", "{S:[[0,3]], E:[[0]]}", "1", 2)],
    ids=["level_zero", "condition_d_fails"],
)
def test_analysis_and_certificate_refusals(capsys, flag, ring, grid, t, code):
    command = "punctured" if flag == "--analyze" else "mixed"
    argv = (command, "--ring", ring, "--grid", grid, "--t", t, "--poly", "x1", flag)
    assert run(capsys, *argv)[:2] == (code, "")


def test_mixed_min_extra_degree(capsys):
    code, out, _ = run(
        capsys,
        "mixed",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]], E:[[0],[0]]}",
        "--t", "2",
        "--min-extra-degree",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["min_extra_degree"] == 4


def test_mixed_membership_and_certificate(capsys):
    args = [
        "mixed",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1]], E:[[0]]}",
        "--t", "1",
        "--poly", "x1 - 1",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, *args, "--certificate", "--format", "json")
    assert code == 0
    assert json.loads(out)["basis"] == "mixed"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (("punctured", "--grid", PGRID_2, "--t", "1", "--poly", "x1^1000*x2^1000 - x1*x2"),
         0, "true\n"),
        (("mixed", "--grid", PGRID_2, "--t", "1", "--poly", "x1^1000*x2^1000 - x1*x2"),
         0, "true\n"),
        (("punctured", "--grid", PGRID_2, "--t", "2", "--poly", "x1^1000*x2^1000 - x1*x2"),
         1, "false\n"),
        (("mixed", "--grid", PGRID_2, "--t", "2", "--poly", "x1^1000*x2^1000"), 1, "false\n"),
        # 2^21 grid points, which no scan may visit
        (("punctured", "--grid", json.dumps({"S": [[0, 1]] * 21, "E": [[0]] * 21}), "--t", "1",
          "--poly", "x1^2-x1"), 0, "true\n"),
    ],
    ids=["punctured_member", "mixed_member", "punctured_non_member", "mixed_non_member",
         "punctured_21_axes"],
)
def test_punctured_and_mixed_answer_quickly(capsys, argv, code, out):
    # both are decided by level normal forms on subgrids: no Taylor shift
    # to each grid point, and no grid point count
    start = time.perf_counter()
    assert run(capsys, *argv, "--ring", "ZZ") == (code, out, "")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("supports", ["5", "[5]", "null", '{"S":[[0]]}'])
def test_alon_furedi_needs_a_list_of_lists(capsys, supports):
    code, out, err = run(
        capsys, "alon-furedi", "--ring", "ZZ", "--S", supports, "--beta", "(0,)", "--poly", "1"
    )
    assert (code, out, err) == (3, "", "error: --S must be a JSON list of lists\n")


def test_alon_furedi(capsys):
    code, out, _ = run(
        capsys,
        "alon-furedi",
        "--ring", "ZZ",
        "--S", "[[0,1,2],[0,1,2]]",
        "--beta", "(2,0)",
        "--poly", "x1^2 - x1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 3 and payload["actual"] == 3


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "11")
    assert code == 0
    assert out.strip() == "pass"


def test_verdicts_agree_between_formats(capsys):
    base = [
        "membership",
        "--ring", "ZZ",
        "--grid", "{S:[[0,1],[0,1]]}",
        "--t", "1",
    ]
    for poly, expected in (("x1^2-x1", True), ("x1*x2", False)):
        code_t, out_t, _ = run(capsys, *base, "--poly", poly)
        code_j, out_j, _ = run(capsys, *base, "--poly", poly, "--format", "json")
        assert code_t == code_j
        assert (out_t.strip() == "true") == expected
        assert json.loads(out_j)["member"] == expected
