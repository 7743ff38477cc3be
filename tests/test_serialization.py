import json
import re
from fractions import Fraction

import pytest

from combnull import (
    GF,
    QQ,
    ZZ,
    MonicFamily,
    MultisetGrid,
    ParseError,
    PuncturedGrid,
    VanishingSpec,
    Zmod,
    level_certificate,
    mixed_certificate,
    reduce,
)
from combnull import serialization, staircase
from combnull.covering import instance_from_json
from combnull.serialization import (
    _check_claim,
    certificate_to_json,
    family_to_json,
    grid_from_json,
    grid_to_json,
    verify_certificate_json,
)
from conftest import P


def test_grid_round_trip():
    grid = MultisetGrid.build(ZZ, [[0, 1], [2]], [{0: 2, 1: 1}, {2: 3}])
    doc = grid_to_json(grid)
    assert doc["ring"] == "ZZ"
    again = grid_from_json(json.loads(json.dumps(doc)))
    assert again == grid


def test_grid_compact_form():
    grid = grid_from_json({"ring": "ZZ", "S": [[0, 1], [0, 1]]})
    assert grid.axes[0].psi == {0: 1, 1: 1}
    explicit = grid_from_json(
        {"S": [[0, 1]], "psi": [{"0": 2, "1": 1}]}, ring=ZZ
    )
    assert explicit.axes[0].psi == {0: 2, 1: 1}
    with pytest.raises(ParseError):
        grid_from_json({"S": [[0, 1]]})  # no ring anywhere


@pytest.mark.parametrize(
    "psis",
    [[{"0": 2, "1": 1}, {"0": 1, "2": 3}], None, [None, {"0": 1, "2": 3}]],
    ids=["given", "absent", "null_entry"],
)
def test_grid_forms_read_alike(psis):
    supports = [[0, 1], [2, 0]]
    compact = {"ring": "ZZ", "S": supports}
    canonical = {"ring": "ZZ", "axes": [{"S": S} for S in supports]}
    if psis is not None:
        compact["psi"] = psis
        for axis_doc, psi in zip(canonical["axes"], psis):
            axis_doc["psi"] = psi
    grid = grid_from_json(compact)
    assert grid_from_json(canonical) == grid
    assert grid_from_json(grid_to_json(grid)) == grid
    expected = [None if psi is None else {int(k): m for k, m in psi.items()}
                for psi in psis or [None, None]]
    assert grid == MultisetGrid.build(ZZ, supports, expected)


def test_psi_keys_naming_one_element_are_refused():
    # "2" and "7" both read as 2 in GF(5); the later key must not win.
    for doc in ({"S": [[0, 2]], "psi": [{"0": 1, "2": 1, "7": 3}]},
                {"axes": [{"S": [0, 2], "psi": {"0": 1, "2": 1, "7": 3}}]}):
        with pytest.raises(ParseError, match="psi keys '2' and '7' both name the element 2"):
            grid_from_json(doc, GF(5))
    grid = grid_from_json({"S": [[0, 2]], "psi": [{"0": 1, "7": 3}]}, GF(5))
    assert dict(grid.axes[0].psi) == {0: 1, 2: 3}


def test_grid_entries_pick_the_grid_type():
    B = {"(0,)": [[1]], "(1,)": [[1]]}
    spec = grid_from_json({"ring": "ZZ", "S": [[0, 1]], "B": B})
    assert spec == VanishingSpec.build(MultisetGrid.build(ZZ, [[0, 1]]), {(0,): {(1,)}, (1,): {(1,)}})
    assert type(grid_from_json({"ring": "ZZ", "S": [[0, 1]], "E": [[0]]})) is PuncturedGrid
    with pytest.raises(ParseError, match="both E and B"):
        grid_from_json({"ring": "ZZ", "S": [[0, 1]], "E": [[0]], "B": B})


def test_rational_grid_round_trip():
    grid = MultisetGrid.build(QQ, [[Fraction(1, 2), 0]])
    doc = grid_to_json(grid)
    again = grid_from_json(json.loads(json.dumps(doc)))
    assert again == grid


def test_punctured_round_trip():
    pg = PuncturedGrid.build(
        MultisetGrid.build(ZZ, [[0, 1], [0, 1]]), [[0], []]
    )
    doc = grid_to_json(pg)
    again = grid_from_json(json.loads(json.dumps(doc)))
    assert again == pg


def test_spec_round_trip():
    spec = VanishingSpec.build(
        MultisetGrid.build(ZZ, [[0, 1]]), {(0,): {(1,)}, (1,): {(2,), (1,)}}
    )
    doc = grid_to_json(spec)
    assert doc["B"] == {"(0)": [[1]], "(1)": [[1], [2]]}
    again = grid_from_json(json.loads(json.dumps(doc)))
    assert again.axes == spec.axes
    assert again.B == spec.B


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6)], ids=str)
def test_every_grid_type_round_trips(ring):
    # the one writer keeps every entry the one reader turns into a grid type
    u = ring.canon(Fraction(1, 2) if ring == QQ else -1)
    supports = [[0, u], [3]]
    grid = MultisetGrid.build(ring, supports, [{0: 2, u: 1}, {3: 3}])
    pgrid = PuncturedGrid.build(grid, [[u], []])
    plain = MultisetGrid.build(ring, supports)
    spec = VanishingSpec.build(plain, {
        point: {(1, 0), (k + 1, 0), (0, 2)} for k, point in enumerate(plain.grid_points())
    })
    for g in (grid, pgrid, spec):
        again = grid_from_json(json.loads(json.dumps(grid_to_json(g))))
        assert type(again) is type(g)
        assert again == g


def test_outcome_json_shape():
    f = P("x1^2*x2 + x2", nvars=2)
    out = reduce(f, MonicFamily.build([P("x1^2 - 1", nvars=2)]))
    doc = certificate_to_json(out)
    assert doc["checks"] == {
        "identity": True,
        "support": True,
        "remainder_reduced": True,
    }
    assert doc["quotients"]["0"] == "x2"
    assert doc["remainder"] == "2*x2"
    checks = verify_certificate_json(json.loads(json.dumps(doc)))
    assert checks["valid"]


@pytest.mark.parametrize("labels", [[0, 0], [0, "0"]], ids=["equal", "int_and_str"])
def test_colliding_labels_are_refused(labels):
    # Both labels write the JSON key "0": the document would hold one member
    # and fail verification, though the outcome verifies in memory.
    family = MonicFamily.build([P("x1^2 - x1", nvars=2), P("x2^2 - x2", nvars=2)],
                               labels=labels)
    out = reduce(P("x1^2*x2^2 + x1", nvars=2), family)
    assert all(out.verify().values())
    with pytest.raises(ValueError, match="same JSON key"):
        family_to_json(family)
    with pytest.raises(ValueError, match="same JSON key"):
        certificate_to_json(out)


@pytest.mark.parametrize("keys", [("0", " 0"), ("(1,0)", "(1, 0)")], ids=["int", "expvec"])
def test_colliding_basis_keys_are_refused(keys):
    # Both keys read as one label, so one quotient would be applied to both
    # members and the document would verify, though no writer makes it.
    doc = {"ring": "ZZ", "nvars": 2, "poly": "x1^2 + x2^2 - x1 - x2",
           "basis": dict(zip(keys, ("x1^2 - x1", "x2^2 - x2"))),
           "quotients": {keys[0]: "1"}, "remainder": "0"}
    with pytest.raises(ParseError, match=re.escape(f"basis keys {keys[0]!r} and {keys[1]!r}")):
        verify_certificate_json(doc)


@pytest.mark.parametrize(
    "ring, other, keys",
    [(ZZ, "(0)", ("(1)", "( 1)")), (ZZ, "(0)", ("( 1)", "(1)")),
     (GF(5), "(1)", ("(0)", "(5)")), (GF(5), "(1)", ("(5)", "(0)"))],
    ids=["spaced", "spaced_first", "gf5", "gf5_reversed"],
)
def test_point_keys_naming_one_point_are_refused(ring, other, keys):
    # read as one point, the later key's vectors won: one order certified
    # and the other was refused
    doc = {"S": [[0, 1]], "B": {other: [[1]], keys[0]: [[1]], keys[1]: [[3]]}}
    point = ring.parse_element(keys[0][1:-1])
    with pytest.raises(ParseError, match=re.escape(
            f"B keys {keys[0]!r} and {keys[1]!r} both name the point ({point},)")):
        grid_from_json(doc, ring)


@pytest.mark.parametrize("key", ["(0,,1)", "(,0,1)", "(0,1,,)", "(,)"])
def test_point_key_with_an_empty_part_is_refused(key):
    B = {f"({a},{b})": [[1, 0], [0, 1]] for a in (0, 1) for b in (0, 1)}
    B[key] = B.pop("(0,1)")
    with pytest.raises(ParseError, match=re.escape(f"bad grid point key {key!r}")):
        grid_from_json({"S": [[0, 1], [0, 1]], "B": B}, ZZ)
    B["(0,1,)"] = B.pop(key)  # a trailing comma is tolerated
    assert (0, 1) in grid_from_json({"S": [[0, 1], [0, 1]], "B": B}, ZZ).B


@pytest.mark.parametrize(
    "quotients, message",
    [({"0": "1", "7": "x1^5"}, "quotient keys name no basis member: 7"),
     ({"0": "1", " 0": "x1^5"}, "quotient keys '0' and ' 0' both name the label 0")],
    ids=["stray", "colliding"],
)
def test_every_quotient_key_names_one_basis_member(quotients, message):
    # the second quotient was never read and the document verified
    doc = {"ring": "ZZ", "nvars": 1, "poly": "x1^2 - x1", "basis": {"0": "x1^2 - x1"},
           "quotients": quotients, "remainder": "0"}
    with pytest.raises(ParseError, match=re.escape(message)):
        verify_certificate_json(doc)


def test_certificate_json_self_verifies():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    f = P("x1^2 - x1", nvars=2) * P("x2^2 - x2", nvars=2)
    cert = level_certificate(f, grid, 2)
    doc = certificate_to_json(cert)
    assert doc["basis"] == "I_t" and doc["t"] == 2
    checks = verify_certificate_json(json.loads(json.dumps(doc)))
    assert checks == {
        "identity": True,
        "support": True,
        "remainder_reduced": True,
        "valid": True,
    }


def test_mixed_certificate_json_kind():
    pg = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1]]), [[0]])
    member = P("x1 - 1")
    cert = mixed_certificate(member, pg, 1)
    doc = certificate_to_json(cert)
    assert doc["basis"] == "mixed"
    assert verify_certificate_json(doc)["valid"]


def test_tampered_certificate_fails():
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    cert = level_certificate(P("x1^2 - x1"), grid, 1)
    doc = certificate_to_json(cert)
    broken = json.loads(json.dumps(doc))
    broken["quotients"]["(1,)"] = "x1 + 1"
    checks = verify_certificate_json(broken)
    assert not checks["identity"]
    assert not checks["valid"]

    padded = json.loads(json.dumps(doc))
    padded["remainder"] = "x1^2"
    checks = verify_certificate_json(padded)
    assert not checks["valid"]


def forged_level_certificate():
    """The genuine certificate of x1^2 - x1 in I_1 of {0,1}, edited so the
    identity still holds for x1^2, which is not a member."""
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    doc = certificate_to_json(level_certificate(P("x1^2 - x1"), grid, 1))
    doc = json.loads(json.dumps(doc))
    doc["poly"] = "x1^2"
    doc["remainder"] = "x1"
    return doc


def test_claim_needs_zero_remainder():
    checks = verify_certificate_json(forged_level_certificate())
    assert checks["identity"] and checks["support"]
    assert checks["remainder_reduced"] is False
    assert checks["valid"] is False


def test_unknown_claim_rejected():
    doc = forged_level_certificate()
    doc["basis"] = "I_t?"
    with pytest.raises(ParseError, match="basis"):
        verify_certificate_json(doc)


@pytest.mark.parametrize("key", ["ring", "nvars", "poly", "quotients", "remainder"])
def test_incomplete_certificate_names_missing_key(key):
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    doc = certificate_to_json(level_certificate(P("x1^2 - x1"), grid, 1))
    del doc[key]
    with pytest.raises(ParseError, match=f"lacks {key}"):
        verify_certificate_json(doc)


@pytest.mark.parametrize(
    "t", [-5, "x", None, 3], ids=["negative", "text", "deleted", "other_level"]
)
def test_level_claim_binds_t(t):
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    doc = certificate_to_json(level_certificate(P("x1^2 - x1"), grid, 1))
    if t is None:
        del doc["t"]
    else:
        doc["t"] = t
    with pytest.raises(ParseError, match="I_t claim"):
        verify_certificate_json(doc)


@pytest.mark.parametrize("t", [0, 2])
def test_mixed_claim_binds_t(t):
    pgrid = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1]]), [[0]])
    doc = certificate_to_json(mixed_certificate(P("x1^2 - x1"), pgrid, 1))
    assert verify_certificate_json(doc)["valid"]
    doc["t"] = t
    with pytest.raises(ParseError, match="mixed claim"):
        verify_certificate_json(doc)


def test_claim_labels_in_any_order():
    pgrid = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1], [0, 1]]), [[0], [0]])
    f = P("x1^2*x2^2 - x1^2*x2 - x1*x2^2 + x1*x2")  # g1 * g2
    for cert in (level_certificate(f, pgrid, 2), mixed_certificate(f, pgrid, 2)):
        doc = certificate_to_json(cert)
        for key in ("basis_polys", "quotients"):
            doc[key] = dict(reversed(doc[key].items()))
        assert verify_certificate_json(doc)["valid"]
    _check_claim("I_t", 2, 2, [(1, 1), (0, 2), (2, 0)])
    _check_claim("mixed", 2, 2, [(0, 1), (1, 1), (1, 0), (0, 2), (2, 0)])


@pytest.mark.parametrize(
    "kind, labels",
    [("I_t", [(0, 2), (2, 0), (1, 1, 0)]), ("I_t", [(0, 2), (2, 0), (1, 0)]),
     ("I_t", [(0, 2), (2, 0), 11]), ("I_t", [(0, 2), (2, 0), "(1,1)"]),
     ("mixed", [(0, 2), (2, 0), (1, 1), (0, 1), (0, 0)]),
     ("mixed", [(0, 2), (2, 0), (1, 1), (1, 0), (0, 1, 0)])],
    ids=["long", "low_sum", "int", "text", "mixed_low_sum", "mixed_long"],
)
def test_claim_labels_checked_without_listing(monkeypatch, kind, labels):
    # the right count, one label of the wrong length, sum or type
    def boom(*_):
        raise AssertionError("the level's vectors were listed")

    monkeypatch.setattr(staircase, "compositions", boom)
    monkeypatch.setattr(serialization, "compositions", boom, raising=False)
    with pytest.raises(ParseError, match=f"{kind} claim at t = 2: basis labels are not its"):
        _check_claim(kind, 2, 2, labels)


def test_zmod_certificate_round_trip():
    ring = Zmod(5)
    grid = MultisetGrid.build(ring, [[0, 1, 4]])
    member = grid.axis_poly(0) * P("x1 - 2", ring=ring)
    cert = level_certificate(member, grid, 1)
    doc = certificate_to_json(cert)
    assert verify_certificate_json(json.loads(json.dumps(doc)))["valid"]


B_ENTRY = {"(0,)": [[1]], "(1,)": [[1]]}


@pytest.mark.parametrize(
    "kind, extra, message",
    [
        (MultisetGrid, {"E": [[0]]}, "reader takes no puncture set E"),
        (MultisetGrid, {"B": B_ENTRY}, "reader takes no vanishing table B"),
        (PuncturedGrid, {}, "punctured grid document needs an 'E' entry"),
        (PuncturedGrid, {"B": B_ENTRY}, "reader takes no vanishing table B"),
        (VanishingSpec, {}, "vanishing spec document needs a 'B' entry"),
        (VanishingSpec, {"E": [[0]]}, "reader takes no puncture set E"),
        # a document that fails twice keeps its first fault: the axes are
        # read before the kind's rule, the E entry after it
        (PuncturedGrid, {"S": [[0, None]]}, "not an element of ZZ: None"),
        (MultisetGrid, {"E": "bad"}, "reader takes no puncture set E"),
        (VanishingSpec, {"E": [[0]], "B": B_ENTRY}, "grid document carries both E and B"),
    ],
)
def test_grid_reader_takes_exactly_the_kind_asked_for(kind, extra, message):
    doc = {"ring": "ZZ", "S": [[0, 1]], **extra}
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        grid_from_json(doc, kind=kind, what="reader")


def test_grid_reader_returns_the_kind_asked_for():
    docs = {MultisetGrid: {}, PuncturedGrid: {"E": [[0]]}, VanishingSpec: {"B": B_ENTRY}}
    for kind, extra in docs.items():
        doc = {"ring": "ZZ", "S": [[0, 1]], **extra}
        assert type(grid_from_json(doc, kind=kind)) is kind
        assert grid_from_json(doc, kind=kind) == grid_from_json(doc)


def test_cover_instance_refuses_a_vanishing_table_first():
    # the pgrid carries B and no E: B is refused before E is asked for
    doc = {"pgrid": {"ring": "ZZ", "S": [[0, 1]], "B": B_ENTRY}, "planes": [], "t": 1}
    with pytest.raises(ParseError, match="^cover instance pgrid takes no vanishing table B$"):
        instance_from_json(doc)
    doc["pgrid"] = {"ring": "ZZ", "S": [[0, 1]]}
    with pytest.raises(ParseError, match="^punctured grid document needs an 'E' entry$"):
        instance_from_json(doc)
