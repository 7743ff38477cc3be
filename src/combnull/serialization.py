"""JSON wire formats for grids, specs and certificates.

There is one certificate document, written by ``certificate_to_json`` for
any ``ReductionOutcome``.  It carries the ring, the arity, the divided
polynomial, the basis polynomials, the quotients and the remainder, so
``verify_certificate_json`` re-checks the division identity, support
containment and remainder reducedness from the document alone.  A
document whose ``basis`` names a claim (``"I_t"`` or ``"mixed"``, with
``t``) is valid only with remainder 0, and its ``t`` and basis labels must
fit the claim or the document is a ``ParseError``, as are two keys naming
one value in any object keyed by values (``keyed_by_value``) and a quotient
key naming no basis member.  The document carries no grid, so verification
does not prove that the basis is the level or mixed basis of any grid.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from math import comb
from typing import Mapping

from .errors import ParseError
from .multiset_ideals import MultisetGrid, PuncturedGrid, keyed_by_value
from .polynomials import NEG_INF, Poly, format_poly, parse_poly
from .reduction import MonicFamily, ReductionOutcome
from .rings import Ring, parse_ring
from .staircase import format_expvec, parse_expvec, require_int


def value_to_json(value):
    """A ring element or report field as JSON: a ``Poly`` as its text, a
    tuple as the list of its entries so written, None and a degree of
    ``NEG_INF`` as null, an ``int`` (or bool) as it is, and any other
    element (a QQ ``Fraction``) as its text."""
    if isinstance(value, Poly):
        return format_poly(value)
    if isinstance(value, tuple):
        return [value_to_json(v) for v in value]
    if value is None or value == NEG_INF:
        return None
    return value if isinstance(value, int) else str(value)


def element_from_json(ring: Ring, value):
    if isinstance(value, str):
        return ring.parse_element(value)
    return ring.canon(value)


def _json_object(doc, what: str, required=(), optional=()) -> Mapping:
    """``doc`` when it is a JSON object holding every ``required`` key and
    no key outside ``required`` and ``optional``; one ParseError names
    every key it lacks, another every key it does not know."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ParseError(f"{what} lacks {', '.join(missing)}")
    unknown = [str(k) for k in doc if k not in required and k not in optional]
    if unknown:
        raise ParseError(f"{what} has unknown keys {', '.join(unknown)}")
    return doc


def _json_list(value, item, message: str) -> list:
    """``value`` when it is a JSON list of ``item`` entries."""
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ParseError(message)
    return value


def _label_to_key(label) -> str:
    if isinstance(label, tuple):
        return format_expvec(label)
    return str(label)


def _point_from_key(ring: Ring, key: str) -> tuple:
    """``"(a1,...,an)"``, an element per part; a trailing comma is tolerated, an empty part not."""
    text = key.strip()
    parts = text[1:-1].split(",")
    if not parts[-1].strip():
        parts.pop()
    if not (text.startswith("(") and text.endswith(")") and all(p.strip() for p in parts)):
        raise ParseError(f"bad grid point key {key!r}")
    return tuple(ring.parse_element(p) for p in parts)


def _label_from_key(key: str):
    key = key.strip()
    if key.startswith("("):
        return parse_expvec(key)
    try:
        return int(key)
    except ValueError:
        return key


# -- grids ---------------------------------------------------------------------


def grid_to_json(grid: MultisetGrid) -> dict:
    """The canonical axes form, with an ``E`` entry for a ``PuncturedGrid``
    and a ``B`` entry, keyed ``"(a1,...,an)"``, for a ``VanishingSpec``."""
    doc = {
        "ring": str(grid.ring),
        "axes": [
            {"S": value_to_json(axis.support),
             "psi": {str(u): m for u, m in sorted(axis.psi.items())}}
            for axis in grid.axes
        ],
    }
    if isinstance(grid, PuncturedGrid):
        doc["E"] = value_to_json(grid.punctures)
    if hasattr(grid, "B"):  # a VanishingSpec
        doc["B"] = {"(" + ",".join(map(str, point)) + ")": [list(vec) for vec in sorted(gens)]
                    for point, gens in grid.B.items()}
    return doc


def grid_from_json(doc: Mapping, ring: Ring | None = None, kind: type | None = None,
                   what: str = "grid document") -> MultisetGrid:
    """Accepts the canonical axes form and the compact ``{S: [[...]]}``
    form; a ring given explicitly overrides the document.  A document with
    an ``E`` entry is read as a ``PuncturedGrid``, one with a ``B`` entry as
    a ``VanishingSpec``; one with both is a ``ParseError``.  A ``kind``
    other than None is the one grid class the caller (``what``) takes: once
    the axes are read and before ``E`` or ``B`` is, an entry it does not
    take is refused, then one it needs and lacks."""
    form = "axes" if isinstance(doc, Mapping) and "axes" in doc else "S"
    _json_object(doc, "grid document", ("ring",) * (ring is None) + (form,),
                 ("ring", "E", "B") + ("psi",) * (form == "S"))
    if "E" in doc and "B" in doc:
        raise ParseError("grid document carries both E and B")
    if ring is None:
        ring = parse_ring(doc["ring"])
    if form == "axes":
        axes = _json_list(doc["axes"], object, "grid entry axes must be a JSON list")
        axes = [_json_object(a, f"grid axis {k}", ("S",), ("psi",))
                for k, a in enumerate(axes, 1)]
        supports = [a["S"] for a in axes]
        psi_docs = [a.get("psi") for a in axes]
    else:
        supports = doc["S"]
        psi_docs = doc.get("psi", [None] * len(supports) if isinstance(supports, list) else ())
    _json_list(supports, list, "grid entry S must be a JSON list of lists")
    _json_list(psi_docs, (Mapping, type(None)),
               "grid entry psi must be a JSON list of objects or nulls")
    grid = MultisetGrid.build(
        ring,
        [[element_from_json(ring, v) for v in S] for S in supports],
        [None if psi is None else
         keyed_by_value(psi, partial(element_from_json, ring), "psi", "element", ParseError)
         for psi in psi_docs],
    )
    if kind is not None:
        takes = "E" if kind is PuncturedGrid else "" if kind is MultisetGrid else "B"
        for key, entry in (("E", "puncture set E"), ("B", "vanishing table B")):
            if key in doc and key != takes:
                raise ParseError(f"{what} takes no {entry}")
        if takes == "E" and "E" not in doc:
            raise ParseError("punctured grid document needs an 'E' entry")
        if takes == "B" and "B" not in doc:
            raise ParseError("vanishing spec document needs a 'B' entry")
    if "E" in doc:
        return PuncturedGrid.build(
            grid, [[element_from_json(ring, v) for v in E] for E in
                   _json_list(doc["E"], list, "grid entry E must be a JSON list of lists")]
        )
    if "B" not in doc:
        return grid
    if not isinstance(doc["B"], Mapping):
        raise ParseError("spec entry B must be a JSON object")
    B = keyed_by_value(doc["B"], partial(_point_from_key, ring), "B", "point", ParseError)
    for vecs in B.values():
        _json_list(vecs, list, "spec entry B must hold JSON lists of lists")
    from .vanishing import VanishingSpec
    return VanishingSpec.build(grid, B)


# -- certificates --------------------------------------------------------------


def family_to_json(family: MonicFamily) -> dict:
    doc = {_label_to_key(label): format_poly(g) for label, g, _ in family}
    if len(doc) != len(family):
        raise ValueError("two family labels write the same JSON key")
    return doc


def family_from_json(doc: Mapping, ring: Ring, nvars: int) -> MonicFamily:
    """The family a basis object names; two keys read as one label (``"0"``
    and ``" 0"``) are a ParseError naming both, as the writer refuses them."""
    members = keyed_by_value(doc, _label_from_key, "basis", "label", ParseError)
    return MonicFamily.build([parse_poly(text, ring, nvars) for text in members.values()],
                             labels=list(members))


def certificate_to_json(outcome: ReductionOutcome) -> dict:
    """The one document for a division or a certificate.

    A plain division writes its basis polynomials under ``basis``; a
    certificate writes its claim there and the polynomials under
    ``basis_polys``.  ``checks`` is ``outcome.verify()``.
    """
    f = outcome.poly
    doc = {
        "ring": str(f.ring),
        "nvars": f.nvars,
        "poly": format_poly(f),
        "quotients": {
            _label_to_key(label): format_poly(p)
            for label, p in outcome.quotient_map.items()
        },
        "remainder": format_poly(outcome.remainder),
        "checks": outcome.verify(),
    }
    basis = family_to_json(outcome.family)
    if outcome.kind is None:
        doc["basis"] = basis
    else:
        doc.update(
            basis=outcome.kind,
            t=outcome.t,
            basis_polys=basis,
            degree_report=outcome.degree_report,
        )
    return doc


def _check_claim(kind: str, t, nvars: int, labels) -> None:
    """A claim names a level t (at least 0 for ``"I_t"``, 1 for ``"mixed"``)
    and its basis is labelled by exactly the exponent vectors of that
    level: the n-vectors of sum t, and of sum t - 1 for a mixed claim.  No
    vector is listed: ``family_from_json`` makes the labels distinct, so
    C(t+n-1, n-1) n-vectors of sum t are all of them (likewise at t - 1),
    and the labels are counted, then their lengths and sums checked."""
    require_int(t, 0 if kind == "I_t" else 1, f"{kind} claim: t", ParseError)
    per_sum = Counter({t: comb(t + nvars - 1, nvars - 1)})
    if kind == "mixed":
        per_sum[t - 1] = comb(t + nvars - 2, nvars - 1)
    count = per_sum.total()
    if len(labels) != count:
        raise ParseError(f"{kind} claim at t = {t} needs {count} basis members, got {len(labels)}")
    if (not all(isinstance(a, tuple) and len(a) == nvars for a in labels)
            or Counter(map(sum, labels)) != per_sum):
        raise ParseError(
            f"{kind} claim at t = {t}: basis labels are not its exponent vectors"
        )


def verify_certificate_json(doc: Mapping) -> dict:
    """Re-check a serialized division or certificate from the document
    alone: rebuild the outcome and run the ``verify()`` its writer ran."""
    _json_object(doc, "certificate document", ("ring", "nvars", "poly", "quotients", "remainder"),
                 ("checks", "basis", "t", "basis_polys", "degree_report"))
    ring = parse_ring(doc["ring"])
    nvars = require_int(doc["nvars"], 1, "nvars", ParseError)
    f = parse_poly(doc["poly"], ring, nvars)
    kind = doc.get("basis")
    if not isinstance(kind, str):
        kind = None
    elif kind not in ("I_t", "mixed"):
        raise ParseError(f"unknown certificate basis {kind!r}")
    basis_doc = doc.get("basis_polys", doc.get("basis"))
    if not isinstance(basis_doc, Mapping):
        raise ParseError("certificate document carries no basis polynomials")
    family = family_from_json(basis_doc, ring, nvars)
    if kind is not None:
        _check_claim(kind, doc.get("t"), nvars, family.labels)
    quotient_doc = doc["quotients"]
    if not isinstance(quotient_doc, Mapping):
        raise ParseError("certificate entry quotients must be a JSON object")
    by_label = keyed_by_value(quotient_doc, _label_from_key, "quotient", "label", ParseError)
    for label in family.labels:
        if label not in by_label:
            raise ParseError(f"missing quotient for basis member {_label_to_key(label)}")
    labels = set(family.labels)
    stray = [_label_to_key(label) for label in by_label if label not in labels]
    if stray:
        raise ParseError(f"quotient keys name no basis member: {', '.join(stray)}")
    quotients = [parse_poly(by_label[label], ring, nvars) for label in family.labels]
    remainder = parse_poly(doc["remainder"], ring, nvars)
    outcome = ReductionOutcome(
        family, tuple(quotients), remainder, f, kind=kind, t=doc.get("t")
    )
    checks = outcome.verify()
    checks["valid"] = all(checks.values())
    return checks
