"""Command line front end.

Subcommands: reduce, groebner-check, membership, certificate, normal-form,
punctured, mixed, cover, alon-furedi, count, verify, selftest.  Each takes
``--format text|json`` and reads each argument once, inline or ``@path``.
Flags a command cannot use together are refused, not dropped: ``cover``
takes one of ``--bound-only``, ``--points`` and ``--instance`` (the last
without ``--q``, ``--n`` or ``--t``), ``mixed --min-extra-degree`` neither
``--poly`` nor ``--certificate``, and ``groebner-check --spec`` no ``--nvars``.
A call builds the parser of the subcommand it names and no other; help,
``--version`` and a missing or unknown subcommand build them all.

Exit codes: 0 when the computed verdict is affirmative (or the command is
purely computational), 1 when the verdict is negative or hypotheses are
unmet, 2 when Condition (D) fails and the question is inapplicable, 3 on
parse or usage errors, 4 on any other error: an internal invariant that
failed, or an exception no library check raised (a library bug).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .errors import (
    CombnullError,
    Inapplicable,
    InternalInvariantError,
    NotMember,
    ParseError,
)
from .multiset_ideals import (
    MultisetGrid,
    PuncturedGrid,
    level_certificate,
    level_membership,
    level_normal_form,
    min_extra_degree,
    mixed_certificate,
    mixed_membership,
    punctured_analysis,
    punctured_membership,
)
from .polynomials import (
    format_poly,
    parse_poly,
    random_monic,
    random_poly,
    taylor_shift,
)
from .reduction import MonicFamily, buchberger_certifies, reduce
from .rings import ZZ, Zmod, parse_ring
from .serialization import (
    _json_list,
    certificate_to_json,
    element_from_json,
    family_to_json,
    grid_from_json,
    verify_certificate_json,
)
from .staircase import (
    parse_expvec,
    punctured_staircase_count,
    staircase_count,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_INAPPLICABLE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_arg(text: str) -> str:
    """Inline value, or @path to read from a file."""
    if text.startswith("@"):
        with open(text[1:]) as handle:
            return handle.read()
    return text


_BARE_KEY = re.compile(r'([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)')


def _loose_json(text: str):
    """JSON with tolerance for unquoted object keys, e.g. {S:[[0,1]]}."""
    text = _read_arg(text).strip()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        pass
    quoted = _BARE_KEY.sub(r'\1"\2"\3', text)
    try:
        return json.loads(quoted)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON argument: {exc}") from None


def _emit(args, payload, lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _polys(args, texts, grid=None) -> list:
    """``texts`` (``--poly`` and ``--basis`` values), each read once and
    parsed over ``grid``'s ring and arity, or else over ``--ring`` in
    ``--nvars`` variables, by default the largest k of an x<k> in them."""
    texts = [_read_arg(t) for t in texts]
    if grid is not None:
        return [parse_poly(t, grid.ring, grid.nvars) for t in texts]
    nvars = args.nvars
    if nvars is None:
        nvars = max([1] + [int(k) for t in texts for k in re.findall(r"x(\d+)", t)])
    elif nvars < 1:
        raise _UsageError("nvars must be at least 1")
    ring = parse_ring(args.ring)
    return [parse_poly(t, ring, nvars) for t in texts]


def _given_ring(args):
    """The ``--ring`` ring, or None when the flag is absent (an empty text is parsed)."""
    return None if args.ring is None else parse_ring(args.ring)


def _grid_and_poly(args, kind=MultisetGrid):
    """The ``--grid`` of ``kind`` and ``--poly`` over it (None when not given)."""
    grid = grid_from_json(_loose_json(args.grid), _given_ring(args), kind, args.command)
    return grid, None if args.poly is None else _polys(args, [args.poly], grid)[0]


def _verdict(args, member: bool) -> int:
    """Write a membership verdict at level ``--t``; exit 0 for a member."""
    _emit(args, {"member": member, "t": args.t}, [str(member).lower()])
    return EXIT_YES if member else EXIT_NO


# -- handlers -------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    f, *basis = _polys(args, [args.poly, *args.basis])
    out = reduce(f, MonicFamily.build(basis))
    payload = certificate_to_json(out)
    lines = [f"quotient[{k}]: {format_poly(p)}" for k, p in out.quotient_map.items()]
    lines.append(f"remainder: {format_poly(out.remainder)}")
    lines.append(f"checks: {payload['checks']}")
    _emit(args, payload, lines)
    return EXIT_YES


def _cmd_groebner_check(args) -> int:
    if args.spec is not None:
        from .vanishing import VanishingSpec, certify_groebner
        spec = grid_from_json(_loose_json(args.spec), _given_ring(args), VanishingSpec,
                              args.command)
        report = certify_groebner(spec, MonicFamily.build(_polys(args, args.basis, spec)))
        lines = [
            f"condition (D) per axis: {list(report.condition_d)}",
            f"grid staircase count (zeta1): {report.grid_count}",
            "leading staircase count (zeta2): "
            f"{'infinite' if report.leading_count is None else report.leading_count}",
            f"verdict: {report.verdict}",
        ]
        _emit(args, report.to_json_dict(), lines)
        exits = {"groebner": EXIT_YES, "inapplicable": EXIT_INAPPLICABLE}
        return exits.get(report.verdict, EXIT_NO)
    family = MonicFamily.build(_polys(args, args.basis))
    ok = buchberger_certifies(family)
    payload = {"certified": ok, "basis": family_to_json(family)}
    _emit(args, payload, [f"certified: {ok}" if ok else "inconclusive"])
    return EXIT_YES if ok else EXIT_NO


def _cmd_membership(args) -> int:
    grid, f = _grid_and_poly(args)
    return _verdict(args, level_membership(f, grid, args.t))


def _cmd_certificate(args) -> int:
    grid, f = _grid_and_poly(args)
    cert = level_certificate(f, grid, args.t)
    payload = certificate_to_json(cert)
    lines = [f"member of the level-{args.t} ideal; certificate:"]
    lines += [
        f"quotient[{k}]: {format_poly(p)}"
        for k, p in cert.quotient_map.items()
        if not p.is_zero()
    ]
    lines.append(f"support containment: {payload['checks']['support']}")
    _emit(args, payload, lines)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_YES


def _cmd_normal_form(args) -> int:
    grid, f = _grid_and_poly(args)
    nf = level_normal_form(f, grid, args.t)
    _emit(args, {"normal_form": format_poly(nf)}, [format_poly(nf)])
    return EXIT_YES


def _cmd_punctured(args) -> int:
    pgrid, f = _grid_and_poly(args, PuncturedGrid)
    if not args.analyze:
        return _verdict(args, punctured_membership(f, pgrid, args.t))
    try:
        report = punctured_analysis(f, pgrid, args.t)
    except NotMember:
        return _verdict(args, False)
    payload = {"member": True, "t": args.t, "analysis": report.to_json_dict()}
    lines = [
        "true",
        f"normal form: {format_poly(report.eta)}",
        f"divisor: {format_poly(report.divisor)}",
        f"cofactor: {format_poly(report.cofactor)}",
        f"degree bound: {report.degree_bound} (holds: {report.bound_holds})",
    ]
    _emit(args, payload, lines)
    return EXIT_YES


def _cmd_mixed(args) -> int:
    if args.min_extra_degree and args.certificate:
        raise _UsageError("argument --certificate: not allowed with argument --min-extra-degree")
    pgrid, f = _grid_and_poly(args, PuncturedGrid)
    if args.min_extra_degree:
        value, witness = min_extra_degree(pgrid, args.t)
        payload = {"min_extra_degree": value, "witness": format_poly(witness)}
        _emit(args, payload, [f"{value}", f"witness: {format_poly(witness)}"])
        return EXIT_YES
    if f is None:
        raise _UsageError("mixed needs --poly unless --min-extra-degree is given")
    if not args.certificate:
        return _verdict(args, mixed_membership(f, pgrid, args.t))
    try:
        payload = certificate_to_json(mixed_certificate(f, pgrid, args.t))
    except NotMember:
        return _verdict(args, False)
    _emit(args, payload, ["true", f"support containment: {payload['checks']['support']}"])
    return EXIT_YES


def _cmd_cover(args) -> int:
    from .covering import affine_blocking_bound, blocking_audit, covering_audit, instance_from_json
    if args.instance is not None:
        for flag in ("q", "n", "t"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"argument --{flag}: not allowed with argument --instance")
        report = covering_audit(instance_from_json(_loose_json(args.instance)))
        lines = [f"verdict: {report.verdict}"]
        if report.verdict == "bound_holds":
            lines.append(
                f"sum of degrees {report.sum_degrees} >= product degree "
                f"{report.product_degree} >= {max(report.bounds)}"
            )
        _emit(args, report.to_json_dict(), lines)
        return EXIT_YES if report.verdict == "bound_holds" else EXIT_NO
    for flag in ("q", "n"):
        if getattr(args, flag) is None:
            raise _UsageError(f"cover --bound-only and --points need --{flag}")
    t = 1 if args.t is None else args.t
    if args.bound_only:
        value = affine_blocking_bound(args.q, args.n, t)
        _emit(args, {"bound": value}, [str(value)])
        return EXIT_YES
    pts = [parse_expvec(p) for p in args.points.split(";") if p.strip()]
    report = blocking_audit(args.q, args.n, t, pts)
    lines = [f"blocked: {report.blocked}", f"size: {report.size} (bound {report.bound})"]
    if report.unblocked_hyperplane:
        eta, c = report.unblocked_hyperplane
        lines.append(f"unblocked hyperplane: <{eta}, x> = {c}")
    _emit(args, report.to_json_dict(), lines)
    return EXIT_YES if report.blocked else EXIT_NO


def _cmd_alon_furedi(args) -> int:
    from .alon_furedi import nonzero_bound
    ring = parse_ring(args.ring)
    supports_doc = _json_list(_loose_json(args.supports), list, "--S must be a JSON list of lists")
    supports = [[element_from_json(ring, v) for v in S] for S in supports_doc]
    f = parse_poly(_read_arg(args.poly), ring, len(supports))
    report = nonzero_bound(f, supports, parse_expvec(args.beta))
    lines = [
        f"mu: {report.mu}",
        f"bound: {report.bound}",
        f"actual nonzero count: {report.actual}",
    ]
    _emit(args, report.to_json_dict(), lines)
    return EXIT_YES


def _cmd_count(args) -> int:
    alpha = parse_expvec(args.alpha)
    if args.gamma is not None:
        gamma = parse_expvec(args.gamma)
        value = punctured_staircase_count(alpha, gamma, args.t)
    else:
        value = staircase_count(alpha, args.t)
    _emit(args, {"value": value}, [str(value)])
    return EXIT_YES


def _cmd_verify(args) -> int:
    doc = _loose_json(args.certificate)
    checks = verify_certificate_json(doc)
    _emit(args, checks, [f"{k}: {v}" for k, v in checks.items()])
    return EXIT_YES if checks["valid"] else EXIT_NO


def _cmd_selftest(args) -> int:
    import random
    rng = random.Random(args.seed)
    failures = []
    for ring in (ZZ, Zmod(6)):
        for _ in range(25):
            nvars = rng.randint(1, 3)
            f = random_poly(rng, ring, nvars)
            family = MonicFamily.build(
                [random_monic(rng, ring, nvars) for _ in range(rng.randint(1, 2))])
            out = reduce(f, family)
            checks = out.verify()
            if not all(checks.values()):
                failures.append(f"reduce checks failed over {ring}: {checks}")
            again = reduce(out.remainder, family)
            if again.remainder != out.remainder:
                failures.append(f"remainder not idempotent over {ring}")
            u = tuple(ring.canon(rng.randint(-2, 2)) for _ in range(nvars))
            back = taylor_shift(taylor_shift(f, u), tuple(ring.neg(v) for v in u))
            if back != f:
                failures.append(f"shift involution failed over {ring}")
    payload = {"seed": args.seed, "failures": failures, "passed": not failures}
    _emit(args, payload, ["pass" if not failures else "\n".join(failures)])
    return EXIT_YES if not failures else EXIT_NO


# -- parser ----------------------------------------------------------------------


def _poly_flags(p):
    p.add_argument("--poly", required=True)


def _reduce_flags(p):
    _poly_flags(p)
    p.add_argument("--basis", action="append", required=True)
    p.add_argument("--nvars", type=int)


def _groebner_check_flags(p):
    p.add_argument("--basis", action="append", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", help="vanishing spec JSON (inline or @file)")
    source.add_argument("--nvars", type=int)


def _certificate_flags(p):
    _poly_flags(p)
    p.add_argument("--out")


def _punctured_flags(p):
    _poly_flags(p)
    p.add_argument("--analyze", action="store_true")


def _mixed_flags(p):
    operand = p.add_mutually_exclusive_group()
    operand.add_argument("--poly")
    operand.add_argument("--min-extra-degree", action="store_true")
    p.add_argument("--certificate", action="store_true")


def _cover_flags(p):
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bound-only", action="store_true")
    mode.add_argument("--points", help="semicolon-separated points, e.g. (0,1);(1,0)")
    mode.add_argument("--instance", help="cover instance JSON (inline or @file)")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int, help="default 1; not with --instance")


def _alon_furedi_flags(p):
    p.add_argument("--S", dest="supports", required=True, help="JSON list of axis sets")
    p.add_argument("--beta", required=True)
    _poly_flags(p)


def _count_flags(p):
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma")
    p.add_argument("--t", type=int, required=True)


def _verify_flags(p):
    p.add_argument("--certificate", required=True, help="JSON (inline or @file)")


def _selftest_flags(p):
    p.add_argument("--seed", type=int, default=0)


_GRID = "grid JSON (inline or @file)"
_PGRID = "grid JSON with an E entry"

# The one command table, in help order: name -> (handler, help, --ring (None:
# absent, False: optional, True: required), --grid help (None: no --grid and
# --t), the command's own flags).
_COMMANDS = {
    "reduce": (_cmd_reduce, "divide against a monic family", True, None, _reduce_flags),
    "groebner-check": (_cmd_groebner_check, "Buchberger or count certification", True, None,
                       _groebner_check_flags),
    "membership": (_cmd_membership, "level-ideal membership", False, _GRID, _poly_flags),
    "certificate": (_cmd_certificate, "level-ideal certificate", False, _GRID,
                    _certificate_flags),
    "normal-form": (_cmd_normal_form, "normal form modulo a level ideal", False, _GRID,
                    _poly_flags),
    "punctured": (_cmd_punctured, "punctured membership and analysis", False, _PGRID,
                  _punctured_flags),
    "mixed": (_cmd_mixed, "mixed-ideal membership and certificates", False, _PGRID,
              _mixed_flags),
    "cover": (_cmd_cover, "covering audits and blocking bounds", None, None, _cover_flags),
    "alon-furedi": (_cmd_alon_furedi, "nonzero-count lower bound", True, None,
                    _alon_furedi_flags),
    "count": (_cmd_count, "staircase complement counts", None, None, _count_flags),
    "verify": (_cmd_verify, "re-check a serialized certificate", None, None, _verify_flags),
    "selftest": (_cmd_selftest, "seeded randomized identities", None, None, _selftest_flags),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    """The parser with the subcommands ``names``, by default all of them.
    Each takes ``--format``, ``--ring`` unless its table entry says None,
    ``--grid`` and ``--t`` when the entry gives the grid's help text, and
    then its own flags."""
    parser = _Parser(prog="combnull", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        func, help, ring, grid, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if ring is not None:
            p.add_argument("--ring", required=ring, help="ZZ, QQ, ZZ/<m>, GF(<p>)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if grid:
            p.add_argument("--grid", required=True, help=grid)
            p.add_argument("--t", type=int, required=True)
        flags(p)
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None).  Only
    the subcommand named first is built; help, ``--version`` and a missing or
    unknown command get every subcommand, as their output lists them all."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
        args = _build_parser(named).parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Inapplicable as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except NotMember as exc:
        print(f"not a member: {exc}", file=sys.stderr)
        return EXIT_NO
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CombnullError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # raised by no library check: a bug
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
