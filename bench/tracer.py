"""In-memory span tracing around the public functions of each combnull layer.

Wrappers are installed from outside the package: every binding of a traced
function (its home module, the modules that import it by name, the package
re-export) is replaced by one wrapper, and class attributes such as
``Poly.__mul__`` are replaced on the class.  ``Ring`` methods are not
wrapped: criterion 4 alone makes tens of millions of ring calls, so their
cost stays inside the self time of the polynomial and reduction functions
that call them.

A span is ``(name, start, end, parent_id, span_id)``.  Self time is a span's
duration minus the time its child spans cover; inclusive time per name and
per layer counts only the outermost active span, so nested calls of one
name are not counted twice.  ``share.<layer>`` is that inclusive time over
the time of the benchmark's own ``op`` spans.

Which end-to-end metric each group should move, on which workload:

- ``polynomials.taylor_shift``: throughput and p99 on membership; not
  groebner or blocking.
- ``multiset_ideals.level_membership`` / ``level_normal_form``: throughput
  on membership.
- ``multiset_ideals.level_basis``, ``polynomials.mul``,
  ``polynomials.root_product``: throughput on membership, less on groebner;
  also ``setup_s`` on membership, whose generator builds members from
  ``level_basis``.
- ``reduction.*``: throughput and p99 on groebner, and the normal-form half
  of membership.
- ``covering.*``: throughput on blocking only.
- ``serialization.*``, ``parse_poly``, ``format_poly``: p50 on cli.
- ``cli.spawn_s``, ``cli.import_s``, ``cli.main_s``: p50 and p90 on cli.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

RING_NOTE = (
    "Ring methods are not wrapped; ring arithmetic is counted in the self time "
    "of the polynomial and reduction functions that call it."
)


def _grid_key(grid, t):
    return (
        str(grid.ring),
        tuple((axis.support, tuple(sorted(axis.psi.items()))) for axis in grid.axes),
        t,
    )


def _count_taylor_shift(tr, args, result):
    tr.counts["polynomials.taylor_shift.terms_out"] += len(result.terms)


def _count_level_membership(tr, args, result):
    if result is False:
        tr.counts["multiset_ideals.level_membership.false_verdicts"] += 1


def _count_level_basis(tr, args, result):
    tr.level_basis_inputs.add(_grid_key(args[0], args[1]))


def _count_mul(tr, args, result):
    tr.counts["polynomials.mul.term_products"] += len(args[0].terms) * len(args[1].terms)


def _count_reduce(tr, args, result):
    tr.counts["reduction.reduce.steps"] += result.steps


def _count_support_contained(tr, args, result):
    outcome = args[0]
    tr.counts["reduction.support_contained.term_products"] += sum(
        len(p.terms) * len(g.terms)
        for p, g in zip(outcome.quotients, outcome.family.members)
    )


def _count_exists_blocking(tr, args, result):
    if result[0]:
        tr.counts["covering.exists_blocking_of_size.found"] += 1


# (span name, module, attribute or "Class.attribute", count hook)
TARGETS = (
    ("polynomials.taylor_shift", "combnull.polynomials", "taylor_shift", _count_taylor_shift),
    ("polynomials.mul", "combnull.polynomials", "Poly.__mul__", _count_mul),
    ("polynomials.root_product", "combnull.polynomials", "root_product", None),
    ("polynomials.parse_poly", "combnull.polynomials", "parse_poly", None),
    ("polynomials.format_poly", "combnull.polynomials", "format_poly", None),
    ("reduction.reduce", "combnull.reduction", "reduce", _count_reduce),
    ("reduction.support_contained", "combnull.reduction",
     "ReductionOutcome.support_contained", _count_support_contained),
    ("reduction.s_polynomial", "combnull.reduction", "s_polynomial", None),
    ("reduction.buchberger_certifies", "combnull.reduction", "buchberger_certifies", None),
    ("multiset_ideals.level_basis", "combnull.multiset_ideals", "level_basis", _count_level_basis),
    ("multiset_ideals.level_membership", "combnull.multiset_ideals", "level_membership",
     _count_level_membership),
    ("multiset_ideals.level_normal_form", "combnull.multiset_ideals", "level_normal_form", None),
    ("covering.minimal_blocking_size", "combnull.covering", "minimal_blocking_size", None),
    ("covering.exists_blocking_of_size", "combnull.covering", "exists_blocking_of_size",
     _count_exists_blocking),
    ("covering.blocks_all_hyperplanes", "combnull.covering", "blocks_all_hyperplanes", None),
    ("serialization.certificate_to_json", "combnull.serialization", "certificate_to_json", None),
    ("serialization.verify_certificate_json", "combnull.serialization",
     "verify_certificate_json", None),
)

# Layers whose inclusive share of op time the traced run reports.
SHARE_LAYERS = ("polynomials", "reduction", "multiset_ideals", "covering", "serialization")

OP_SPAN = "op"
SPAN_CAP = 200_000  # spans kept in memory; later ones are counted as dropped


class Tracer:
    """Collects spans and per-name statistics while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.counts: Counter = Counter()
        self.parent_calls: Counter = Counter()  # (name, parent name) -> calls
        self.level_basis_inputs: set = set()
        # name -> [calls, self_s, inclusive_s, active depth]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # layer -> [inclusive_s, active depth]
        self.layers = defaultdict(lambda: [0.0, 0])
        self._stack: list = []  # frames: [span_id, name, child_s]
        self._next_id = 0
        self._patches: list = []

    def wrap(self, name: str, fn, count=None):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        layer = self.layers[name.split(".")[0]]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            if parent is not None:
                self.parent_calls[(name, parent[1])] += 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            stat[3] += 1
            layer[1] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[3] -= 1
                layer[1] -= 1
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[2]
                if stat[3] == 0:
                    stat[2] += dur
                if layer[1] == 0:
                    layer[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, -1 if parent is None else parent[0], sid))
                else:
                    self.dropped += 1
                if parent is not None:
                    parent[2] += dur
            if count is not None:
                hook_start = clock()
                count(self, args, result)
                if parent is not None:
                    # keep hook time out of the parent's self time
                    parent[2] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the loaded combnull modules."""
        homes = {modname: importlib.import_module(modname) for _, modname, _, _ in TARGETS}
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "combnull" or key.startswith("combnull."))
        ]
        for name, modname, attr, count in TARGETS:
            home = homes[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(name, orig, count))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: value and unit."""
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        stats = self.stats
        for name, _, _, _ in TARGETS:
            put(f"{name}.calls", stats[name][0], "count")
            put(f"{name}.self_s", stats[name][1], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        put("polynomials.taylor_shift.terms_out", c["polynomials.taylor_shift.terms_out"], "count")
        put("polynomials.mul.term_products", c["polynomials.mul.term_products"], "count")
        lm = stats["multiset_ideals.level_membership"][0]
        put(
            "multiset_ideals.level_membership.shifts_per_call",
            ratio(self.parent_calls[("polynomials.taylor_shift",
                                     "multiset_ideals.level_membership")], lm),
            "ratio",
        )
        put(
            "multiset_ideals.level_membership.early_exit_ratio",
            ratio(c["multiset_ideals.level_membership.false_verdicts"], lm),
            "ratio",
        )
        put("multiset_ideals.level_basis.distinct_inputs", len(self.level_basis_inputs), "count")
        put("reduction.reduce.steps", c["reduction.reduce.steps"], "count")
        put("reduction.support_contained.term_products",
            c["reduction.support_contained.term_products"], "count")
        put(
            "reduction.buchberger_certifies.reduced_pair_ratio",
            ratio(self.parent_calls[("reduction.reduce", "reduction.buchberger_certifies")],
                  self.parent_calls[("reduction.s_polynomial",
                                     "reduction.buchberger_certifies")]),
            "ratio",
        )
        put(
            "covering.blocks_all_hyperplanes.candidates_per_found",
            ratio(self.parent_calls[("covering.blocks_all_hyperplanes",
                                     "covering.exists_blocking_of_size")],
                  c["covering.exists_blocking_of_size.found"]),
            "ratio",
        )
        op_s = stats[OP_SPAN][2]
        for layer in SHARE_LAYERS:
            put(f"share.{layer}", ratio(self.layers[layer][0], op_s), "ratio")
        shift_basis = stats["polynomials.taylor_shift"][2] + stats["multiset_ideals.level_basis"][2]
        put("share.taylor_shift_and_level_basis", ratio(shift_basis, op_s), "ratio")
        put("trace.op_s", op_s, "s")
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent_id", "span_id"],
            "note": RING_NOTE,
            "dropped": self.dropped,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
