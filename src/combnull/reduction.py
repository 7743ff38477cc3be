"""Division against families of monic polynomials, with certificates.

``reduce`` implements generalized division: given f and a monic family
(g(lam)), it produces quotients and a remainder satisfying four conditions
that together form a checkable certificate (a membership certificate is an
outcome that also names its claim and has a zero remainder):

  (1) f equals the quotient combination plus the remainder, exactly;
  (2) supp(p(lam)) + supp(g(lam)) stays inside the downset of supp(f);
  (3) no remainder exponent dominates any leading exponent theta(lam);
  (4) the remainder support stays inside the downset of supp(f).

The reduction strategy is fixed for reproducibility: at each step, among
the monomials of the current polynomial dominating some theta(lam), the
graded-lexicographic greatest is cancelled against the lowest-index
eligible family member.

The division loop runs on exponent vectors packed into single ints whose
order is the graded-lexicographic order (Monagan & Pearce, *Sparse
polynomial division using a heap*, JSC 2011).  ``reduce`` packs f and the
members it can reach, runs that loop and unpacks to the tuple keys every
``Poly`` carries; ``s_polynomial`` packs, builds the S-pair and unpacks.

``decompose_member`` is the one path from a decided membership to its
zero-remainder decomposition; the level, mixed and vanishing-ideal
certificates all divide through it.

``buchberger_certifies`` runs the sufficiency test on S-polynomials; a True
answer certifies the Groebner property, a False answer is inconclusive.
A family whose witnesses are pairwise coprime (one member included) is
certified by the first criterion before anything is packed.  Any other
family is packed once, by the corner of all witnesses, at one field width
for every pair.  One loop builds each S-pair and divides it on packed keys
with ``reduce``'s division loop, stopping at the first nonzero remainder.
It takes its pairs from the kept plan of the family's witnesses or, when
there is none, from ``_chosen_pairs``, which chooses them by the criteria
below, reading only the witnesses, as the loop goes.  A sweep of chosen
pairs that divides each to 0 keeps them as the plan of its witness tuple,
for families of at most ``MAX_PLANNED_MEMBERS`` members; level bases over
grids with equal axis degrees, over any ring, share one.  The loop checks
only that each S-pair S reduces to 0, because with the true witnesses
``MonicFamily`` derives, (2) and (4) cannot fail:

  * Every exponent that enters ``_divide``'s work dict lies componentwise
    under some point of supp(S); this holds at the start.
  * A step cancels gamma with theta(l) <= gamma and adds
    (gamma - theta(l)) + beta with beta <= theta(l) (g(l) is monic), so
    each new exponent is <= gamma.
  * Hence each quotient point a + theta(l) (the gamma it cancelled) and
    each remainder exponent lie in the downset of supp(S): conditions (2)
    and (4) hold for every pair.
  * No packed field overflows: all of these exponents lie under
    lcm(theta(i), theta(j)), which lies under the corner of all witnesses.

The sweep divides only the pairs that three criteria keep: Buchberger's
first (coprime witnesses) and chain criteria (Buchberger, *A criterion for
detecting unnecessary reductions*, EUROSAM 1979), and Gebauer & Moeller's
rule for pairs of equal lcm (*On an installation of Buchberger's
algorithm*, JSC 1988).  Write m(i, j) = lcm(theta(i), theta(j)) and
S(i, j) = x^(m(i, j) - theta(i)) g(i) - x^(m(i, j) - theta(j)) g(j).  Call
S(i, j) = sum q(l) g(l) an lcm representation when every a + theta(l),
a in supp(q(l)), lies strictly below m(i, j) in graded-lex order.  A pair
that reduces to 0 has one: by the lemma each such point lies under a point
of supp(S(i, j)), and those points lie under m(i, j) but are not m(i, j)
(the shifted witnesses, each with coefficient 1, cancel), so their total
degree is smaller.  The verdict is the full sweep's:

  * First criterion: pair (i, j) is skipped when theta(i) and theta(j)
    share no variable, i.e. m = theta(i) + theta(j).  Write g(i) =
    x^theta(i) + r(i); then S(i, j) = x^theta(j) r(i) - x^theta(i) r(j) =
    r(i) g(j) - r(j) g(i), and every a in supp(r(i)) lies under theta(i)
    without being it, so a + theta(j) has smaller total degree than m (and
    likewise for r(j)): an lcm representation, whatever the other pairs do.
  * Chain criterion: pair (i, j), with m = m(i, j), is skipped when some
    theta(k) divides m while m(i, k) != m and m(j, k) != m.  Then m(i, k)
    and m(j, k) divide m, and S(i, j) = x^(m - m(i, k)) S(i, k) -
    x^(m - m(j, k)) S(j, k), since both sides' x^(m - theta(k)) g(k) terms
    cancel.
  * Equal lcms: among the pairs with one lcm m that the first two criteria
    keep, the sweep divides only a spanning forest.  A union-find per m,
    joined only by pairs it divides, skips pair (i, j) when i and j are
    already joined.  Along the forest path i = k(0), ..., k(r) = j every
    edge has lcm m, so S(i, j) = sum S(k(s), k(s+1)) telescopes: the
    x^(m - theta(k(s))) g(k(s)) terms of the inner nodes cancel.  Each
    edge reduced to 0, so it has an lcm representation, and so has the sum.
  * A kept plan serves every family with its witnesses.  The choices
    read only the witnesses and the forests, and a forest is joined only
    by pairs that were divided; a plan is kept only when all of them
    reduced to 0, so it joined every pair it kept.  A sweep of another
    family with these witnesses makes the same choices up to its first
    nonzero remainder, where it stops, so dividing the planned pairs in
    order until one leaves a remainder divides the same pairs as that
    sweep and gives its verdict.
  * The induction runs on m(i, j) under divisibility; a proper divisor has
    smaller total degree, so it is well founded.  A divided pair that
    reduces to 0 has an lcm representation, and so has a coprime pair.  A
    forest-skipped pair sums divided pairs of its own lcm.  A chain-skipped
    pair's S(i, k) and S(j, k) have lcms that properly divide m, so they
    have lcm representations; shifted by x^(m - m(i, k)) and
    x^(m - m(j, k)) their terms stay below m, and the identity combines
    them into one for S(i, j).
  * So if every divided pair reduces to 0, every pair has an lcm
    representation, and the family is a Groebner basis by Buchberger's
    criterion in its lcm-representation form.  Every leading coefficient
    is 1, so the pairwise syzygies generate those of the leading terms and
    the criterion holds over ZZ, QQ, ZZ/m and GF(p) alike.  Conversely a
    Groebner basis reduces every element of its ideal to 0 under any full
    reduction, so it passes every divided pair.
  * Strictness is what makes the chain induction well founded: with
    m(i, k) = m allowed, pairs with one lcm could vouch for each other in a
    cycle.  In x1, x2, x1*x2 + 1 every lcm is x1*x2, which x1*x2 divides,
    so "some third witness divides m" would skip all three pairs and
    certify a family whose ideal holds 1 (S of x1 and x1*x2 + 1 is -1).
    k = i and k = j never qualify, since m(i, j) ties with itself.  The
    forest has no such cycle: it skips a pair only after dividing a path.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from operator import add, mul
from typing import Hashable, Sequence

from .errors import (
    InternalInvariantError,
    NonzeroRemainder,
    NotMonic,
    UncertifiedBasis,
    ZeroPolynomial,
)
from .polynomials import Poly, _raw
from .rings import FrozenValue
from .staircase import ExpVec, in_downset, leq


class MonicFamily(FrozenValue):
    """An indexed family of monic polynomials over one ring and arity.

    ``labels[i]`` names ``members[i]`` in quotient maps and serialized
    certificates.  Every construction (positional, ``build``, ``replace``)
    checks one ring, one arity and monicity, and derives ``witnesses[i]``,
    the greatest support point of ``members[i]``.  ``certified`` records
    that the family is known to be a Groebner basis of the ideal it
    generates (set by the Buchberger check or granted structurally by a
    constructor that can guarantee it).
    """

    _fields = ("members", "labels", "witnesses", "certified")

    def __init__(self, members: tuple, labels: tuple, *, certified: bool = False):
        if len(labels) != len(members):
            raise ValueError("one label per member required")
        witnesses = []
        if members:
            ring, nvars = members[0].ring, members[0].nvars
        for label, g in zip(labels, members):
            g.require_on(ring, nvars)
            theta = g.monic_witness()
            if theta is None:
                raise NotMonic(f"family member {label!r} is not monic")
            witnesses.append(theta)
        self.__dict__.update(members=members, labels=labels, witnesses=tuple(witnesses),
                             certified=certified)

    @classmethod
    def build(
        cls,
        polys: Sequence[Poly],
        labels: Sequence[Hashable] | None = None,
        certified: bool = False,
    ) -> "MonicFamily":
        polys = tuple(polys)
        labels = tuple(range(len(polys))) if labels is None else tuple(labels)
        return cls(polys, labels, certified=certified)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(zip(self.labels, self.members, self.witnesses))

    @property
    def ring(self):
        return self.members[0].ring

    @property
    def nvars(self) -> int:
        return self.members[0].nvars

    def certify(self) -> "MonicFamily":
        """Buchberger-check the family; return a certified copy on success."""
        if self.certified or buchberger_certifies(self):
            return self.replace(certified=True)
        raise UncertifiedBasis("Buchberger test inconclusive for this family")


class ReductionOutcome(FrozenValue):
    """One division of ``poly`` by a family; also the membership certificate.

    ``reduce`` fills in the dividend, quotients and remainder.  A
    certificate adds its claim: ``kind`` is ``"I_t"`` (a level ideal) or
    ``"mixed"``, ``t`` the level, and ``degree_report`` what was recorded
    alongside.  The checks read only these fields, so an outcome rebuilt
    from a document is rechecked by the same code that wrote it.
    """

    _fields = ("family", "quotients", "remainder", "poly", "steps", "kind", "t", "degree_report")

    def __init__(self, family: MonicFamily, quotients: tuple, remainder: Poly, poly: Poly,
                 steps: int = 0, kind: str | None = None, t: int | None = None,
                 degree_report: dict | None = None):
        self.__dict__.update(family=family, quotients=quotients, remainder=remainder, poly=poly,
                             steps=steps, kind=kind, t=t, degree_report=degree_report)

    @property
    def quotient_map(self) -> dict:
        return dict(zip(self.family.labels, self.quotients))

    def identity_holds(self) -> bool:
        """Condition (1): the quotient combination plus the remainder is poly."""
        total = self.remainder
        for p, g in zip(self.quotients, self.family.members):
            if not p.is_zero():
                total = total + p * g
        return total == self.poly

    def support_contained(self) -> bool:
        """Conditions (2) and (4): quotient-times-member supports and the
        remainder support lie inside the downset of supp(poly), checked
        against its maximal elements as a predicate.

        A monic member has its whole support below its witness theta, so
        supp(p) + supp(g) lies in the downset exactly when every a + theta,
        a in supp(p), does.  Support points of poly need no test.
        """
        points = {
            tuple(map(add, a, theta))
            for p, theta in zip(self.quotients, self.family.witnesses)
            for a in p.terms
        }
        points.update(self.remainder.terms)
        points.difference_update(self.poly.terms)
        peaks = self.poly.max_support() if points else ()
        return all(in_downset(b, peaks) for b in points)

    def remainder_reduced(self) -> bool:
        """Condition (3): no remainder exponent dominates any witness.

        An outcome that claims membership needs more: a zero remainder.
        """
        if self.kind is not None:
            return self.remainder.is_zero()
        return not any(
            leq(theta, alpha)
            for alpha in self.remainder.terms
            for theta in self.family.witnesses
        )

    def verify(self) -> dict:
        return {
            "identity": self.identity_holds(),
            "support": self.support_contained(),
            "remainder_reduced": self.remainder_reduced(),
        }


def _packing(corner: ExpVec):
    """Packed-int keys for exponent vectors dominated by ``corner``.

    The total degree sits above x1..xn, so int order is the
    graded-lexicographic order.  Each field is the bit length of the
    corner's largest entry plus a guard bit, so adding two keys whose sum
    stays under the corner never carries, and ``b <= p`` componentwise
    exactly when ``(p - b) & guards == 0``.  Returns ``pack``, ``unpack``
    (packed terms back to a ``Poly``) and ``guards``.
    """
    width = max(corner).bit_length() + 1
    mask = (1 << width) - 1
    offsets = range(width * (len(corner) - 1), -1, -width)
    guards = sum(1 << (s + width - 1) for s in offsets)
    # x_k contributes 1 to the total degree field and 1 to its own.
    weights = [(1 << width * len(corner)) + (1 << s) for s in offsets]

    def pack(alpha: ExpVec) -> int:
        return sum(map(mul, alpha, weights))

    def unpack(ring, terms: dict) -> Poly:
        return _raw(ring, len(corner), {
            tuple(k >> s & mask for s in offsets): c for k, c in terms.items()
        })

    return pack, unpack, guards


def _divide(ring, work: dict, divisors: list, guards: int) -> list:
    """The division loop on packed keys, under the fixed strategy.

    ``divisors`` lists ``(index, theta, tail)`` by increasing index, with
    packed witness and the packed terms other than the witness's (whose
    coefficient is 1); ``work`` is reduced in place to the remainder.
    Returns the steps in the order made, one ``(index, shift, c)`` each: the
    quotient of member ``index`` gains c at packed key ``shift``.

    A step cancels gamma, the greatest key in ``work``: it deletes gamma and
    subtracts c x^shift times the tail, one ``ring.submul`` per tail term.
    Tail keys lie below theta, so a step only adds keys below gamma: no
    gamma is cancelled twice (each quotient key is set once), a term no
    witness divides stays in the remainder for good, and copies of one key
    leave the heap one after another.  Invariant: every key in ``work`` is
    in the heap; a key is pushed only when it is new to ``work``, and the
    heap may also hold keys that have since left ``work``.  The loop stops
    once every term left in ``work`` is a remainder term: what the heap
    still holds is stale.
    """
    zero = ring.zero
    submul = ring.submul
    push = heapq.heappush
    steps = []
    record = steps.append
    heap = [-key for key in work]
    heapq.heapify(heap)
    kept = 0
    last = None
    while len(work) > kept:
        gamma = -heapq.heappop(heap)
        if gamma == last:
            continue
        last = gamma
        c = work.get(gamma)
        if c is None:
            continue
        for i, theta, tail in divisors:
            if not (gamma - theta) & guards:
                break
        else:
            kept += 1
            continue
        shift = gamma - theta
        record((i, shift, c))
        del work[gamma]
        for beta, gc in tail:
            key = shift + beta
            old = work.get(key)
            if old is None:
                s = submul(zero, c, gc)
                if s != zero:
                    work[key] = s
                    push(heap, -key)
            else:
                s = submul(old, c, gc)
                if s == zero:
                    del work[key]
                else:
                    work[key] = s
    return steps


def _s_pair(ring, f_tail: list, u: int, g_tail: list, v: int) -> dict:
    """x^u f - x^v g on packed tails: the shifted witnesses cancel, so only
    the tails enter."""
    zero = ring.zero
    out = {a + u: c for a, c in f_tail}
    for b, c in g_tail:
        key = b + v
        s = ring.sub(out.get(key, zero), c)
        if s == zero:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _packed_tail(pack, g: Poly, theta: ExpVec) -> list:
    """g's packed terms other than its witness."""
    return [(pack(beta), c) for beta, c in g.terms.items() if beta != theta]


def reduce(f: Poly, family: MonicFamily) -> ReductionOutcome:
    """Divide f by the family under the fixed strategy."""
    if family.members:
        f.require_on(family.ring, family.nvars)
    # Every exponent the division meets is dominated by a support point of
    # f (members are monic), so f's corner bounds every field.
    corner = tuple(map(max, zip(*f.terms))) if f.terms else (0,) * f.nvars
    pack, unpack, guards = _packing(corner)
    # A member whose witness leaves f's box can never be chosen, and its
    # exponents need not fit the fields.
    reachable = [
        (i, pack(theta), _packed_tail(pack, g, theta))
        for i, (g, theta) in enumerate(zip(family.members, family.witnesses))
        if leq(theta, corner)
    ]
    work = {pack(alpha): c for alpha, c in f.terms.items()}
    steps = _divide(f.ring, work, reachable, guards)
    quotients = [{} for _ in family.members]
    for i, shift, c in steps:
        quotients[i][shift] = c
    return ReductionOutcome(
        family, tuple(unpack(f.ring, q) for q in quotients), unpack(f.ring, work), f, len(steps)
    )


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The leading-term-cancelling combination of two monic polynomials."""
    alpha = f.monic_witness()
    beta = g.monic_witness()
    if alpha is None or beta is None:
        raise NotMonic("S-polynomials are defined for monic operands")
    f.require_on(g.ring, g.nvars)
    join = tuple(map(max, alpha, beta))
    pack, unpack, _ = _packing(join)
    top = pack(join)
    f_tail, g_tail = _packed_tail(pack, f, alpha), _packed_tail(pack, g, beta)
    return unpack(f.ring, _s_pair(f.ring, f_tail, top - pack(alpha), g_tail, top - pack(beta)))


def _root(parent: dict, i: int) -> int:
    """The representative of i in a union-find that maps non-roots only."""
    while i in parent:
        i = parent[i]
    return i


# A sweep that chose its pairs and divided each to 0 keeps its plan per
# witness tuple: the packing by the corner of all witnesses, the packed
# witnesses and the divided pairs in order, flat, as i, j and the packed
# m(i, j).  Plans of families with at most this many members are kept, the
# oldest dropped past _PLAN_CACHE_SIZE, so a kept plan holds at most 16
# packed witnesses and C(16, 2) = 120 pairs.  The benchmark's `groebner` ops
# keep 160 plans, about 2 KB each with their keys; their largest family has
# 10 members.
MAX_PLANNED_MEMBERS = 16
_PLAN_CACHE_SIZE = 1024
_plans: dict = {}


def _chosen_pairs(thetas: tuple, tops: tuple, pack, guards: int):
    """Yield ``(i, j, top)``, with ``top`` the packed m(i, j), for each pair
    the criteria keep, in sweep order.  A yielded pair joins its lcm's
    forest when the generator resumes, which the sweep does only after the
    pair divided to 0."""
    size = len(thetas)
    # lcms[i][j] is the packed lcm(theta(i), theta(j)); the diagonal is theta(i).
    lcms = [[top] * size for top in tops]
    for i, theta in enumerate(thetas):
        for j in range(i + 1, size):
            lcms[i][j] = lcms[j][i] = pack(tuple(map(max, theta, thetas[j])))
    # One union-find per packed lcm, joined by the pairs divided so far.
    forests = {}
    for i, top_i in enumerate(tops):
        row_i = lcms[i]
        for j in range(i + 1, size):
            top = row_i[j]
            # top_i + top_j - top packs the componentwise min of the two
            # witnesses, which is zero exactly when they are coprime.
            if top == top_i + tops[j]:
                continue
            row_j = lcms[j]
            # k = i and k = j never qualify: row_j[i] and row_i[j] are top.
            for k, top_k in enumerate(tops):
                if not (top - top_k) & guards and row_i[k] != top and row_j[k] != top:
                    break
            else:
                parent = forests.setdefault(top, {})
                root_i, root_j = _root(parent, i), _root(parent, j)
                if root_i != root_j:
                    yield i, j, top
                    parent[root_i] = root_j


def buchberger_certifies(family: MonicFamily) -> bool:
    """Sufficiency test: every S-polynomial the sweep's criteria keep
    reduces to zero, which carries the support-containment certificate (see
    the module docstring).

    True certifies that the family is a Groebner basis of the ideal it
    generates.  False is inconclusive, never a refutation.  Pair (i, j),
    with m = lcm(theta(i), theta(j)), is skipped when theta(i) and theta(j)
    are coprime; when a third witness theta(k) divides m while
    lcm(theta(i), theta(k)) and lcm(theta(j), theta(k)) are both proper
    divisors of m; or when pairs of lcm m divided before it join i to j.
    When every pair is coprime, nothing is packed.  Every pair kept is
    divided on packed keys, with the quotients, remainder and steps
    ``reduce`` would give, and the first nonzero remainder ends the sweep.
    The pairs are the kept plan's when the witnesses have one, and are
    chosen while dividing otherwise.
    """
    thetas = family.witnesses
    plan = _plans.get(thetas)
    if plan is None:
        # Pairwise coprime witnesses: the first criterion settles every pair.
        if not any(any(map(min, a, b)) for a, b in combinations(thetas, 2)):
            return True
        pack, _, guards = _packing(tuple(map(max, *thetas)))
        tops = tuple(map(pack, thetas))
        pairs = _chosen_pairs(thetas, tops, pack, guards)
    else:
        pack, guards, tops, flat = plan
        it = iter(flat)
        pairs = zip(it, it, it)
    ring = family.ring
    divisors = [
        (i, top, _packed_tail(pack, g, theta))
        for i, (g, theta, top) in enumerate(zip(family.members, thetas, tops))
    ]
    divided = []
    for i, j, top in pairs:
        _, top_i, tail_i = divisors[i]
        _, top_j, tail_j = divisors[j]
        s = _s_pair(ring, tail_i, top - top_i, tail_j, top - top_j)
        _divide(ring, s, divisors, guards)
        if s:
            return False
        divided += i, j, top
    if plan is None and len(thetas) <= MAX_PLANNED_MEMBERS:
        if len(_plans) >= _PLAN_CACHE_SIZE:
            del _plans[next(iter(_plans))]
        _plans[thetas] = (pack, guards, tops, tuple(divided))
    return True


def membership_refutation(f: Poly, family: MonicFamily) -> ExpVec | None:
    """A maximal support point of f dominated by no leading exponent.

    Such a point proves f lies outside any ideal of which the family is a
    Groebner basis.  Returns None when every maximal point is dominated,
    which by itself decides nothing.
    """
    if f.is_zero():
        raise ZeroPolynomial("refutation witnesses need a nonzero polynomial")
    witnesses = [
        beta
        for beta in f.max_support()
        if not any(leq(theta, beta) for theta in family.witnesses)
    ]
    if not witnesses:
        return None
    return max(witnesses, key=lambda b: (sum(b), b))


def decompose_member(f: Poly, family: MonicFamily) -> ReductionOutcome:
    """Divide a known member of an ideal by a Groebner basis of it.  A
    nonzero remainder, or a maximal support point of f above no leading
    exponent (which a zero remainder already rules out), is a library bug."""
    out = reduce(f, family)
    if not out.remainder.is_zero():
        raise NonzeroRemainder("division of a member left a nonzero remainder")
    if not f.is_zero() and (beta := membership_refutation(f, family)) is not None:
        raise InternalInvariantError(f"maximal exponent {beta} dominates no leading exponent")
    return out


def normal_form(f: Poly, family: MonicFamily) -> Poly:
    """The unique fully reduced representative of f modulo the family.

    Uniqueness (independence of the reduction strategy) holds exactly when
    the family is a certified Groebner basis, so uncertified families are
    rejected.
    """
    if not family.certified:
        raise UncertifiedBasis(
            "normal forms require a certified Groebner basis; "
            "call certify() or use a structurally certified family"
        )
    return reduce(f, family).remainder
