"""Sparse multivariate polynomials over a coefficient ring.

A polynomial is a finite map from exponent tuples to nonzero canonical ring
elements; zero coefficients are pruned on construction so that the support
is always exactly the key set and equality is structural.  The zero
polynomial has degree ``NEG_INF``, a sentinel below every natural number.

A polynomial is *monic* when its support has a greatest element under the
componentwise order and the coefficient there is one.  This is stronger
than the univariate leading-coefficient notion and is the monicity used by
every family in this library.
"""

from __future__ import annotations

import re
from itertools import product
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    NonPositiveMultiplicity,
    ParseError,
    ScaleExceeded,
)
from .rings import Element, Ring
from .staircase import ExpVec, grlex_key, maximal_elements, require_int

NEG_INF = float("-inf")


class Poly:
    """Immutable-by-convention sparse polynomial in ``nvars`` variables."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring: Ring, nvars: int, terms: Mapping | None = None):
        require_int(nvars, 1, "nvars", ValueError)
        clean: dict = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != nvars:
                raise ArityMismatch(f"exponent {alpha} in {nvars} variables")
            if any([type(e) is not int or e < 0 for e in alpha]):  # pre-filter; naturals pass
                for e in alpha:
                    require_int(e, 0, f"exponent in {alpha}", ValueError)
            c = ring.canon(c)
            if c != ring.zero:
                clean[alpha] = c
        self.ring = ring
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> "Poly":
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring: Ring, nvars: int, c) -> "Poly":
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, ring: Ring, nvars: int) -> "Poly":
        return cls.constant(ring, nvars, ring.one)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set:
        return set(self.terms)

    def max_support(self) -> set:
        return maximal_elements(self.terms)

    def coeff(self, alpha: ExpVec) -> Element:
        return self.terms.get(tuple(alpha), self.ring.zero)

    def degree(self):
        """Max total degree, or NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(a) for a in self.terms)

    def monic_witness(self) -> ExpVec | None:
        """The greatest support point, when it exists with coefficient one.

        Returns None otherwise; non-monicity is an ordinary value here, not
        a fault.
        """
        if not self.terms:
            return None
        # A greatest point, when there is one, is the componentwise max.
        theta = tuple(map(max, zip(*self.terms)))
        if self.terms.get(theta) != self.ring.one:
            return None
        return theta

    # -- arithmetic ---------------------------------------------------------

    def require_on(self, ring: Ring, nvars: int) -> None:
        """The one operand gate: raise RingMismatch or ArityMismatch unless
        this polynomial lives over ``ring`` in ``nvars`` variables."""
        self.ring.require_same(ring)
        if self.nvars != nvars:
            raise ArityMismatch(f"{self.nvars} vs {nvars} variables")

    def _combine(self, other: "Poly", op) -> "Poly":
        self.require_on(other.ring, other.nvars)
        ring = self.ring
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            s = op(out.get(alpha, ring.zero), c)
            if s == ring.zero:
                out.pop(alpha, None)
            else:
                out[alpha] = s
        return _raw(ring, self.nvars, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, self.ring.add)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, self.ring.sub)

    def __neg__(self) -> "Poly":
        ring = self.ring
        return _raw(ring, self.nvars, {a: ring.neg(c) for a, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self.require_on(other.ring, other.nvars)
        ring = self.ring
        zero = ring.zero
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = ring.add(out.get(key, zero), ring.mul(ca, cb))
                if s == zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return _raw(ring, self.nvars, out)

    def __pow__(self, k: int) -> "Poly":
        require_int(k, 0, "the power", ValueError)
        result = Poly.one(self.ring, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[Element]) -> Element:
        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)} in {self.nvars} vars")
        ring = self.ring
        pt = [ring.canon(v) for v in point]
        total = ring.zero
        for alpha, c in self.terms.items():
            term = c
            for v, e in zip(pt, alpha):
                if e:
                    term = ring.mul(term, ring.pow(v, e))
            total = ring.add(total, term)
        return total

    def __repr__(self) -> str:
        return f"Poly({self.ring}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _raw(ring: Ring, nvars: int, clean_terms: dict) -> Poly:
    """Internal fast path: terms are already canonical and pruned."""
    p = Poly.__new__(Poly)
    p.ring = ring
    p.nvars = nvars
    p.terms = clean_terms
    return p


# -- Taylor shift ------------------------------------------------------------


def taylor_shift(f: Poly, u: Sequence[Element]) -> Poly:
    """Rewrite f in coordinates centered at u, i.e. f(x1+u1, ..., xn+un).

    The coefficient at alpha is the kernel-weighted sum over the support of
    f; expanding each support point through its dominated box realizes that
    sum directly.
    """
    ring = f.ring
    if len(u) != f.nvars:
        raise ArityMismatch(f"shift point of length {len(u)} in {f.nvars} vars")
    pt = [ring.canon(v) for v in u]
    pows = [dict() for _ in range(f.nvars)]

    def upow(k: int, e: int) -> Element:
        cache = pows[k]
        if e not in cache:
            cache[e] = ring.pow(pt[k], e)
        return cache[e]

    out: dict = {}
    zero = ring.zero
    for gamma, c in f.terms.items():
        for alpha in product(*(range(g + 1) for g in gamma)):
            w = 1
            for g, a in zip(gamma, alpha):
                w *= comb(g, a)
            val = ring.mul(c, ring.from_int(w))
            for k, (g, a) in enumerate(zip(gamma, alpha)):
                if g > a:
                    val = ring.mul(val, upow(k, g - a))
            s = ring.add(out.get(alpha, zero), val)
            if s == zero:
                out.pop(alpha, None)
            else:
                out[alpha] = s
    return _raw(ring, f.nvars, out)


# -- grid constructors ---------------------------------------------------------


def _root_terms(ring: Ring, elements: Iterable[Element], psi) -> tuple:
    """``prod (x - u)^psi(u)`` in one variable, as sparse ``(exponents,
    coefficients)`` tuples, lowest degree first.

    Multiplicities default to one and must be integers >= 1; each element
    goes through ``ring.canon``.  All are read before any product: the
    product of degree d = sum(psi) is counted as d (d + 1) / 2 coefficient
    steps, and above ``MAX_BASIS_TERMS`` of them it is ``ScaleExceeded``.
    The d factors x - u go through ``_next_power`` in pairs, round after
    round, about d^2 / 2 coefficient products in all.
    """
    roots = []
    for u in elements:
        m = 1 if psi is None else psi.get(u)
        require_int(m, 1, f"psi({u})", NonPositiveMultiplicity)
        roots.append((ring.canon(u), m))
    d = sum(m for _, m in roots)
    if d * (d + 1) // 2 > MAX_BASIS_TERMS:
        raise ScaleExceeded(f"an axis polynomial of degree {d} needs over {MAX_BASIS_TERMS} "
                            "coefficient steps")
    factors = [((1,), (ring.one,)) if u == ring.zero else ((0, 1), (ring.neg(u), ring.one))
               for u, m in roots for _ in range(m)] or [((0,), (ring.one,))]
    while len(factors) > 1:
        factors = [_next_power(ring, *factors[i:i + 2]) if i + 1 < len(factors) else factors[i]
                   for i in range(0, len(factors), 2)]
    return factors[0]


def _on_axis(ring: Ring, nvars: int, axis: int, terms: tuple) -> Poly:
    """The univariate ``(exponents, coefficients)`` pair ``terms`` as a
    polynomial in x_(axis + 1) of ``nvars`` variables."""
    before, after = (0,) * axis, (0,) * (nvars - axis - 1)
    return _raw(ring, nvars, {before + (e,) + after: c for e, c in zip(*terms)})


def root_product(
    ring: Ring,
    nvars: int,
    axis: int,
    elements: Iterable[Element],
    psi: Mapping[Element, int] | None = None,
) -> Poly:
    """The monic axis polynomial ``prod (x_axis - u)^psi(u)``.

    With an empty element set this is the constant one.  Multiplicities
    default to one and must be positive.
    """
    require_int(nvars, 1, "nvars", ValueError)
    if not 0 <= axis < nvars:
        raise ValueError(f"axis {axis} out of range for {nvars} variables")
    return _on_axis(ring, nvars, axis, _root_terms(ring, elements, psi))


# The one term limit: every count of terms, coefficient steps, term products
# or packed key fields is refused above it, each module reading it here, so
# one assignment moves it everywhere.  A power-product family counts, before
# any product is built, the products' terms and the running counts of the
# powers they use, which do not depend on which powers a ``PowerTable`` kept
# from earlier calls.  Level 38 on {0,1}^3 holds 962 598 and takes about
# 0.7 s and 140 MB to build; level 60 would hold 8 259 888.  No benchmark or
# test basis holds more than 819.
MAX_BASIS_TERMS = 1_000_000

# Terms of the powers g^2, g^3, ... plus entries that one ``PowerTable``
# keeps between calls, so an entry of one term costs two.  The benchmark's
# tables keep at most 12 terms (level 3, g of degree 4).  A full table takes
# ~0.28 MB for {0, ..., 5} over ZZ (g^2 .. g^39, 3 933 terms) and ~0.46 MB
# for g = x (g^2 .. g^2048), measured with tracemalloc.
MAX_KEPT_POWER_TERMS = 4096


def _next_power(ring: Ring, power: tuple, g: tuple) -> tuple:
    """The univariate product of two sparse ``(exponents, coefficients)``
    pairs (further entries of ``power`` are ignored), accumulated in a
    dense list from the sum of their lowest exponents up and pruned of
    zeros, so a power of x^d takes d + 1 slots, not its degree.  Elements
    are Python ints or Fractions, so each slot sums its products as they
    are and goes through ``ring.canon`` once."""
    low = power[0][0] + g[0][0]
    acc = [0] * (power[0][-1] + g[0][-1] + 1 - low)
    shifted = [(b - low, cb) for b, cb in zip(*g)]
    for a, ca in zip(power[0], power[1]):
        for b, cb in shifted:
            acc[a + b] += ca * cb
    canon, zero = ring.canon, ring.zero
    kept = [(e, c) for e, s in enumerate(acc, low) if s and (c := canon(s)) != zero]
    return tuple([e for e, _ in kept]), tuple([c for _, c in kept])


class PowerTable:
    """The powers ``seed * g^e``, e = 0, 1, ..., of a monic univariate g,
    given like the seed as sparse ``(exponents, coefficients)`` pairs; the
    seed defaults to one.  Entry e is ``(exponents, coefficients, count)``,
    count being the running number of terms of the entries ``upto``
    computes: entry 1 onwards with a seed, entry 2 onwards without.  An
    entry's count is the same whether it was kept or computed in this call.

    ``powers`` is a list never changed once stored: ``upto`` extends a copy
    and stores it with one attribute store, so a concurrent reader sees the
    old list or the whole new one.  Only the entries whose count plus
    their number is at most ``MAX_KEPT_POWER_TERMS`` are stored; the rest
    serve one call.
    """

    __slots__ = ("ring", "g", "powers")

    def __init__(self, ring: Ring, g: tuple, seed: tuple | None = None):
        self.ring = ring
        self.g = tuple(g[0]), tuple(g[1])
        if seed is None:
            self.powers = [((0,), (ring.one,), 0), (*self.g, 0)]
        else:
            self.powers = [(tuple(seed[0]), tuple(seed[1]), 0)]

    def upto(self, e: int, limit, row: list = ()) -> list | None:
        """A list holding entries 0..e at least, or None as soon as an entry
        would count more than ``limit`` terms.  It extends the stored list
        or ``row``, whichever is longer: a list this table returned before
        and did not store."""
        stored = self.powers
        if len(row) < len(stored):
            row = stored
        if e < len(row):
            return row
        ring, g = self.ring, self.g
        row = list(row)
        kept = len(stored)  # the entries of a row not stored are past the bound
        while len(row) <= e:
            exps, coeffs = _next_power(ring, row[-1], g)
            count = row[-1][2] + len(exps)
            if count > limit:
                break
            row.append((exps, coeffs, count))
            if count + len(row) <= MAX_KEPT_POWER_TERMS:
                kept = len(row)
        if kept > len(self.powers):
            self.powers = row[:kept]
        return row if e < len(row) else None


def _too_many_power_terms(e: int) -> ScaleExceeded:
    return ScaleExceeded(f"powers up to exponent {e} need over {MAX_BASIS_TERMS} terms")


def _too_many_products(count: int) -> ScaleExceeded:
    if count == 1:
        return ScaleExceeded(f"1 power product needs over {MAX_BASIS_TERMS} terms")
    return ScaleExceeded(f"{count} power products need over {MAX_BASIS_TERMS} terms")


def _power_products(ring: Ring, tables: Sequence[PowerTable], alphas: Sequence) -> list:
    """``prod_k seed_k g_k^(alpha_k)`` for each alpha, from one
    ``PowerTable`` per axis, by ``_product_terms``.  Returns ``(product,
    theta)`` pairs, theta being the product's greatest support point.
    Before any product is built, the tables give each product's exact
    number of terms; ``ScaleExceeded`` is raised as soon as their running
    sum, or the counts of the highest powers used so far on each axis,
    pass ``MAX_BASIS_TERMS``.
    """
    if not tables:
        raise ValueError("need at least one axis polynomial")
    rows = [table.powers for table in tables]
    used = [0] * len(rows)  # per axis, the count of the highest power used so far
    held = terms_out = 0
    chosen = []  # per alpha, its factors' powers, as the count found them
    for alpha in alphas:
        size = 1
        powers = []
        for k, e in enumerate(alpha):
            row = rows[k]
            if e >= len(row):
                row = rows[k] = tables[k].upto(e, MAX_BASIS_TERMS - held + used[k], row)
                if row is None:
                    raise _too_many_power_terms(e)
            power = row[e]
            if power[2] > used[k]:
                held += power[2] - used[k]
                used[k] = power[2]
                if held > MAX_BASIS_TERMS:  # only kept powers reach this
                    raise _too_many_power_terms(e)
            powers.append(power)
            size *= len(power[0])
        terms_out += size
        if terms_out > MAX_BASIS_TERMS:
            raise _too_many_products(len(alphas))
        chosen.append(powers)
    return [(_raw(ring, len(tables), terms), tuple([power[0][-1] for power in powers]))
            for terms, powers in zip(_product_terms(ring, chosen), chosen)]


def _product_terms(ring: Ring, chosen: Sequence[Sequence[tuple]]) -> list:
    """For each entry of ``chosen``, one ``PowerTable`` entry per axis, the
    terms of their product as {exponent: coefficient}, the greatest last.
    Factors in distinct variables never share a term, so a product is the
    Cartesian product of its factors' terms: one ``ring.mul`` per factor
    that is not a lone coefficient one, and zeros (possible in ZZ/m) are
    pruned where a product makes one."""
    zero, mul = ring.zero, ring.mul
    ones = (ring.one,)
    out = []
    for powers in chosen:
        coeffs = ones  # a lone factor that is not one gives its coefficients as they are
        for power in powers:
            if power[1] != ones:
                coeffs = power[1] if coeffs is ones else [
                    mul(c, d) for c in coeffs for d in power[1]]
        terms = dict(zip(product(*[power[0] for power in powers]), coeffs))
        if zero in coeffs:
            terms = {key: c for key, c in terms.items() if c != zero}
        out.append(terms)
    return out


def random_poly(rng, ring: Ring, nvars: int, max_deg=3, max_terms=6, coeff_span=4) -> Poly:
    """A seeded random polynomial: up to ``max_terms`` draws of an exponent
    vector with entries in [0, max_deg] and a coefficient in
    [-coeff_span, coeff_span] (a repeated vector keeps its last draw).

    ``combnull selftest`` and the test suite draw from this and
    ``random_monic``; the order of the draws fixes what a seed produces."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[alpha] = ring.canon(rng.randint(-coeff_span, coeff_span))
    return Poly(ring, nvars, terms)


def random_monic(rng, ring: Ring, nvars: int, max_theta=2, extra_terms=3, coeff_span=3) -> Poly:
    """A seeded random monic polynomial: a witness with entries in
    [0, max_theta] and up to ``extra_terms`` draws below it."""
    theta = tuple(rng.randint(0, max_theta) for _ in range(nvars))
    terms = {theta: ring.one}
    for _ in range(rng.randint(0, extra_terms)):
        alpha = tuple(rng.randint(0, h) for h in theta)
        if alpha != theta:
            terms[alpha] = ring.canon(rng.randint(-coeff_span, coeff_span))
    return Poly(ring, nvars, terms)


# -- text form -----------------------------------------------------------------

_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_poly(f: Poly) -> str:
    """Render in the term grammar, graded-lexicographic descending."""
    if f.is_zero():
        return "0"
    pieces = []
    for alpha in sorted(f.terms, key=grlex_key, reverse=True):
        c = f.terms[alpha]
        mono = "*".join(
            f"x{k + 1}^{e}" if e > 1 else f"x{k + 1}"
            for k, e in enumerate(alpha)
            if e
        )
        negative = c < 0
        mag = -c if negative else c
        if not mono:
            body = str(mag)
        elif mag == f.ring.one:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def parse_poly(text: str, ring: Ring, nvars: int) -> Poly:
    """Parse the term grammar, e.g. ``3*x1^2*x2 - x3 + 1``."""
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial text")
    if s == "0":
        return Poly.zero(ring, nvars)
    if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", s):
        raise ParseError(f"malformed polynomial {text!r}")
    tokens = re.findall(r"[+-]?[^+-]+", s)

    terms: dict = {}
    for token in tokens:
        sgn = 1
        chunk = token
        if chunk[0] in "+-":
            sgn = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = ring.one
        expo = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            m = _TERM_FACTOR.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= nvars:
                    raise ParseError(
                        f"variable x{idx} out of range for {nvars} variables"
                    )
                expo[idx - 1] += int(m.group(2) or 1)
            else:
                coeff = ring.mul(coeff, ring.parse_element(factor))
        if sgn < 0:
            coeff = ring.neg(coeff)
        key = tuple(expo)
        acc = ring.add(terms.get(key, ring.zero), coeff)
        if acc == ring.zero:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return Poly(ring, nvars, terms)
