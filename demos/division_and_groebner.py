"""Dividing by monic families and certifying Groebner bases.

Walks through the division certificate, S-polynomials, the Buchberger
sufficiency check, membership refutation, and the count-based
certification for ideals given by shifted-support conditions.
"""

from combnull import (
    ZZ,
    MonicFamily,
    MultiplicityTable,
    buchberger_certifies,
    certify_groebner,
    groebner_decompose,
    membership_refutation,
    multiplicity_family,
    normal_form,
    parse_poly,
    reduce,
    s_polynomial,
)

P = lambda s, n: parse_poly(s, ZZ, n)

print("== generalized division ==")
f = P("x1^2*x2 + x2", 2)
family = MonicFamily.build([P("x1^2 - 1", 2)])
out = reduce(f, family)
print(f"f        = {f}")
print(f"quotient = {out.quotients[0]}")
print(f"rest     = {out.remainder}")
print(f"checks   = {out.verify()}")

print()
print("== S-polynomials and the Buchberger check ==")
g1, g2 = P("x1^2 - x1", 2), P("x2^2 - x2", 2)
print(f"S(g1, g2) = {s_polynomial(g1, g2)}")
G = MonicFamily.build([g1, g2])
print(f"Buchberger certifies (g1, g2): {buchberger_certifies(G)}")

witness = membership_refutation(P("x1*x2", 2), G)
print(f"x1*x2 is not in the ideal: maximal exponent {witness} dominates no leader")

certified = G.certify()
print(f"normal form of x1^2*x2^2: {normal_form(P('x1^2*x2^2', 2), certified)}")

print()
print("== count-based certification ==")
# first-order vanishing at 0 and 1 on a line, generated by x(x-1)
table = MultiplicityTable(1, ("g",), {(0, 0, "g"): 1, (0, 1, "g"): 1})
family, spec = multiplicity_family(ZZ, [[0, 1]], table)
report = certify_groebner(spec, family)
print(f"grid count {report.grid_count} == leading count {report.leading_count}:"
      f" verdict {report.verdict!r}")

member = parse_poly("x1^3 - x1", ZZ, 1)
decomp = groebner_decompose(member, spec, family)
print(f"{member} = ({decomp.quotients[0]}) * ({family.members[0]})")
