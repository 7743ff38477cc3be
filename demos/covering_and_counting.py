"""Staircase counts, hyperplane covering, blocking sets, and the
nonzero-count bound."""

from combnull import (
    ZZ,
    CoverInstance,
    MultisetGrid,
    PuncturedGrid,
    affine_blocking_bound,
    blocking_audit,
    covering_audit,
    minimal_blocking_size,
    nonzero_bound,
    parse_poly,
    punctured_staircase_count,
    staircase_count,
)

print("== staircase complement counts ==")
print(f"alpha=(2,3), t=2: {staircase_count((2, 3), 2)} lattice points")
print(f"punctured, gamma=(1,2): {punctured_staircase_count((2, 2), (1, 2), 2)}")

print()
print("== covering the punctured grid {0,1}^2 \\ origin ==")
grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
pg = PuncturedGrid.build(grid, [[0], [0]])
planes = [
    (parse_poly("x1 - 1", ZZ, 2), 1),
    (parse_poly("x2 - 1", ZZ, 2), 1),
]
report = covering_audit(CoverInstance(pg, planes, 1))
print(f"verdict: {report.verdict}")
print(f"sum of degrees {report.sum_degrees} >= product degree "
      f"{report.product_degree} >= {max(report.bounds)}")

print()
print("== affine blocking sets ==")
for q in (2, 3):
    bound = affine_blocking_bound(q, 2, 1)
    size, example = minimal_blocking_size(q, 2, 1)
    print(f"AG(2,{q}): bound {bound}, minimal blocking set size {size}, e.g. {example}")
audit = blocking_audit(2, 2, 1, [(0, 1), (1, 0), (1, 1)])
print(f"audit of the size-3 example in AG(2,2): blocked = {audit.blocked}")

print()
print("== nonzero-count lower bound ==")
f = parse_poly("x1^2 - x1", ZZ, 2)
rep = nonzero_bound(f, [[0, 1, 2], [0, 1, 2]], (2, 0))
print(f"{f} on {{0,1,2}}^2 with cap (2,0): "
      f"bound {rep.bound} (mu = {rep.mu}), actual {rep.actual}")
