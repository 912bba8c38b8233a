"""Recovering the Mermin inequality from a tripartite GHZ run.

Three parties measure X or Y (the m=2 polygon in the XY plane) on the GHZ
state. Every marginal and two-body correlator vanishes, so the correlations
live in the 8-dimensional full-correlation space; the tensor entries are the
exact integers cos((x1+x2+x3-3)pi/2) in {0, +-1}.

At v0 = 0.55 the scaled tensor is nonlocal; the solver's gradient, rounded to
integers, is exactly the Mermin functional with local bound 2 and quantum
value 4, giving the exact threshold 1/2 for these measurements.
"""

from localpolytope import (
    SolverConfig,
    TargetSpec,
    assemble_upper,
    bpcg,
    derived_bounds,
    extract_hyperplane,
    ghz_polygon_tensor,
    inner,
    integerize_functional,
    local_bound,
    verify,
)

p = ghz_polygon_tensor(3, 2)
print("correlation tensor (inputs 1=X, 2=Y):")
for x1 in range(2):
    for x2 in range(2):
        row = [p.entries[x1, x2, x3] for x3 in range(2)]
        print(f"  x1={x1+1} x2={x2+1}:", row)

res = bpcg(p, 0.55, SolverConfig(restarts=300, seed=4))
print(f"\nv0 = 0.55: {res.status}, distance {res.distance:.4f}")

M = integerize_functional(extract_hyperplane(res))
print("integerized hyperplane:", M.entries.reshape(-1).tolist())
print("(+XXX -XYY -YXY -YYX: the Mermin functional)")

lb = local_bound(M)    # enumerates two parties' signs, the third in closed form
q = inner(M, p)
cert = assemble_upper(M, lb.value, p, TargetSpec("ghz-polygon"))
print(f"\nlocal bound = {lb.value} (maximizer {lb.strategy.to_string()})")
print(f"quantum value = {q}")
print(f"v_up = {cert.v_up} exactly")
print("verify:", verify(cert))

values, lines = derived_bounds(cert)
for ln in lines:
    print(ln)
