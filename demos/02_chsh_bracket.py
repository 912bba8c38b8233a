"""Bracketing the CHSH threshold 1/sqrt(2) from both sides with certificates.

The singlet with the CHSH-optimal measurement pair is local exactly up to
visibility 1/sqrt(2) = 0.70710...; we certify a lower bound at v0 = 0.70 and
an upper bound from a run at v0 = 0.75.
"""

import math
from fractions import Fraction

from localpolytope import (
    SolverConfig,
    TargetSpec,
    assemble_lower,
    assemble_upper,
    bpcg,
    chsh_vectors,
    extract_hyperplane,
    inner,
    integerize_functional,
    local_bound,
    rationalize,
    rationalize_weights,
    singlet_tensor,
    verify,
)

# Rationalize the measurement directions so the whole lower-bound chain stays
# in exact arithmetic (the vectors move by < 1e-6; the threshold barely moves).
alice_f, bob_f = chsh_vectors()
alice = [rationalize(v, 1e-6).as_tuple() for v in alice_f]
bob = [rationalize(v, 1e-6).as_tuple() for v in bob_f]
p = singlet_tensor(alice, bob)
target = TargetSpec("singlet", tuple(alice), tuple(bob))

# --- lower bound: v0 = 0.70 is inside, so the solver converges --------------
v0 = Fraction(70, 100)
res = bpcg(p, v0, SolverConfig(restarts=200, seed=1))
print(f"v0 = 0.70: {res.status}, distance {res.distance:.2e}, "
      f"{len(res.active_set)} atoms, {res.lmo_calls} oracle calls")

model = rationalize_weights(res.active_set, p, v0)
cert = assemble_lower(p.scenario, None, v0, model, target)
print(f"exact residual^2 = {float(model.residual_sq):.3e}")
print(f"nu = {float(cert.nu):.8f}")
print(f"v_low = {float(cert.v_low):.6f}  (scope: {cert.scope})")
print("verify:", verify(cert))

# --- upper bound: v0 = 0.75 is outside; the gradient separates --------------
res = bpcg(p, 0.75, SolverConfig(restarts=200, seed=1))
print(f"\nv0 = 0.75: {res.status}, distance {res.distance:.4f}")

G = extract_hyperplane(res)
M = integerize_functional(G)
print("integer functional:", M.entries.tolist())

lb = local_bound(M)           # exact: Alice's signs enumerated, Bob's in closed form
q = inner(M, p)
cert_up = assemble_upper(M, lb.value, p, target)
print(f"local bound = {lb.value}, quantum value = {float(q):.6f} (~2*sqrt2)")
print(f"v_up = {float(cert_up.v_up):.6f}  vs 1/sqrt(2) = {1/math.sqrt(2):.6f}")
print("verify:", verify(cert_up))
