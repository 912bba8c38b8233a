"""Inside the lazy blended pairwise solver.

Classic Frank-Wolfe calls the oracle every iteration and zig-zags near facets.
The blended pairwise variant keeps an active set and prefers transferring
weight from its worst atom to its best one.  It keeps doing so while that
transfer's gap reaches min(phi, g)/K, g the gap of the last Frank-Wolfe step
(never below the stopping accuracy eps^2/2), and consults the oracle only
below it.  Then the oracle answers a weak-separation query: it stops at the
first vertex whose gap reaches phi/K, and hands back up to eight more that
reach it in the same round.  They join the active set at weight 0, so the
transfers that follow can move weight onto them without another oracle call;
one that turns out useless leaves by a drop step.  Only a full search that
finds none halves the progress estimate phi instead of moving: a null step.
Until a step moves the iterate again, the next null step reuses that search's
answer while it still misses the risen threshold, without a new call.  Once as
many transfers as there are atoms follow one another, the next local step is a
face step:
one KKT solve on the atoms' Gram matrix jumps to the minimiser over their
affine hull, dropping atoms whose weight reaches 0 on the way.
"""

import numpy as np

from localpolytope import SolverConfig, bpcg, frank_wolfe_vanilla, singlet_tensor
from localpolytope.fw import InnerProductCache
from localpolytope.polyhedra import (
    antipodal_representatives,
    geodesic_icosahedron,
    rationalize_all,
)
from localpolytope.states import build_quantum_tensor
from localpolytope.tensor import Scenario

reps = antipodal_representatives(rationalize_all(geodesic_icosahedron([]), 1e-6))
vecs = [p.as_tuple() for p in reps]
p = singlet_tensor(vecs, vecs)      # icosahedron singlet, m = 6

# the solver calls its callback at the top of every iteration, and once more
# after a capped run's last step; this one records the objective f
target = 0.60 * p.entries.astype(float)
f_history = []


def record_f(t, last_step, phi, active):
    f_history.append(0.5 * float(np.linalg.norm(active.iterate() - target)) ** 2)


res = bpcg(p, 0.60, SolverConfig(restarts=500, seed=2, callback=record_f))
print(f"bpcg at v0=0.60: {res.status} in {res.iterations} iterations")
print(f"  step mix: {res.stats.steps}")
print(f"  oracle calls: {res.lmo_calls}  active set: {len(res.active_set)} atoms")
print(f"  oracle rounds: {res.stats.oracle_rounds}, "
      f"{res.stats.oracle_early_exits} calls stopped at phi/K, "
      f"{res.stats.extra_atoms} atoms added beside their vertices at weight 0")

# every call after the first answers one fw or null step, except the null
# steps that reuse the answer behind the null step before them; a separated
# run, GHZ on three parties with the same six inputs, ends in a run of them,
# the last one confirmed by the exact oracle
bloch = np.array([[float(c) for c in v] for v in vecs])
ghz = build_quantum_tensor("ghz", [bloch] * 3, Scenario(3, 6, marginals=True))
out = bpcg(ghz, 0.80, SolverConfig(restarts=300, seed=0))
steps = out.stats.steps
reused = 1 + steps["fw"] + steps["null"] - out.lmo_calls
print(f"bpcg on ghz at v0=0.80: {out.status}, {steps['null']} null steps, "
      f"{reused} of them without an oracle call ({out.lmo_calls} calls, "
      f"{out.stats.exact_calls} exact)")

van = frank_wolfe_vanilla(p, 0.60, SolverConfig(restarts=500, seed=2))
print(f"vanilla frank-wolfe: {van.status} with {van.lmo_calls} oracle calls "
      f"(every iteration is an oracle call)")

# linear convergence: log f drops along a straight line once the right face
# is identified
f = np.array(f_history)
f = f[f > 0]
tail = np.log(f[len(f) // 2:])
slope = np.polyfit(np.arange(len(tail)), tail, 1)[0]
print(f"log-objective slope over the last half: {slope:.4f} per iteration")

# The per-atom gradient inner products are maintained incrementally: a step
# changes at most two weights, so the update touches one or two Gram columns
# instead of recomputing <grad, d> for the whole active set.
from localpolytope import CorrelationTensor
from localpolytope.tensor import tensor_strategy_inner

active = res.active_set
cache = InnerProductCache(active, CorrelationTensor(p.scenario, target))  # rebuilt fresh
grad = CorrelationTensor(p.scenario, active.recompute_iterate() - target)
direct = [tensor_strategy_inner(grad, s) for s in active.atoms]
drift = np.abs(cache.values() - direct).max()
print(f"cache vs direct recomputation: max deviation {drift:.2e}")
