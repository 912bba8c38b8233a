"""The unit-ball local model: every full-correlation tensor with 2-norm <= 1
admits an explicit convex decomposition over deterministic strategies.

This is what turns a numerically convergent solver run into an exact
certificate: the tiny leftover y = x_T - v0*p (suitably rescaled to unit norm)
is itself local, so nu*v0*p = nu*x_T + (1-nu)*y is exactly local.

With s = sqrt_upper(||r||^2), a rational upper bound on ||r||_2, the model
decomposes r/s with one atom per correlation tensor +-d, d a strategy whose
every first sign is +: weight |<r/s, d>| / 2^(N(m-1)), on d when <r, d> > 0
and on -d (the last party flipped) when it is negative. By Cauchy-Schwarz
these weights sum to at most 1, with equality on standard-basis directions;
any slack goes, half each, on an explicit antipodal strategy pair. Scaling by
s gives weights that sum to s exactly: 1 for every unit-norm input, with the
deficit 1 - s on the zero tensor. Atoms print in lexicographic order of d.
"""

import numpy as np
from fractions import Fraction

from localpolytope import CorrelationTensor, Scenario, ball_decomposition
from localpolytope.certify import CertificateError

sc = Scenario(2, 2, marginals=False)

# the spec'd basis example: e_12 decomposes into four strategies of weight 1/4
e12 = np.full((2, 2), Fraction(0), dtype=object)
e12[0, 1] = Fraction(1)
bd = ball_decomposition(CorrelationTensor(sc, e12))
print("e_12 decomposition:")
for a, w in zip(bd.atoms, bd.weights):
    print(f"  {w}  *  {a.to_string()}")
print("weight sum:", bd.weight_sum(), "(tight: e_12 is on the ball boundary)")

# a random rational tensor of exact unit norm: reconstruction is exact
rng = np.random.default_rng(1)
u = np.array([Fraction(int(rng.integers(-9, 10)), 7) for _ in range(4)], dtype=object)
e = np.array([Fraction(1), Fraction(0), Fraction(0), Fraction(0)], dtype=object)
r = (e - 2 * (u @ e) / (u @ u) * u).reshape(2, 2)   # Householder: exactly unit norm
t = CorrelationTensor(sc, r)
bd = ball_decomposition(t)
rec = bd.reconstruct()
print("\nrandom unit tensor:", [str(x) for x in r.reshape(-1)])
print("atoms:", len(bd.atoms), " weight sum:", bd.weight_sum())
print("exact reconstruction:",
      all(a == b for a, b in zip(rec.entries.reshape(-1), r.reshape(-1))))

# interior points leave slack for the zero tensor
half = CorrelationTensor(sc, e12 * Fraction(1, 2))
bd = ball_decomposition(half)
print("\n(1/2) e_12: weight sum", bd.weight_sum(), " deficit", bd.deficit,
      "(carried by the zero tensor, the uniform strategy mixture)")

# Domain of validity. With marginal coordinates present the unit ball is NOT
# inside the local polytope: <a1> + <b1> - <a1b1> <= 1 holds for every
# strategy, but the unit tensor (1,1,-1)/sqrt(3) on those coordinates scores
# sqrt(3). The decomposition therefore refuses tensors with nonvanishing
# lower-order correlators.
scm = Scenario(2, 2, marginals=True)
bad = np.full(scm.shape, Fraction(0), dtype=object)
bad[0, 0] = Fraction(1)
bad[1, 0] = Fraction(1, 2)     # a marginal <a_1>
try:
    ball_decomposition(CorrelationTensor(scm, bad))
except CertificateError as exc:
    print("\nmarginal input refused:", exc)

# Multipartite tensors whose lower-order correlators all vanish (GHZ with
# XY-polygon measurements) are fine: the model is symmetrised over even party
# flips, which cancels the marginal content of the atoms exactly.
sc3 = Scenario(3, 2, marginals=True)
ok = np.full(sc3.shape, Fraction(0), dtype=object)
ok[0, 0, 0] = Fraction(1)
ok[1, 1, 1] = Fraction(3, 5)
ok[2, 2, 2] = Fraction(-4, 5)
bd = ball_decomposition(CorrelationTensor(sc3, ok))
rec = bd.reconstruct()
print("\ntripartite full-correlation input: atoms", len(bd.atoms),
      " exact:", all(a == b for a, b in zip(rec.entries.reshape(-1), ok.reshape(-1))))
