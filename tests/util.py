"""Shared helpers for the test suite."""

import numpy as np
from fractions import Fraction

from localpolytope.tensor import (
    CorrelationTensor,
    norm2_sq,
    strategy_tensor,
    tensor_strategy_inner,
)


def unit_rational_tensor(scenario, rng):
    """Random rational tensor with exact unit 2-norm.

    A Householder reflection of a standard basis vector by a random rational
    vector is rational and norm-preserving, so the result lies exactly on the
    unit sphere of the correlation space.
    """
    D = scenario.dimension
    u = np.array(
        [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 21))) for _ in range(D)],
        dtype=object,
    )
    if not u.any():
        u[0] = Fraction(1)
    e = np.array([Fraction(0)] * D, dtype=object)
    e[int(rng.integers(0, D))] = Fraction(1)
    r = e - 2 * (u @ e) / (u @ u) * u
    assert r @ r == 1
    return CorrelationTensor(scenario, r.reshape(scenario.shape))


def recomputed_values(active, gradient_entries):
    """<grad, d_lambda> for every active atom, computed directly; the reference
    for the incrementally maintained InnerProductCache.values()."""
    g = CorrelationTensor(active.scenario, gradient_entries)
    return np.array([tensor_strategy_inner(g, s) for s in active.atoms])


def residual_sq_reference(atoms, weights, p, v0):
    """||sum_i w_i d_i - v0 p||^2 by one Fraction tensor per atom; the reference
    for certify._exact_residual_sq."""
    sc = p.scenario
    x = np.full(sc.shape, Fraction(0), dtype=object)
    for q, a in zip(weights, atoms):
        x = x + q * strategy_tensor(a, sc, exact=True).entries
    return norm2_sq(CorrelationTensor(sc, x - Fraction(v0) * p.entries))
