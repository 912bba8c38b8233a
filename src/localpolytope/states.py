"""Built-in states and measurement families used throughout the pipeline.

Covers the two-qubit singlet (the Werner family is its visibility scaling),
GHZ_N and W_3, plus the measurement layouts that come up in practice: the
CHSH-optimal pair, regular polygons in the XY plane, and shared Bloch-vector
lists coming from a polyhedron on the sphere.
"""

import numpy as np
from fractions import Fraction

from .tensor import CorrelationTensor, Scenario, common_denominator, quantum_tensor


def singlet_state():
    """(|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return v


def ghz_state(parties=3):
    v = np.zeros(2**parties, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def w_state():
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1 / np.sqrt(3)
    return v


def chsh_vectors():
    """Bloch vectors maximising CHSH on the singlet: (Alice, Bob) with m=2."""
    s = 1 / np.sqrt(2)
    alice = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    bob = np.array([[s, 0.0, s], [s, 0.0, -s]])
    return alice, bob


def polygon_vectors(m):
    """Regular m-gon in the XY plane: input x has angle (x-1)*pi/m."""
    ang = (np.arange(m)) * np.pi / m
    return np.column_stack([np.cos(ang), np.sin(ang), np.zeros(m)])


def singlet_tensor(alice, bob, scenario=None):
    """Singlet correlations: entry (x, y) is -a_x . b_y.

    Accepts float arrays or lists of exact rational triples; rational input
    yields an exact tensor.  Marginals of the singlet vanish, so the scenario
    defaults to the m x m correlation matrix without marginal slots.
    """
    exact = all(isinstance(c, (Fraction, int)) for v in (*alice, *bob) for c in v)
    m = len(alice)
    if scenario is None:
        scenario = Scenario(2, m, marginals=False)
    if scenario != Scenario(2, m, marginals=False):
        raise ValueError("singlet tensors live in the bipartite no-marginal scenario")
    if exact:
        A, da = zip(*map(common_denominator, alice))
        B, db = zip(*map(common_denominator, bob))
        num = -(np.array(A, dtype=object) @ np.array(B, dtype=object).T)
        ent = np.frompyfunc(Fraction, 2, 1)(num, np.outer(np.array(da, object), db))
    else:
        ent = -np.asarray(alice, dtype=float) @ np.asarray(bob, dtype=float).T
    return CorrelationTensor(scenario, ent)


def ghz_polygon_tensor(parties, m):
    """GHZ_N with XY-plane polygon inputs: entry cos((x_1+...+x_N - N) pi / m).

    Every marginal and partial correlator vanishes for these measurements, so
    the tensor lives in the full-correlation scenario.  For m <= 3 the cosines
    are rational and the tensor is exact; otherwise it is float.
    """
    sc = Scenario(parties, m, marginals=False)
    grids = np.meshgrid(*[np.arange(1, m + 1)] * parties, indexing="ij")
    total = sum(grids) - parties
    if m <= 3:
        # cos(k pi / m) is 0, +-1/2 or +-1 here, and its float lies within 1e-15 of it
        ent = np.frompyfunc(lambda k: Fraction(round(2 * np.cos(k * np.pi / m)), 2), 1, 1)(total)
    else:
        ent = np.cos(total * np.pi / m)
    return CorrelationTensor(sc, ent)


def build_quantum_tensor(state_name, bloch_per_party, scenario):
    """Born-rule tensor of GHZ_N ("ghz") or W_3 ("w"); see singlet_tensor for the singlet."""
    if state_name == "ghz":
        st = ghz_state(scenario.parties)
    elif state_name == "w":
        st = w_state()
    else:
        raise ValueError(f"unknown state {state_name!r}")
    return quantum_tensor(st, bloch_per_party, scenario)
