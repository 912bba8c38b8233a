"""Shared helpers for the test suite."""

import math
import string
import warnings

import numpy as np
from fractions import Fraction

from localpolytope.certify import TargetSpec, assemble_upper
from localpolytope.lmo import BellFunctional
from localpolytope.polyhedra import (
    Face,
    RationalPolyhedron,
    _exact_hull_faces,
    _homogeneous,
    close_under_antipodes,
)
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


_AXES = string.ascii_letters.replace("r", "")  # party subscripts; r is the batch


def chsh_corner_cert(sc, corner, ell):
    """Upper certificate claiming the local bound ell for a bipartite
    functional that is ``corner`` on the first 2x2 inputs and 0 elsewhere,
    against the target 7/10 CHSH there."""
    M = np.zeros(sc.shape, dtype=object)
    M[:2, :2] = corner
    p = np.zeros(sc.shape, dtype=object)
    p[:2, :2] = [[Fraction(7, 10), Fraction(7, 10)], [Fraction(7, 10), Fraction(-7, 10)]]
    p = CorrelationTensor(sc, p)
    return assemble_upper(BellFunctional(CorrelationTensor(sc, M)), ell, p,
                          TargetSpec("tensor", tensor=p))


def contract_reference(G, signs, marginals, free=None):
    """G contracted with every party's (m, R) signs but ``free``'s, batched
    over R, by one einsum; the reference for tensor._contract.

    Returns the free party's (axis, R) coefficients, or the (R,) values
    <G, d_r> when no party is free.
    """
    parties = [j for j in range(G.ndim) if j != free]
    if not parties:
        return np.repeat(G[:, None], signs[free].shape[1], axis=1)
    spec = _AXES[: G.ndim] + "," + ",".join(_AXES[j] + "r" for j in parties)
    out = "r" if free is None else _AXES[free] + "r"
    ops = [
        np.vstack([np.ones((1, signs[j].shape[1]), signs[j].dtype), signs[j]])
        if marginals
        else signs[j]
        for j in parties
    ]
    return np.einsum(spec + "->" + out, G, *ops)


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


def faces_and_eta_reference(vertices):
    """faces_and_eta with every plane rebuilt, oriented and audited in
    Fractions; the reference for the integer planes.

    Only the face triples come from the integer hull.  Each plane is oriented
    away from the centroid of the vertices, which lies strictly inside.
    """
    if len(vertices) < 4:
        raise ValueError("need at least 4 vertices")
    points, added = close_under_antipodes(list(vertices))
    if added:
        warnings.warn(f"input not closed under antipodes; added {added} points")
    uniq = {}
    for p in points:
        uniq.setdefault(p.as_tuple(), p)
    points = list(uniq.values())

    face_idx = _exact_hull_faces([_homogeneous(p) for p in points])
    interior = [sum(p.as_tuple()[k] for p in points) / len(points) for k in range(3)]

    faces = []
    eta_sq = None
    for (a, b, c) in face_idx:
        pa, pb, pc = points[a], points[b], points[c]
        ux, uy, uz = pb.x - pa.x, pb.y - pa.y, pb.z - pa.z
        vx, vy, vz = pc.x - pa.x, pc.y - pa.y, pc.z - pa.z
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        off = nx * pa.x + ny * pa.y + nz * pa.z
        # orient outward: the interior reference lies strictly below the plane
        if nx * interior[0] + ny * interior[1] + nz * interior[2] > off:
            nx, ny, nz, off = -nx, -ny, -nz, -off
        if off <= 0:
            raise ValueError("hull does not contain the sphere center")
        beta_sq = off * off / (nx * nx + ny * ny + nz * nz)
        fl = np.array([float(nx), float(ny), float(nz)])
        fl /= np.linalg.norm(fl)
        faces.append(
            Face(
                normal=fl,
                beta=math.sqrt(float(beta_sq)),
                beta_sq=beta_sq,
                vertices=(a, b, c),
                normal_exact=(nx, ny, nz),
                offset_exact=off,
            )
        )
        if eta_sq is None or beta_sq < eta_sq:
            eta_sq = beta_sq

    # soundness audit: every vertex satisfies every face inequality exactly
    for f in faces:
        nx, ny, nz = f.normal_exact
        for p in points:
            if nx * p.x + ny * p.y + nz * p.z > f.offset_exact:
                raise AssertionError("hull construction produced a violated face")

    return RationalPolyhedron(tuple(points), tuple(faces), eta_sq)
