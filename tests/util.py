"""Shared helpers for the test suite."""

import math
import random
import string
import warnings

import numpy as np
from fractions import Fraction

from localpolytope.certify import TargetSpec, _even_flip_orbit, assemble_upper, sqrt_upper
from localpolytope.fw import SolverConfig
from localpolytope.lmo import HEURISTIC_ROUNDS
from localpolytope.polyhedra import (
    Face,
    RationalPolyhedron,
    _exact_hull_faces,
    _height,
    _homogeneous,
    _normal,
    _plane,
    close_under_antipodes,
)
from localpolytope.tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    common_denominator,
    inner,
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
    return assemble_upper(CorrelationTensor(sc, M), ell, p,
                          TargetSpec("tensor", tensor=p))


def contract_reference(G, signs, marginals, free=None):
    """G contracted with every party's (m, R) signs but ``free``'s, batched
    over R, by one einsum; the reference for tensor._contract_unfolded and
    tensor.rows_inner.

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


def heuristic_reference(tensor, restarts, seed):
    """maximize_functional_heuristic as it ran before the Khatri-Rao kernel;
    the reference for the heuristic oracle.

    Party n's (m, R) start signs are bits n*m*R to (n+1)*m*R - 1 of one
    ``random.Random(seed).getrandbits(N*m*R)`` draw, row by row, read one bit
    at a time (bit 1 -> +1), and each round contracts the other parties one
    at a time: a matrix product for the first, then products batched over the
    restarts.
    """
    sc = tensor.scenario
    N, m = sc.parties, sc.inputs
    G = tensor.to_float().entries
    off = 1 if sc.marginals else 0

    def contract(free):
        order = [j for j in range(N) if j != free]
        if not order:
            return G[:, None]
        Gm = np.moveaxis(G, free, -1)
        a = Gm.shape[0]
        T = signs[order[0]].T @ Gm.reshape(a, -1)
        for j in order[1:]:
            T = np.matmul(signs[j].T[:, None, :], T.reshape(len(T), a, -1))[:, 0]
        return T.T

    draw = random.Random(seed).getrandbits(N * m * restarts)
    signs = []
    for n in range(N):
        s = np.array([[1.0 if draw >> ((n * m + i) * restarts + r) & 1 else -1.0
                       for r in range(restarts)] for i in range(m)])
        signs.append(np.vstack([np.ones((1, restarts)), s]) if off else s)
    prev = np.full(restarts, -np.inf)
    for _ in range(HEURISTIC_ROUNDS):
        for n in range(N):
            C = contract(n)
            signs[n][off:] = np.where(C[off:] >= 0, 1.0, -1.0)
        vals = (C * signs[N - 1]).sum(axis=0)
        if np.all(vals <= prev + 1e-12):
            break
        prev = vals
    i = int(np.argmax(prev))
    strategy = DeterministicStrategy.from_signs(
        [list(signs[n][off:, i].astype(int)) for n in range(N)]
    )
    root = float(G[(0,) * N]) if sc.marginals else 0.0
    return strategy, prev[i] - root


class Recorder:
    """A solver callback that rebuilds the run's histories from the hook and
    asserts the per-step invariants after every step: f non-increasing
    within 1e-12, |sum w - 1| <= 1e-9 and min w >= -1e-15.

    ``f_history[t]`` is f(x_t) = ||x_t - v0 p||^2 / 2 at the top of iteration
    t, ``phi_history[t]`` the Phi (or, for vanilla, the last Frank-Wolfe gap)
    the iteration saw, and ``step_types[t]`` the step it took.  A run that
    ends at the iteration cap gets one more f and Phi, after its last step.
    """

    def __init__(self, p, v0):
        sc = p.scenario
        self.target = float(v0) * p.to_float().entries
        if sc.marginals:
            self.target[(0,) * sc.parties] = 1.0  # the root, as the solver sets it
        self.f_history, self.phi_history, self.step_types = [], [], []

    def __call__(self, t, last_step, phi, active):
        assert t == len(self.f_history) and (last_step is None) == (t == 0)
        f = 0.5 * float(np.linalg.norm(active.iterate() - self.target)) ** 2
        if last_step is not None:
            self.step_types.append(last_step)
            assert f <= self.f_history[-1] + 1e-12, f"objective increased on {last_step} step"
            assert abs(active.weights.sum() - 1) <= 1e-9, "weights do not sum to 1"
            assert active.weights.min() >= -1e-15, "negative weight"
        self.f_history.append(f)
        self.phi_history.append(phi)


def recorded(solver, p, v0, **settings):
    """``solver(p, v0)`` under a Recorder, with SolverConfig ``settings``;
    returns the result and the recorder."""
    rec = Recorder(p, v0)
    return solver(p, v0, SolverConfig(callback=rec, **settings)), rec


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
    r = CorrelationTensor(sc, x - Fraction(v0) * p.entries)
    return inner(r, r)


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


def exact_hull_reference(hpts):
    """polyhedra._exact_hull_faces with every orientation test in Python ints,
    as it ran before the float filter; the reference for the filtered hull."""
    n = len(hpts)
    i0 = 0
    i1 = next(i for i in range(1, n) if hpts[i] != hpts[i0])
    i2 = next(
        (i for i in range(n) if _normal(hpts[i0], hpts[i1], hpts[i]) != (0, 0, 0)), None
    )
    if i2 is None:
        raise ValueError("degenerate input: all points collinear")
    base = _plane(hpts[i0], hpts[i1], hpts[i2])
    i3 = next((i for i in range(n) if _height(base, hpts[i]) != 0), None)
    if i3 is None:
        raise ValueError("degenerate input: all points coplanar")
    seed = (i0, i1, i2, i3)

    # interior reference point: centroid of the initial tetrahedron
    xyz, den = common_denominator(
        sum(Fraction(hpts[i][k], 4 * hpts[i][3]) for i in seed) for k in range(3))
    interior = (*xyz, den)

    faces = {}

    def add(a, b, c):
        plane = _plane(hpts[a], hpts[b], hpts[c])
        if _height(plane, interior) > 0:
            (nx, ny, nz), off, d = plane
            a, b, plane = b, a, ((-nx, -ny, -nz), -off, d)
        faces[(a, b, c)] = plane

    add(i0, i1, i2)
    add(i0, i1, i3)
    add(i0, i2, i3)
    add(i1, i2, i3)

    for i, p in enumerate(hpts):
        if i in seed:
            continue
        visible = [f for f, plane in faces.items() if _height(plane, p) > 0]
        if not visible:
            continue
        edge_count = {}
        for f in visible:
            for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                key = (min(e), max(e))
                edge_count[key] = edge_count.get(key, 0) + 1
            del faces[f]
        for (u, v), cnt in edge_count.items():
            if cnt == 1:
                add(u, v, i)
    return faces


def ball_reference(r):
    """({atom: weight}, deficit) of ball_decomposition by a loop over every
    sign assignment; the reference for certify.ball_decomposition.

    Each of the 2^(Nm-1) sign assignments whose first signs multiply to +1
    gets |<r, d_a>| / 2^(Nm-1), sign folded into the first party; the
    2^(N-1) copies of every tensor class are merged by canonical form, and
    the slack up to sqrt_upper(||r||^2) goes half each on d and -d.  With
    marginal slots the full-correlation core is decomposed and every atom
    spread over its even-flip orbit.
    """
    sc = r.scenario
    N, m = sc.parties, sc.inputs
    nsq = inner(r, r)
    if sc.marginals:
        core = CorrelationTensor(Scenario(N, m, marginals=False),
                                 r.entries[(slice(1, None),) * N])
        base, deficit = ball_reference(core)
        split = Fraction(1, 1 << (N - 1))
        return {v: w * split for a, w in base.items() for v in _even_flip_orbit(a, N)}, deficit

    denom = 1 << (N * m - 1)
    mask = (1 << m) - 1
    merged = {}
    for g in range(1 << (N * m)):
        chunks = [(g >> (n * m)) & mask for n in range(N)]
        if sum(c & 1 for c in chunks) % 2:
            continue
        a = DeterministicStrategy(chunks, m)
        w = tensor_strategy_inner(r, a)
        if w == 0:
            continue
        atom = (a if w > 0 else a.flip_parties([0])).canonical(sc)
        merged[atom] = merged.get(atom, 0) + Fraction(abs(w), denom)
    s = sqrt_upper(nsq)
    total = sum(merged.values(), Fraction(0))
    if total < s:
        d = DeterministicStrategy([0] * N, m)
        for atom in (d, d.flip_parties([0])):
            atom = atom.canonical(sc)
            merged[atom] = merged.get(atom, 0) + (s - total) / 2
    return merged, 1 - s


def singlet_reference(alice, bob):
    """-a_x . b_y entry by entry in exact arithmetic; the reference for the
    exact branch of states.singlet_tensor."""
    ent = np.empty((len(alice), len(bob)), dtype=object)
    for x, a in enumerate(alice):
        for y, b in enumerate(bob):
            ent[x, y] = -(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    return ent
