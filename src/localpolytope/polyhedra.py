"""Symmetric polyhedra on the unit sphere with exact-rational vertices.

The pipeline needs antipode-closed vertex sets whose inscribed-sphere radius
(the shrinking factor eta) is certified.  Floating-point seed polyhedra come
from geodesic subdivision of the icosahedron; each vertex is then snapped to a
nearby rational point that lies exactly on the sphere via the half-angle
tangent parametrisation

    (x, y, z) = (2t/(1+t^2) * (1-u^2)/(1+u^2),
                 2t/(1+t^2) * 2u/(1+u^2),
                 (1-t^2)/(1+t^2)),   t = tan(phi/2), u = tan(theta/2),

which maps rational (t, u) to rational points with x^2+y^2+z^2 = 1 exactly.
The convex hull runs on one exact representation throughout: homogeneous
integer points (X, Y, Z, D) for (X/D, Y/D, Z/D).  Each face is an integer
plane n . x = off / d, and beta_f^2 = off^2 / (d^2 |n|^2) follows in Python
ints, so eta^2 = min_f beta_f^2 comes out as an exact rational.  The
orientation tests and the soundness audit decide each sign in float64 when
it clears a proven error bound and in Python ints otherwise (see FILTER).
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import common_denominator, format_row, parse_exact

_PHI = (1 + math.sqrt(5)) / 2
MERGE_TOL = 1e-9  # float vertices closer than this in every coordinate merge

ICOSAHEDRON_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosahedron():
    """The 12 unit vertices and 20 faces of a regular icosahedron."""
    t = _PHI
    raw = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = np.asarray(raw, dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts, list(ICOSAHEDRON_FACES)


def octahedron():
    """The 6 unit vertices +-e_k of a regular octahedron."""
    return np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                    dtype=float)


def dodecahedron():
    """20 unit vertices (no face list needed here)."""
    p = _PHI
    raw = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    for a in (-1 / p, 1 / p):
        for b in (-p, p):
            raw += [(0, a, b), (a, b, 0), (b, 0, a)]
    verts = np.asarray(raw, dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts


def pentakis_dodecahedron():
    """32 unit vertices: the dodecahedron plus its projected face centers.

    The centers sit along (+-1, +-1/phi, 0) and cyclic shifts, the dual
    icosahedron orientation for the dodecahedron coordinates used here.
    """
    p = _PHI
    apex = []
    for a in (-1.0, 1.0):
        for b in (-1 / p, 1 / p):
            apex += [(a, b, 0), (0, a, b), (b, 0, a)]
    apex = np.asarray(apex, dtype=float)
    apex /= np.linalg.norm(apex, axis=1, keepdims=True)
    return np.vstack([dodecahedron(), apex])


def _merge_key(p):
    return tuple(np.round(np.asarray(p) / MERGE_TOL).astype(np.int64))


def subdivide_projected(verts, faces, k):
    """Split each triangle edge k-fold and project all vertices onto the sphere."""
    verts = [np.asarray(v, dtype=float) for v in verts]
    index = {_merge_key(v): i for i, v in enumerate(verts)}
    new_faces = []
    for (ai, bi, ci) in faces:
        a, b, c = verts[ai], verts[bi], verts[ci]
        grid = {}
        for i in range(k + 1):
            for j in range(k + 1 - i):
                p = (i * a + j * b + (k - i - j) * c) / k
                p = p / np.linalg.norm(p)
                key = _merge_key(p)
                if key not in index:
                    index[key] = len(verts)
                    verts.append(p)
                grid[(i, j)] = index[key]
        for i in range(k):
            for j in range(k - i):
                new_faces.append((grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]))
                if i + j < k - 1:
                    new_faces.append(
                        (grid[(i + 1, j)], grid[(i + 1, j + 1)], grid[(i, j + 1)])
                    )
    return verts, new_faces


def geodesic_icosahedron(subdivision_schedule=()):
    """Vertices of repeated k-fold subdivide-and-project of the icosahedron.

    An empty schedule returns the plain icosahedron; [3] gives 92 vertices,
    [3, 3] gives 812.
    """
    verts, faces = icosahedron()
    verts = list(verts)
    for k in subdivision_schedule:
        if k < 1:
            raise ValueError("subdivision factors must be >= 1")
        verts, faces = subdivide_projected(verts, faces, k)
    return [np.asarray(v) for v in verts]


# --- rational points on the sphere ----------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        if self.x * self.x + self.y * self.y + self.z * self.z != 1:
            raise ValueError("point is not exactly on the unit sphere")

    def __neg__(self):
        return RationalPoint(-self.x, -self.y, -self.z)

    def as_tuple(self):
        return (self.x, self.y, self.z)

    def to_float(self):
        return np.array([float(self.x), float(self.y), float(self.z)])


def _point_from_tangents(t, u):
    """Rational sphere point from half-angle tangents (u=None means theta=pi)."""
    st = 2 * t / (1 + t * t)          # sin(phi)
    ct = (1 - t * t) / (1 + t * t)    # cos(phi)
    if u is None:
        cu, su = Fraction(-1), Fraction(0)
    else:
        cu = (1 - u * u) / (1 + u * u)
        su = 2 * u / (1 + u * u)
    return RationalPoint(st * cu, st * su, ct)


def rationalize(p, tol=1e-6):
    """Nearest-enough rational point exactly on the unit sphere.

    The spherical angles of ``p`` are converted to half-angle tangents, those
    are replaced by continued-fraction convergents with the smallest
    denominator meeting ``tol``, and the rational parametrisation is applied.
    The distance check |p - q| <= tol is performed in exact arithmetic.
    """
    p = np.asarray(p, dtype=float)
    n = np.linalg.norm(p)
    if abs(n - 1) > 1e-9:
        raise ValueError("input point must be on the unit sphere within 1e-9")
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = p / n
    x, y, z = p
    target = (Fraction(p[0]), Fraction(p[1]), Fraction(p[2]))
    tol_sq = Fraction(tol) ** 2

    sin_phi = math.hypot(x, y)
    if sin_phi == 0.0:
        return RationalPoint(Fraction(0), Fraction(0), Fraction(1 if z > 0 else -1))
    phi = math.atan2(sin_phi, z)
    theta = math.atan2(y, x)
    t_exact = math.tan(phi / 2)
    u_exact = None if abs(theta - math.pi) < 1e-15 else math.tan(theta / 2)

    cap = 4
    while True:
        t = Fraction(t_exact).limit_denominator(cap)
        u = None if u_exact is None else Fraction(u_exact).limit_denominator(cap)
        q = _point_from_tangents(t, u)
        d2 = sum((a - b) ** 2 for a, b in zip(q.as_tuple(), target))
        if d2 <= tol_sq:
            return q
        if cap > 2**80:
            raise ValueError(f"rational approximation did not converge to tol = {tol!r}")
        cap *= 8


# --- exact convex hull -----------------------------------------------------


def _homogeneous(pt):
    """(x, y, z, d) integers with d > 0 representing (x/d, y/d, z/d)."""
    (x, y, z), d = common_denominator(pt.as_tuple())
    return x, y, z, d


def _normal(p, q, r):
    """(q - p) x (r - p) for homogeneous integer points, times p_D^2 q_D r_D > 0."""
    px, py, pz, pd = p
    ax, ay, az = q[0] * pd - px * q[3], q[1] * pd - py * q[3], q[2] * pd - pz * q[3]
    bx, by, bz = r[0] * pd - px * r[3], r[1] * pd - py * r[3], r[2] * pd - pz * r[3]
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _plane(p, q, r):
    """Integer plane (n, off, d) through p, q, r: the points x with n . x = off / d."""
    n = _normal(p, q, r)
    return n, n[0] * p[0] + n[1] * p[1] + n[2] * p[2], p[3]


def _height(plane, s):
    """An integer with the sign of n . s - off / d: positive when s lies above.

    For the plane through p, q, r this is the sign of det[q-p; r-p; s-p].
    """
    (nx, ny, nz), off, d = plane
    return (nx * s[0] + ny * s[1] + nz * s[2]) * d - off * s[3]


# Float filter of the orientation tests.  A plane (n, off, d) gets the row
# r = (n / B, -off / (d B)), B = max |n_k|, and a point (X, Y, Z, D) the row
# q = (X / D, Y / D, Z / D, 1): int / int true divisions, correctly rounded at
# any size.  Exactly, <r, q> = _height / (d D B), of the sign of _height.  For
# points in the closed unit ball, |off / d| = |n . p| <= sqrt(3) B with p on
# the plane, so sum_k |r_k q_k| <= 2 sqrt(3).  Rounding each entry (u = 2^-53)
# and the 4-term dot product in any order, with or without FMA, moves each
# term by a factor within gamma_6 = 6u / (1 - 6u) (Higham, Accuracy and
# Stability of Numerical Algorithms, sec. 3.1): the float value is within
# 21 u of <r, q>, underflow adding under 2^-1070, so under 40 u.  A float
# height beyond +-FILTER thus has the sign of _height; only the band calls it.
FILTER = 2.0**-40


def _plane_row(plane):
    (nx, ny, nz), off, d = plane
    big = max(abs(nx), abs(ny), abs(nz))  # int / int cannot overflow a float
    return nx / big, ny / big, nz / big, -off / (d * big)


def _point_row(s):
    return s[0] / s[3], s[1] / s[3], s[2] / s[3], 1.0


@dataclass(frozen=True)
class Face:
    """Supporting plane <a_f, r> <= beta_f of one hull facet."""

    normal: np.ndarray          # unit outward normal, float
    beta: float                 # distance of the plane from the origin
    beta_sq: Fraction           # exact beta^2
    vertices: tuple             # indices of the three defining vertices
    normal_exact: tuple         # exact (unnormalised) integer outward normal
    offset_exact: Fraction      # exact <normal_exact, vertex>


@dataclass(frozen=True)
class RationalPolyhedron:
    vertices: tuple             # RationalPoint, closed under antipodes
    faces: tuple
    eta_sq: Fraction

    @property
    def eta(self):
        return math.sqrt(float(self.eta_sq))

    def vertex_array(self):
        return np.array([v.to_float() for v in self.vertices])


def _exact_hull_faces(hpts):
    """Triangulated convex hull of distinct homogeneous integer points in the
    closed unit ball.

    Incremental insertion with exact predicates behind the float filter.
    Returns a dict from index triples to integer planes (see ``_plane``),
    each stored with the hull's interior strictly below it.  Points exactly
    on a supporting plane are treated as non-extreme, which never changes the
    face planes.  Every face made keeps its float row in an append-only
    buffer; the dead ones, no longer in the dict, are skipped.
    """
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
    ci = _point_row(interior)

    faces = {}
    keys, rows = [], np.empty((64, 4))  # every face made, and its float row

    def add(a, b, c):
        nonlocal rows
        plane = _plane(hpts[a], hpts[b], hpts[c])
        r = _plane_row(plane)
        h = r[0] * ci[0] + r[1] * ci[1] + r[2] * ci[2] + r[3]
        if h > FILTER or (h >= -FILTER and _height(plane, interior) > 0):
            (nx, ny, nz), off, d = plane
            a, b, plane, r = b, a, ((-nx, -ny, -nz), -off, d), [-x for x in r]
        faces[(a, b, c)] = plane
        if len(keys) == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[len(keys)] = r
        keys.append((a, b, c))

    add(i0, i1, i2)
    add(i0, i1, i3)
    add(i0, i2, i3)
    add(i1, i2, i3)

    prow = np.array([_point_row(p) for p in hpts])
    for i, p in enumerate(hpts):
        if i in seed:
            continue
        h = rows[: len(keys)] @ prow[i]
        visible = [f for j in np.flatnonzero(h >= -FILTER).tolist() if (f := keys[j]) in faces
                   and (h.item(j) > FILTER or _height(faces[f], p) > 0)]
        for f in visible:
            del faces[f]
        edges = Counter((min(e), max(e)) for f in visible for e in zip(f, f[1:] + f[:1]))
        for (u, v), cnt in edges.items():
            if cnt == 1:
                add(u, v, i)
    return faces


def close_under_antipodes(points):
    """(points, added): the distinct points in first-seen order, then each
    missing antipode; ``added`` counts those antipodes."""
    seen = {p.as_tuple(): p for p in points}  # a repeat keeps its first place
    distinct = len(seen)
    for p in list(seen.values()):
        if (anti := (-p.x, -p.y, -p.z)) not in seen:
            seen[anti] = -p
    return list(seen.values()), len(seen) - distinct


def faces_and_eta(vertices):
    """Exact faces and shrinking factor of the hull of rational sphere points.

    The vertex set is closed under antipodes first (with a warning if that
    changes it) and freed of exact duplicates.  Every face plane
    n . x = off / d comes from the hull on homogeneous integer points, with
    an integer outward normal n, so beta_f^2 = off^2 / (d^2 |n|^2) is exact;
    off > 0 certifies that the hull contains the centre.  An audit then
    checks every vertex against every face: one float matrix-vector product
    per face decides the clear signs, and Python ints the rest (see FILTER).
    Returns a RationalPolyhedron whose eta_sq is the exact minimum of
    beta_f^2 over faces.
    """
    if len(vertices) < 4:
        raise ValueError("need at least 4 vertices")
    points, added = close_under_antipodes(list(vertices))
    if added:
        warnings.warn(f"input not closed under antipodes; added {added} points")
    hpts = [_homogeneous(p) for p in points]

    planes = _exact_hull_faces(hpts)
    prow = np.array([_point_row(q) for q in hpts])
    faces = []
    for tri, plane in planes.items():
        n, off, d = plane
        if off <= 0:
            raise ValueError("hull does not contain the sphere center")
        # soundness audit: every vertex satisfies the face inequality exactly
        r = np.array(_plane_row(plane))
        h = prow @ r
        near = np.flatnonzero(h >= -FILTER).tolist()
        if any(h.item(j) > FILTER or _height(plane, hpts[j]) > 0 for j in near):
            raise AssertionError("hull construction produced a violated face")
        beta_sq = Fraction(off * off, d * d * sum(c * c for c in n))
        faces.append(Face(r[:3] / np.linalg.norm(r[:3]), math.sqrt(float(beta_sq)), beta_sq,
                          tri, n, Fraction(off, d)))

    eta_sq = min(f.beta_sq for f in faces)
    return RationalPolyhedron(tuple(points), tuple(faces), eta_sq)


def rationalize_all(float_vertices, tol=1e-6):
    """Rationalize a float vertex list and close it under exact antipodes.

    Antipodal float pairs are mapped to exact negations of each other so the
    closure does not double the vertex count.
    """
    out = []
    seen = {}
    for v in float_vertices:
        key = _merge_key(v)
        anti = _merge_key(-np.asarray(v))
        if key in seen:
            continue
        q = rationalize(v, tol)
        out.append(q)
        seen[key] = q
        if anti not in seen:
            out.append(-q)
            seen[anti] = -q
    return out


def shrink_weights(poly, direction):
    """Convex weights p_x over the vertices with sum_x p_x a_x = eta * direction.

    Locates the face met by the ray along ``direction``, solves the local
    barycentric system there, and pads the leftover mass with an antipodal
    vertex pair (whose mean is the origin).  Coplanar triangles share the
    least exit distance, and the exit point may lie in any of them: the faces
    are tried nearest first, and the first within 1e-9 of that distance whose
    barycentric coordinates are all >= -1e-9 is taken.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    eta = poly.eta
    target = eta * d

    exits = sorted((f.beta / a, k) for k, f in enumerate(poly.faces)
                   if (a := float(np.dot(f.normal, d))) > 0)
    if not exits:
        raise RuntimeError("direction outside all face cones")
    r_exit = exits[0][0]
    exit_point = r_exit * d
    V = poly.vertex_array()
    face = None
    for r, k in exits:
        if r > r_exit + 1e-9:
            break
        mu = np.linalg.solve(V[list(poly.faces[k].vertices)].T, exit_point)
        if mu.min() >= -1e-9:
            face = poly.faces[k]
            break
    if face is None:
        raise RuntimeError("failed to locate the exit face")
    mu = np.clip(mu, 0.0, None)

    t = eta / r_exit
    weights = np.zeros(len(poly.vertices))
    for k, vi in enumerate(face.vertices):
        weights[vi] += t * mu[k]
    # remaining mass on an antipodal pair, contributing zero
    rest = 1.0 - weights.sum()
    v0 = poly.vertices[0]
    j = next(i for i, q in enumerate(poly.vertices) if q.as_tuple() == (-v0.x, -v0.y, -v0.z))
    weights[0] += rest / 2
    weights[j] += rest / 2

    err = np.linalg.norm(V.T @ weights - target)
    if err > 1e-8:
        raise RuntimeError(f"shrink reconstruction error {err}")
    return weights


# --- file format ------------------------------------------------------------


def write_polyhedron_vertices(vertices, fp):
    fp.writelines(format_row(p.as_tuple()) + "\n" for p in vertices)


def read_polyhedron_vertices(fp):
    pts = []
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, y, z = map(parse_exact, line.split())
        except ValueError:
            raise ValueError(f"bad vertex line {line!r}") from None
        pts.append(RationalPoint(x, y, z))
    return pts


def antipodal_representatives(vertices):
    """One vertex from each antipodal pair, in stable order."""
    reps = []
    seen = set()
    for p in vertices:
        if p.as_tuple() in seen:
            continue
        seen.add(p.as_tuple())
        seen.add((-p.x, -p.y, -p.z))
        reps.append(p)
    return reps
