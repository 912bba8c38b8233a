import io
import math

import numpy as np
import pytest
from fractions import Fraction

from localpolytope import polyhedra
from localpolytope.polyhedra import (
    FILTER,
    RationalPoint,
    _exact_hull_faces,
    _height,
    _homogeneous,
    _plane_row,
    _point_from_tangents,
    _point_row,
    close_under_antipodes,
    antipodal_representatives,
    faces_and_eta,
    geodesic_icosahedron,
    pentakis_dodecahedron,
    rationalize,
    rationalize_all,
    read_polyhedron_vertices,
    shrink_weights,
    write_polyhedron_vertices,
)

from util import exact_hull_reference, faces_and_eta_reference

ICO_ETA_SQ = (5 + 2 * math.sqrt(5)) / 15

# exact eta^2 of the 812-vertex geodesic polyhedron (schedule [3, 3]), m = 406,
# as computed by the Fraction planes of faces_and_eta_reference
ETA_SQ_M406 = Fraction(
    10238898933253516275182432607715312305184756605138600898976490000,
    10305651567486541639996997660873007634026208956788712490775987617,
)


def octahedron_points():
    pts = []
    for axis in range(3):
        for sgn in (1, -1):
            c = [Fraction(0)] * 3
            c[axis] = Fraction(sgn)
            pts.append(RationalPoint(*c))
    return pts


def test_geodesic_vertex_counts():
    assert len(geodesic_icosahedron([])) == 12
    assert len(geodesic_icosahedron([2])) == 42
    assert len(geodesic_icosahedron([3])) == 92
    assert len(geodesic_icosahedron([3, 3])) == 812


def test_geodesic_rejects_bad_schedule():
    with pytest.raises(ValueError):
        geodesic_icosahedron([0])


def test_geodesic_vertices_unit_and_antipodal():
    verts = geodesic_icosahedron([3])
    arr = np.array(verts)
    assert np.abs(np.linalg.norm(arr, axis=1) - 1).max() < 1e-12
    # icosahedral symmetry includes the antipodal map
    keyset = {tuple(np.round(v, 8)) for v in verts}
    assert all(tuple(np.round(-v, 8)) in keyset for v in verts)


def test_rationalize_poles_and_axes():
    p = rationalize(np.array([0.0, 0.0, 1.0]))
    assert p.as_tuple() == (0, 0, 1)
    p = rationalize(np.array([0.0, 0.0, -1.0]))
    assert p.as_tuple() == (0, 0, -1)
    p = rationalize(np.array([1.0, 0.0, 0.0]))
    assert p.as_tuple() == (1, 0, 0)


def test_rationalize_random_points():
    rng = np.random.default_rng(42)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tol = 10.0 ** -rng.integers(4, 9)
        q = rationalize(v, tol)
        assert q.x**2 + q.y**2 + q.z**2 == 1
        d2 = sum((Fraction(float(c)) - qc) ** 2 for c, qc in zip(v, q.as_tuple()))
        assert d2 <= Fraction(tol) ** 2


def test_rationalize_rejects_off_sphere():
    with pytest.raises(ValueError):
        rationalize(np.array([1.0, 1.0, 1.0]))


def test_rational_point_validates():
    with pytest.raises(ValueError):
        RationalPoint(Fraction(1), Fraction(1), Fraction(0))


def test_octahedron_eta_exact():
    poly = faces_and_eta(octahedron_points())
    assert poly.eta_sq == Fraction(1, 3)
    assert len(poly.faces) == 8


def test_icosahedron_eta(ico_poly):
    assert abs(float(ico_poly.eta_sq) - ICO_ETA_SQ) < 1e-8
    assert len(ico_poly.faces) == 20


def test_pentakis_dodecahedron_eta():
    pts = rationalize_all(pentakis_dodecahedron(), tol=1e-6)
    assert len(pts) == 32
    poly = faces_and_eta(pts)
    assert abs(poly.eta - 0.9226) < 1e-3
    assert len(poly.faces) == 60


def test_m46_eta():
    pts = rationalize_all(geodesic_icosahedron([3]), tol=1e-6)
    poly = faces_and_eta(pts)
    assert abs(poly.eta - 0.9716) < 1e-3


def test_eta_monotone_in_subdivision():
    # finer geodesic polyhedra approach the sphere from inside
    etas = {}
    for m, schedule in ((6, []), (46, [3]), (406, [3, 3])):
        pts = rationalize_all(geodesic_icosahedron(schedule), tol=1e-6)
        etas[m] = faces_and_eta(pts).eta_sq
    assert etas[406] > etas[46] > etas[6]
    assert abs(math.sqrt(float(etas[406])) - 0.9968) < 1e-4
    assert etas[406] == ETA_SQ_M406


def plane_key(face):
    """The face plane as the unique u with u . x = 1 on it."""
    return tuple(Fraction(c) / face.offset_exact for c in face.normal_exact)


def assert_matches_reference(points):
    poly, ref = faces_and_eta(points), faces_and_eta_reference(points)
    assert poly.eta_sq == ref.eta_sq
    assert [p.as_tuple() for p in poly.vertices] == [p.as_tuple() for p in ref.vertices]
    ref_faces = {f.vertices: f for f in ref.faces}
    assert sorted(ref_faces) == sorted(f.vertices for f in poly.faces)
    for f in poly.faces:
        r = ref_faces[f.vertices]
        assert f.beta_sq == r.beta_sq
        assert plane_key(f) == plane_key(r)
        assert all(isinstance(c, int) for c in f.normal_exact)
        assert np.allclose(f.normal, r.normal, rtol=0, atol=1e-15)
        assert f.beta == r.beta
    return poly


def polyhedron_points(m):
    if m == 3:
        return octahedron_points()
    if m == 16:
        return rationalize_all(pentakis_dodecahedron(), 1e-6)
    schedule = {6: [], 21: [2], 46: [3], 81: [4]}[m]
    return rationalize_all(geodesic_icosahedron(schedule), 1e-6)


def huge_denominator_points():
    """16 sphere points with denominators past 10^200, closed under antipodes."""
    rng = np.random.default_rng(3)
    scale = 10**60
    a, b, c = (rng.integers(1, 10**6, size=8) for _ in range(3))
    points = [
        _point_from_tangents(
            Fraction(int(a[k]) * scale + 1, scale + int(b[k])),
            Fraction(int(c[k]) * scale + 7, 3 * scale + 1),
        )
        for k in range(8)
    ]
    return points + [-p for p in points]


def coplanar_heavy_points(tilted=False):
    """Rational sphere points with many exactly coplanar quadruples: the
    8 points (+-3/5, +-4/5, 0), (+-4/5, +-3/5, 0) and the 4 axis points share
    the equator, and the poles and 4 generic antipodal pairs join them.
    ``tilted`` turns all 22 by a rational rotation, so that the equator's
    float heights carry rounding errors instead of exact zeros."""
    f = Fraction
    pts = [(sx * f(3, 5), sy * f(4, 5), 0) for sx in (1, -1) for sy in (1, -1)]
    pts += [(sx * f(4, 5), sy * f(3, 5), 0) for sx in (1, -1) for sy in (1, -1)]
    pts += [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    pts += [(f(2, 3), f(1, 3), f(2, 3)), (f(2, 7), f(3, 7), f(6, 7)),
            (f(3, 13), f(4, 13), f(-12, 13)), (f(12, 25), f(-16, 25), f(3, 5))]
    pts += [tuple(-c for c in p) for p in pts[-4:]]
    if tilted:
        rot = [(f(2, 3), f(-1, 3), f(2, 3)), (f(2, 3), f(2, 3), f(-1, 3)),
               (f(-1, 3), f(2, 3), f(2, 3))]
        pts = [tuple(sum(a * c for a, c in zip(row, p)) for row in rot) for p in pts]
    return [RationalPoint(*map(Fraction, p)) for p in pts]


@pytest.mark.parametrize("m", [3, 6, 16, 21, 46, 81])
def test_integer_planes_match_fraction_reference(m):
    poly = assert_matches_reference(polyhedron_points(m))
    assert len(poly.vertices) == 2 * m


@pytest.mark.parametrize("m", [3, 6, 16, 21, 46, 81, "huge", "coplanar", "tilted"])
def test_filtered_hull_matches_integer_reference(m):
    points = {"huge": huge_denominator_points, "coplanar": coplanar_heavy_points,
              "tilted": lambda: coplanar_heavy_points(tilted=True)}.get(
        m, lambda: polyhedron_points(m))()
    hpts = [_homogeneous(p) for p in close_under_antipodes(points)[0]]
    # the same keys in the same order, each with the same integer plane; the
    # reversed insertion order meets other exactly coplanar points
    for order in (hpts, hpts[::-1]):
        assert list(_exact_hull_faces(order).items()) == list(exact_hull_reference(order).items())


@pytest.mark.parametrize("tilted", [False, True])
def test_coplanar_heavy_set_matches_reference(monkeypatch, tilted):
    # the equator points land exactly on faces of the growing hull: the band
    # tests there must fall back to the exact height, which is 0
    heights = []

    def recorded(plane, s):
        heights.append(_height(plane, s))
        return heights[-1]

    monkeypatch.setattr(polyhedra, "_height", recorded)
    poly = assert_matches_reference(coplanar_heavy_points(tilted))
    assert len(poly.vertices) == 22
    assert heights.count(0) > 3 * len(poly.faces)  # more than each face's own vertices


def test_float_heights_within_the_filter_bound():
    # FILTER's error argument: <r, q> = _height / (d D B) is within 40 u of the
    # float product of the rows, for every face and vertex at m = 81
    hpts = [_homogeneous(p) for p in close_under_antipodes(polyhedron_points(81))[0]]
    prow = np.array([_point_row(q) for q in hpts])
    worst = Fraction(0)
    for plane in _exact_hull_faces(hpts).values():
        n, _, d = plane
        h = prow @ np.array(_plane_row(plane))
        scale = d * max(abs(c) for c in n)
        for q, x in zip(hpts, h.tolist()):
            worst = max(worst, abs(Fraction(x) - Fraction(_height(plane, q), scale * q[3])))
    assert 0 < worst <= Fraction(40, 2**53)
    assert Fraction(40, 2**53) < Fraction(FILTER)


def test_huge_denominators_give_finite_unit_normals():
    # integer normals far above the float range (~1e308) must still give a
    # float normal: float() of such an int raises OverflowError
    points = huge_denominator_points()
    assert min(max(c.denominator for c in p.as_tuple()) for p in points) > 10**200
    poly = assert_matches_reference(points)
    assert max(abs(c) for f in poly.faces for c in f.normal_exact) > 10**308
    for f in poly.faces:
        assert np.all(np.isfinite(f.normal))
        assert abs(np.linalg.norm(f.normal) - 1) < 1e-12


def test_corrupted_face_fails_the_audit(monkeypatch):
    hull = polyhedra._exact_hull_faces

    def corrupted(hpts):
        faces = hull(hpts)
        tri, (n, off, d) = next(iter(faces.items()))
        faces[tri] = (n, 9 * off, 10 * d)  # moved inward: its own vertices lie above
        return faces

    monkeypatch.setattr(polyhedra, "_exact_hull_faces", corrupted)
    with pytest.raises(AssertionError, match="violated face"):
        faces_and_eta(octahedron_points())


def test_hull_soundness(ico_poly):
    pts = ico_poly.vertices
    for f in ico_poly.faces:
        nx, ny, nz = f.normal_exact
        support = 0
        for p in pts:
            val = nx * p.x + ny * p.y + nz * p.z
            assert val <= f.offset_exact
            if val == f.offset_exact:
                support += 1
        assert support >= 3
        assert 0 < f.beta_sq < 1


def test_face_set_antipodal(ico_poly):
    keys = {tuple(c / f.offset_exact for c in f.normal_exact) for f in ico_poly.faces}
    for f in ico_poly.faces:
        flipped = tuple(-c / f.offset_exact for c in f.normal_exact)
        assert flipped in keys


def test_eta_matches_float_hull(ico_points):
    scipy_spatial = pytest.importorskip("scipy.spatial")
    arr = np.array([p.to_float() for p in ico_points])
    hull = scipy_spatial.ConvexHull(arr)
    eta_float = (-hull.equations[:, 3]).min()
    poly = faces_and_eta(ico_points)
    assert abs(poly.eta - eta_float) < 1e-9


def test_faces_and_eta_antipode_augmentation():
    pts = octahedron_points()[:5]  # drop -e3
    with pytest.warns(UserWarning):
        poly = faces_and_eta(pts)
    assert len(poly.vertices) == 6
    assert poly.eta_sq == Fraction(1, 3)


def test_faces_and_eta_rejects_degenerate():
    sq = [
        RationalPoint(Fraction(1), Fraction(0), Fraction(0)),
        RationalPoint(Fraction(0), Fraction(1), Fraction(0)),
        RationalPoint(Fraction(-1), Fraction(0), Fraction(0)),
        RationalPoint(Fraction(0), Fraction(-1), Fraction(0)),
    ]
    with pytest.raises(ValueError):
        faces_and_eta(sq)


def test_shrink_weights_vertex_direction(ico_poly):
    v = ico_poly.vertices[0].to_float()
    w = shrink_weights(ico_poly, v)
    arr = ico_poly.vertex_array()
    target = ico_poly.eta * v
    assert np.linalg.norm(arr.T @ w - target) < 1e-12
    assert w.min() >= 0 and abs(w.sum() - 1) < 1e-12


def test_shrink_weights_octahedron_interior_direction():
    poly = faces_and_eta(octahedron_points())
    d = np.ones(3) / np.sqrt(3)
    w = shrink_weights(poly, d)
    arr = poly.vertex_array()
    assert np.linalg.norm(arr.T @ w - poly.eta * d) < 1e-12
    # the positive octant face carries equal barycentric mass
    positive = [i for i, p in enumerate(poly.vertices) if sum(p.as_tuple()) == 1]
    vals = sorted(w[i] for i in positive)
    assert np.allclose(vals, [1 / 3, 1 / 3, 1 / 3], atol=1e-9) or all(
        v > 0 for v in vals
    )


def test_shrink_weights_random_directions(ico_poly):
    rng = np.random.default_rng(9)
    arr = ico_poly.vertex_array()
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        w = shrink_weights(ico_poly, d)
        assert w.min() >= 0
        assert abs(w.sum() - 1) < 1e-10
        assert np.linalg.norm(arr.T @ w - ico_poly.eta * d) < 1e-10


def test_shrink_weights_coplanar_faces():
    # the 8 points (+-2/3, +-2/3, +-1/3) span a box: each side is split into two
    # coplanar triangles, so a ray often exits through the neighbour of the
    # first face found at the least exit distance
    pts = [RationalPoint(Fraction(2 * a, 3), Fraction(2 * b, 3), Fraction(c, 3))
           for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    poly = faces_and_eta(pts)
    assert len(poly.faces) == 12 and poly.eta_sq == Fraction(1, 9)
    arr = poly.vertex_array()
    rng = np.random.default_rng(3)
    for _ in range(2000):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        w = shrink_weights(poly, d)
        assert w.min() >= 0
        assert abs(w.sum() - 1) < 1e-8
        assert np.linalg.norm(arr.T @ w - poly.eta * d) < 1e-8


def test_polyhedron_file_roundtrip(ico_points):
    buf = io.StringIO()
    write_polyhedron_vertices(ico_points, buf)
    buf.seek(0)
    back = read_polyhedron_vertices(buf)
    assert [p.as_tuple() for p in back] == [p.as_tuple() for p in ico_points]


def test_antipodal_representatives(ico_points):
    reps = antipodal_representatives(ico_points)
    assert len(reps) == 6
    seen = {r.as_tuple() for r in reps}
    assert all((-r.x, -r.y, -r.z) not in seen for r in reps)


def test_random_point_set_hulls_match_scipy():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(0)
    for trial in range(8):
        k = int(rng.integers(4, 40))
        pts = rng.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        rp = rationalize_all(pts, 1e-7)
        poly = faces_and_eta(rp)
        arr = np.array([p.to_float() for p in rp])
        hull = scipy_spatial.ConvexHull(arr)
        eta_float = (-hull.equations[:, 3]).min()
        assert abs(poly.eta - eta_float) < 1e-9


def test_closed_form_shrinking_factors():
    # exact algebraic values for the two catalogued solids
    eta16_sq = (620 + 185 * math.sqrt(5)
                + math.sqrt(30 * (12905 + 5701 * math.sqrt(5)))) / 2245
    eta46_sq = 3 * (2470 + 63 * math.sqrt(5)
                    + math.sqrt(30 * (110429 + 39255 * math.sqrt(5)))) / 16045
    p16 = faces_and_eta(rationalize_all(pentakis_dodecahedron(), 1e-6))
    p46 = faces_and_eta(rationalize_all(geodesic_icosahedron([3]), 1e-6))
    assert abs(float(p16.eta_sq) - eta16_sq) < 1e-6
    assert abs(float(p46.eta_sq) - eta46_sq) < 1e-6
