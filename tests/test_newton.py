"""Facets of integer point sets and their normals, checked against known
polytopes and against the beneath-beyond face lattice they replaced, which
is also checked against the faces that exponent vectors actually select;
candidate faces, checked against that lattice under the candidate tests,
and the vector e_F of each, checked to be minimal exactly on its face."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from hilbstrat import closure_analysis
from hilbstrat.newton import _dot, facets


def _lattice(points):
    """The point set of every nonempty face of conv(points), as frozensets:
    the facets closed under intersection, and the whole set.  Faces come
    largest first, ties broken by their sorted indices."""
    _, masks, _ = facets(points)
    faces = set(masks)
    fresh = faces
    while fresh:
        fresh = {f & g for f in fresh for g in masks if f & g} - faces
        faces |= fresh
    faces.add((1 << len(points)) - 1)
    sets = [frozenset(i for i in range(len(points)) if f >> i & 1) for f in faces]
    return sorted(sets, key=lambda f: (-len(f), sorted(f)))


def test_unit_cube_has_27_faces():
    cube = list(product((0, 1), repeat=3))
    assert facets(cube)[0] == 3
    faces = _lattice(cube)
    assert len(faces) == 27
    assert faces[0] == frozenset(range(8))
    assert sorted(len(f) for f in faces) == [1] * 8 + [2] * 12 + [4] * 6 + [8]


def test_grid_points_lie_on_the_faces_of_their_cube():
    """Points that are not vertices still belong to every face they lie on."""
    grid = list(product((0, 1, 2), repeat=3))
    faces = _lattice(grid)
    assert len(faces) == 27
    assert sorted(len(f) for f in faces) == [1] * 8 + [3] * 12 + [9] * 6 + [27]


@pytest.mark.parametrize("d", range(5))
def test_simplex_faces(d):
    """Every nonempty subset of a simplex's vertices spans a face, here in a
    space one dimension larger than the simplex."""
    simplex = [tuple(3 * (i == j) for j in range(d + 1)) for i in range(d)] + [(1,) * (d + 1)]
    assert facets(simplex)[0] == d
    faces = _lattice(simplex)
    assert len(faces) == 2 ** (d + 1) - 1
    assert len(set(faces)) == len(faces)


def test_collinear_points_give_a_segment():
    points = [(2, 4, 6), (0, 0, 0), (3, 6, 9), (1, 2, 3)]
    assert facets(points) == (1, [1 << 1, 1 << 2], [[1, 0, 0], [-1, 0, 0]])


def test_coplanar_points_give_a_polygon():
    """A square with its centre and an edge midpoint, on a slanted plane of R^3."""
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
    points = [(x, y, 7 + x - 3 * y) for x, y in square]
    expected = {frozenset(range(6))}
    expected |= {frozenset(s) for s in ({0, 1, 5}, {1, 2}, {2, 3}, {3, 0})}
    expected |= {frozenset({v}) for v in range(4)}
    assert facets(points)[0] == 2
    assert set(_lattice(points)) == expected


def _argmin_faces(points, window):
    """The point set on which each vector of [-window, window]^k is minimal."""
    columns = list(zip(*points))
    found = set()

    def walk(dots, j):
        if j == len(columns):
            low = min(dots)
            found.add(frozenset(i for i, d in enumerate(dots) if d == low))
            return
        for e in range(-window, window + 1):
            walk([d + e * a for d, a in zip(dots, columns[j])], j + 1)

    walk([0] * len(points), 0)
    return found


@pytest.mark.parametrize(
    "gens,r",
    [((3, 4), r) for r in range(1, 7)] + [((3, 5), r) for r in range(1, 9)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_every_window_face_is_in_the_lattice(cells_of, gens, r):
    for cell in cells_of(gens, r):
        for system in closure_analysis._systems(cell):
            lattice = _reference_face_lattice(system.uniq_exps)
            faces = set(lattice)
            assert len(faces) == len(lattice)
            assert _argmin_faces(system.uniq_exps, 5) <= faces


def _det(m):
    """Determinant of a square integer matrix, by Bareiss's fraction-free
    elimination, as the reference below uses it."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, n) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _primitive(normal, point):
    """(normal / gcd, offset) of the hyperplane through ``point``, as the
    reference below uses it."""
    g = gcd(*normal)
    normal = tuple(x // g for x in normal)
    return normal, _dot(normal, point)


def _reference_face_lattice(points):
    """``newton.face_lattice`` as it was with points inserted in input order,
    kept verbatim as the reference."""
    n = len(points)
    base = points[0]
    # an echelon basis of the differences: each row is zero on the pivot
    # columns of the rows before it, so reducing in order clears them all
    echelon = []
    simplex = [0]
    for i, p in enumerate(points):
        v = [a - b for a, b in zip(p, base)]
        for c, row in echelon:
            if v[c]:
                v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            g = gcd(*v)
            echelon.append((lead, [x // g for x in v]))
            simplex.append(i)
    d = len(echelon)
    pts = [tuple(p[c] for c, _ in echelon) for p in points]
    facets = {}  # sorted vertex tuple -> (primitive inward normal, offset)
    if d:
        # (d + 1) times the centroid of the first simplex, strictly inside
        inside = [sum(pts[i][c] for i in simplex) for c in range(d)]
        for k in range(d + 1):
            verts = tuple(simplex[:k] + simplex[k + 1 :])
            q0 = pts[verts[0]]
            rows = [[a - b for a, b in zip(pts[v], q0)] for v in verts[1:]]
            normal, offset = _primitive([(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)], q0)
            if _dot(normal, inside) < (d + 1) * offset:
                normal, offset = tuple(-x for x in normal), -offset
            facets[verts] = normal, offset
    # each ridge of the triangulated boundary lies on exactly two facets
    ridges = {}
    for verts in facets:
        for k in range(d):
            ridges.setdefault(verts[:k] + verts[k + 1 :], []).append(verts)
    corners = set(simplex)
    for i in range(n):
        if i in corners:
            continue
        p = pts[i]
        # visible means strictly beyond; a point on a facet's plane
        # extends that facet by a coplanar simplex
        visible = {}
        for verts, (normal, offset) in facets.items():
            gap = _dot(normal, p) - offset
            if gap < 0:
                visible[verts] = gap
        if not visible:
            continue
        fresh = []
        for verts, gap in visible.items():
            for k in range(d):
                ridge = verts[:k] + verts[k + 1 :]
                other = next(f for f in ridges[ridge] if f != verts)
                if other in visible:
                    continue
                # a horizon ridge: the plane through it and p is the
                # combination of the two facet planes through it that
                # vanishes at p, and it is inward because gap < 0 <= gap2
                n2, b2 = facets[other]
                gap2 = _dot(n2, p) - b2
                normal = [gap2 * x - gap * y for x, y in zip(facets[verts][0], n2)]
                fresh.append((tuple(sorted(ridge + (i,))), *_primitive(normal, p)))
        for verts in visible:
            del facets[verts]
            for k in range(d):
                ridges[verts[:k] + verts[k + 1 :]].remove(verts)
        for verts, normal, offset in fresh:
            facets[verts] = normal, offset
            for k in range(d):
                ridges.setdefault(verts[:k] + verts[k + 1 :], []).append(verts)
    planes = set(facets.values())
    facet_sets = {frozenset(i for i in range(n) if _dot(normal, pts[i]) == offset) for normal, offset in planes}
    faces = set(facet_sets)
    fresh = facet_sets
    while fresh:
        fresh = {f & g for f in fresh for g in facet_sets if not f.isdisjoint(g)} - faces
        faces |= fresh
    faces.add(frozenset(range(n)))
    return sorted(faces, key=lambda f: (-len(f), sorted(f)))


def _seeded_point_sets(seed, count):
    """Distinct integer points in dimensions 1-5, shuffled: boxes, grids,
    and points on a line, a plane or a random lower-dimensional lattice."""
    rng = random.Random(seed)
    kinds = ("box", "grid", "line", "plane", "lattice")
    for t in range(count):
        d = rng.randint(1, 5)
        kind = kinds[t % len(kinds)]
        if kind == "box":
            w = rng.choice((1, 2, 3))
            # fewer in higher dimensions, where nearly every random point
            # is a vertex and the reference slows down
            points = {tuple(rng.randint(-w, w) for _ in range(d)) for _ in range(rng.randint(1, 40 - 5 * d))}
        elif kind == "grid":
            side = range(3 if d <= 3 else 2)
            points = set(rng.sample(list(product(side, repeat=d)), rng.randint(1, min(30, len(side) ** d))))
        else:
            k = {"line": 1, "plane": 2, "lattice": rng.randint(0, d)}[kind]
            basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
            origin = [rng.randint(-3, 3) for _ in range(d)]
            points = set()
            for _ in range(rng.randint(1, 25)):
                c = [rng.randint(-2, 2) for _ in range(k)]
                points.add(tuple(o + sum(ci * b[j] for ci, b in zip(c, basis)) for j, o in enumerate(origin)))
        points = sorted(points)
        rng.shuffle(points)
        yield points


def _reference_facets(points):
    """The inclusion-maximal proper faces of the reference lattice, as sorted bitmasks."""
    proper = [f for f in _reference_face_lattice(points) if len(f) < len(points)]
    return sorted(sum(1 << i for i in f) for f in proper if not any(f < g for g in proper))


def _affine_dimension(points):
    """The rank of the differences to the first point, by elimination over
    the rationals."""
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for c in range(len(points[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _argmin_mask(vector, points):
    """The bitmask of the points on which the linear form ``vector`` is minimal."""
    dots = [_dot(vector, p) for p in points]
    low = min(dots)
    return sum(1 << i for i, x in enumerate(dots) if x == low)


def test_face_lattice_matches_reference_on_seeded_points():
    """The facets are the reference's maximal proper faces, and they generate
    its whole lattice; each facet's normal is minimal exactly on it."""
    for points in _seeded_point_sets(31, 400):
        d, masks, normals = facets(points)
        assert (d, masks) == (_affine_dimension(points), _reference_facets(points)), points
        assert [_argmin_mask(n, points) for n in normals] == masks, points
        assert _lattice(points) == _reference_face_lattice(points), points


STRATA = pytest.mark.parametrize(
    "gens,r_max",
    [((3, 4), 6), ((3, 5), 8), ((4, 5), 7)],
    ids=["3x4", "3x5", "4x5"],
)


@STRATA
def test_face_lattice_matches_reference_on_systems(cells_of, gens, r_max):
    """Each system's facets, once its hull is built, are the reference's
    maximal proper faces, and each facet's normal is minimal exactly on it."""
    for r in range(1, r_max + 1):
        for cell in cells_of(gens, r):
            for system in closure_analysis._systems(cell):
                closure_analysis._hull(system)
                points = system.uniq_exps
                assert system.dim == _affine_dimension(points)
                assert system.facets == _reference_facets(points)
                assert [_argmin_mask(n, points) for n in system.normals] == system.facets


def test_face_lattice_ignores_point_order():
    """The facets depend only on the point set: those of a permuted point
    list, mapped back, are the same."""
    rng = random.Random(37)
    for points in _seeded_point_sets(41, 300):
        order = list(range(len(points)))
        rng.shuffle(order)
        d, permuted, _ = facets([points[i] for i in order])
        back = sorted(sum(1 << order[i] for i in range(len(points)) if mask >> i & 1) for mask in permuted)
        assert (d, back) == facets(points)[:2]


def _reference_candidates(dst, system):
    """The reference lattice's faces under the candidate tests, and the faces
    that only the support test drops, as bitmasks."""
    terms = system.terms
    pivot = {j for j, _ in terms.get(dst.delta, ())}
    forced = {j for cols, items in terms.items() if cols not in dst.plucker for j, _ in items}
    support = [{j for j, _ in terms.get(cols, ())} for cols in dst.plucker]
    kept, dropped = set(), []
    for face in _reference_face_lattice(system.uniq_exps):
        if face.isdisjoint(pivot) or not face.isdisjoint(forced):
            continue
        if _affine_dimension([system.uniq_exps[j] for j in sorted(face)]) < dst.dim:
            continue
        mask = sum(1 << j for j in face)
        if all(not face.isdisjoint(s) for s in support):
            kept.add(mask)
        else:
            dropped.append(mask)
    return kept, dropped


@STRATA
def test_candidate_faces_match_reference(cells_of, gens, r_max):
    """For every system and every target of the stratum, the top-down
    candidates are the reference lattice's faces that meet the target's
    pivot exponents, meet no forced-zero exponent, have dimension at least
    the target's and meet every coordinate of the target's support, each
    once."""
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for src in cells:
            for system in closure_analysis._systems(src):
                for dst in cells:
                    kept, _ = _reference_candidates(dst, system)
                    faces = list(closure_analysis._candidate_faces(dst, system))
                    assert len(faces) == len(set(faces)), (r, src.module.gap_set, dst.module.gap_set)
                    assert set(faces) == kept, (r, src.module.gap_set, dst.module.gap_set)


@STRATA
def test_face_vector_is_minimal_exactly_on_its_face(cells_of, gens, r_max):
    """For every candidate face F of every system and target, e_F, the sum of
    the normals of the facets through F, has F as its argmin."""
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for src in cells:
            for system in closure_analysis._systems(src):
                faces = {f for dst in cells for f in closure_analysis._candidate_faces(dst, system)}
                for face in faces:
                    evec = closure_analysis._face_vector(system, face)
                    assert _argmin_mask(evec, system.uniq_exps) == face, (r, src.module.gap_set, face)


@STRATA
def test_support_drops_only_non_viable_faces(cells_of, gens, r_max):
    """Every face that passes the pivot, forced-zero and dimension tests but
    misses a support coordinate of the target is judged not viable."""
    dropped = 0
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for src in cells:
            for system in closure_analysis._systems(src):
                for dst in cells:
                    _, faces = _reference_candidates(dst, system)
                    assert all(closure_analysis._judge(dst, system, face) is None for face in faces), (r, src.module.gap_set, dst.module.gap_set)
                    dropped += len(faces)
    assert dropped


@pytest.mark.parametrize(
    "gens,r_max",
    [((3, 4), 6), ((3, 5), 8), ((4, 5), 8), ((3, 7), 8)],
    ids=["3x4", "3x5", "4x5", "3x7"],
)
def test_early_exit_rejects_only_charts_without_candidates(cells_of, gens, r_max):
    """When every term of some coordinate of the target's support sits on a
    forced-zero exponent, ``_candidate_faces`` stops before the chart's hull
    is built.  On every such (chart, target), with the hull then forced,
    no face of the facet lattice meets every support coordinate and misses
    the forced-zero exponents."""
    rejected = 0
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for src in cells:
            for system in closure_analysis._systems(src):
                for dst in cells:
                    terms = system.terms
                    forced = {j for cols, items in terms.items() if cols not in dst.plucker for j, _ in items}
                    support = [{j for j, _ in terms.get(cols, ())} for cols in dst.plucker]
                    if not any(s <= forced for s in support):
                        continue
                    rejected += 1
                    fresh = closure_analysis._chart(src, system.replacements)
                    assert list(closure_analysis._candidate_faces(dst, fresh)) == []
                    assert fresh.facets is None, (r, src.module.gap_set, dst.module.gap_set)
                    closure_analysis._hull(fresh)
                    for face in _lattice(fresh.uniq_exps):
                        assert not all(face & s for s in support) or face & forced, (r, src.module.gap_set, dst.module.gap_set)
    assert rejected
