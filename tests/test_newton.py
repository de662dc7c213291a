"""Face lattices of integer point sets, checked against known polytopes and
against the faces that exponent vectors actually select."""

from itertools import product

import pytest

from hilbstrat import closure_analysis
from hilbstrat.newton import face_lattice


def test_unit_cube_has_27_faces():
    cube = list(product((0, 1), repeat=3))
    faces = face_lattice(cube)
    assert len(faces) == 27
    assert faces[0] == frozenset(range(8))
    assert sorted(len(f) for f in faces) == [1] * 8 + [2] * 12 + [4] * 6 + [8]


def test_grid_points_lie_on_the_faces_of_their_cube():
    """Points that are not vertices still belong to every face they lie on."""
    grid = list(product((0, 1, 2), repeat=3))
    faces = face_lattice(grid)
    assert len(faces) == 27
    assert sorted(len(f) for f in faces) == [1] * 8 + [3] * 12 + [9] * 6 + [27]


@pytest.mark.parametrize("d", range(5))
def test_simplex_faces(d):
    """Every nonempty subset of a simplex's vertices spans a face, here in a
    space one dimension larger than the simplex."""
    simplex = [tuple(3 * (i == j) for j in range(d + 1)) for i in range(d)] + [(1,) * (d + 1)]
    faces = face_lattice(simplex)
    assert len(faces) == 2 ** (d + 1) - 1
    assert len(set(faces)) == len(faces)


def test_collinear_points_give_a_segment():
    points = [(2, 4, 6), (0, 0, 0), (3, 6, 9), (1, 2, 3)]
    assert set(face_lattice(points)) == {frozenset(range(4)), frozenset({1}), frozenset({2})}


def test_coplanar_points_give_a_polygon():
    """A square with its centre and an edge midpoint, on a slanted plane of R^3."""
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
    points = [(x, y, 7 + x - 3 * y) for x, y in square]
    expected = {frozenset(range(6))}
    expected |= {frozenset(s) for s in ({0, 1, 5}, {1, 2}, {2, 3}, {3, 0})}
    expected |= {frozenset({v}) for v in range(4)}
    assert set(face_lattice(points)) == expected


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
            faces = set(system.faces)
            assert len(faces) == len(system.faces)
            assert _argmin_faces(system.uniq_exps, 5) <= faces
