"""Checks that rest on theorems and run no closure search: only enumeration
and canonical families."""

from math import factorial

import pytest

from hilbstrat import NumericalSemigroup, canonical_family, delta_set, enumerate_colength


def dyck_areas(n, m):
    """Areas of the N/E lattice paths from (0,0) to (m,n) that stay weakly
    above the diagonal y = n·x/m: the number of whole unit squares between
    each path and the diagonal.

    A path is given by the heights h_0 ≤ … ≤ h_{m-1} ≤ n of its east steps;
    staying above the diagonal means h_i ≥ ⌈n(i+1)/m⌉ (which forces
    h_{m-1} = n), and column i holds h_i − ⌈n(i+1)/m⌉ whole squares above
    the diagonal and below the path.
    """
    least = [-(-n * (i + 1) // m) for i in range(m)]
    areas = []

    def walk(i, low, area):
        if i == m:
            areas.append(area)
            return
        for h in range(max(low, least[i]), n + 1):
            walk(i + 1, h, area + h - least[i])

    walk(0, 0, 0)
    return areas


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (3, 4), (3, 5), (3, 7), (4, 5)],
    ids=lambda g: "%dx%d" % g,
)
def test_catalan_cells_at_twice_delta(gens):
    """At r = 2δ the cells of ⟨n,m⟩ are counted by the rational Catalan
    number (n+m−1)!/(n!·m!), and their dimensions are δ − area(D) over the
    rational Dyck paths D in the n×m box (Gorsky–Mazin, arXiv:1105.1151)."""
    n, m = gens
    sg = NumericalSemigroup(gens)
    delta = sg.delta
    assert delta <= 6
    modules = enumerate_colength(sg, 2 * delta)
    assert len(modules) == factorial(n + m - 1) // (factorial(n) * factorial(m))
    areas = dyck_areas(n, m)
    assert len(areas) == len(modules)
    assert all(0 <= a <= delta for a in areas)
    dims = sorted(canonical_family(mod).dimension for mod in modules)
    assert dims == sorted(delta - a for a in areas)


@pytest.mark.parametrize(
    "gens,count",
    [((3, 4), 5), ((3, 5), 7), ((3, 4, 5), 4), ((3, 5, 7), 6), ((4, 5, 6), 9), ((4, 5, 7), 10)],
    ids=["E6", "E8", "3x4x5", "3x5x7", "4x5x6", "4x5x7"],
)
def test_strata_stabilize_beyond_twice_delta(gens, count):
    """ℳ_r ≅ ℳ_c for r ≥ c, the conductor (Pfister–Steenbrink, J. Pure Appl.
    Algebra 1992): the cells of ℳ_r have the Δ-sets and dimensions of ℳ_c,
    and there are ``count`` of them.  For E6 and E8, c = 2δ."""
    sg = NumericalSemigroup(gens)
    c = sg.conductor

    def cells(r):
        return sorted(
            (delta_set(mod), canonical_family(mod).dimension)
            for mod in enumerate_colength(sg, r)
        )

    base = cells(c)
    assert len(base) == count
    for r in range(c + 1, c + 4):
        assert cells(r) == base, r
