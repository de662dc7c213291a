"""Canonical ideal families, cell dimensions, Plücker points, goodness."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hilbstrat import (
    GammaModule,
    NumericalSemigroup,
    ParamPoly,
    build_cell,
    canonical_family,
    cell_matrix,
    enumerate_colength,
    is_good_subspace,
    plucker_point,
)
from hilbstrat import closure_analysis, ideal_cells
from hilbstrat.closure_analysis import _rank
from hilbstrat.errors import CardinalityMismatch
from hilbstrat.ideal_cells import minor_support
from hilbstrat.report_cli import specialized_orders

E6 = NumericalSemigroup((3, 4))
E8 = NumericalSemigroup((3, 5))


def raw(family, letter):
    """The internal parameter name shown as the given display letter."""
    inv = {v: k for k, v in family.display_names.items()}
    return ParamPoly.variable(inv[letter])


def test_s33_family():
    m = GammaModule(E6, (0, 4, 8))
    f = canonical_family(E6, m)
    assert m.min_generators == (3,)
    assert f.dimension == 2
    assert f.format_generators() == ["t^3 + a*t^4 + b*t^8", "t^6 - a^2*t^8"]
    a = raw(f, "a")
    assert f.generators[1].coeff(8) == -(a * a)
    assert f.eliminated_display() == []


def test_s65_family():
    m = enumerate_colength(E6, 6)[-1]
    assert m.gap_set == (0, 3, 4, 7, 8, 11)
    f = canonical_family(E6, m)
    assert f.dimension == 3
    assert f.format_generators() == [
        "t^6 + a*t^7 + b*t^8 + c*t^11",
        "t^9 + (b - a^2)*t^11",
    ]
    a, b = raw(f, "a"), raw(f, "b")
    assert f.generators[1].coeff(11) == b - a * a


def test_s87_family():
    m = enumerate_colength(E8, 8)[-1]
    assert m.min_generators == (8,)
    f = canonical_family(E8, m)
    assert f.dimension == 4
    assert f.format_generators() == [
        "t^8 + a*t^9 + b*t^10 + c*t^12 + d*t^15",
        "t^11 + a*t^12 + (c - b^2 + a^2*b)*t^15",
        "t^13 + (b - a^2)*t^15",
    ]
    a, b, c = raw(f, "a"), raw(f, "b"), raw(f, "c")
    assert f.generators[1].coeff(15) == c + a * a * b - b * b
    assert f.generators[2].coeff(15) == b - a * a


def test_monomial_cell_s31():
    m = GammaModule(E6, (0, 3, 4))
    f = canonical_family(E6, m)
    assert f.dimension == 0
    assert f.format_generators() == ["t^6", "t^7", "t^8"]


def test_monomial_cell_s21():
    f = canonical_family(E6, GammaModule(E6, (0, 3)))
    assert f.format_generators() == ["t^4", "t^6"]


@pytest.mark.parametrize(
    "sg,r",
    [(sg, r) for sg in (E6, E8) for r in range(1, 2 * sg.delta + 1)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v.gens)),
)
def test_cell_dimension_is_jacobian_rank(sg, r):
    """Dimension check independent of the elimination.

    The cell matrix entries are affine coordinates on a Grassmannian chart,
    so the cell's dimension is the generic rank of their Jacobian in the
    free parameters; the largest rank at three seeded rational points must
    equal the number of free parameters the elimination left.  The rows
    store only their nonzero entries; an entry left out has zero gradient.

    Every point of the cell has the order set S, so at each point the
    specialized family's orders up to the module's conductor are those of
    S, found by row reduction over the rationals, not by the elimination."""
    rng = random.Random("jacobian-%s-%d" % (sg.gens, r))
    for m in enumerate_colength(sg, r):
        f = canonical_family(sg, m)
        rows, _ = cell_matrix(f, r)
        entries = [e for row in rows for e in row.values()]
        grad = [[e.derivative(p) for p in f.free_params] for e in entries]
        ranks = []
        for _ in range(3):
            point = {
                p: Fraction(rng.randint(-1000, 1000), rng.randint(1, 97))
                for p in f.free_params
            }
            ranks.append(_rank([[g.evaluate(point) for g in row] for row in grad]))
            assert specialized_orders(f, point) == tuple(m.members_below(m.conductor + 1)), (m.gap_set, point)
        assert max(ranks) == f.dimension, (m.gap_set, ranks, f.dimension)


def test_cell_dimensions():
    assert canonical_family(E6, GammaModule(E6, (0,))).dimension == 0
    assert canonical_family(E6, enumerate_colength(E6, 6)[-1]).dimension == 3
    assert canonical_family(E6, GammaModule(E6, (0, 4, 8))).dimension == 2
    # E8 module generated by 5 alone
    s55 = GammaModule(E8, (0, 3, 6, 9, 12))
    assert s55.min_generators == (5,)
    assert canonical_family(E8, s55).dimension == 3
    assert canonical_family(E8, enumerate_colength(E8, 8)[-1]).dimension == 4


def test_families_with_eliminations_are_pinned():
    """sha256 of every family of ⟨4,5⟩ and ⟨3,7⟩ up to r = 12, ⟨5,6⟩ up to
    r = 6, ⟨4,7⟩ up to r = 7 and ⟨3,4,5⟩ up to r = 6: free parameters,
    eliminations, normal forms, displayed orders and truncation.  19 of the
    265 families eliminate a coefficient, which E6 and E8 never do.  At and
    above the module's conductor every normal form is the bare t^s."""
    cases = (((4, 5), 12), ((3, 7), 12), ((5, 6), 6), ((4, 7), 7), ((3, 4, 5), 6))
    records = []
    eliminating = 0
    for gens, r_max in cases:
        sg = NumericalSemigroup(gens)
        for r in range(1, r_max + 1):
            for m in enumerate_colength(sg, r):
                f = canonical_family(sg, m)
                eliminating += bool(f.eliminated)
                for s, nf in f.normal_forms.items():
                    if s >= m.conductor:
                        assert nf.coeffs == {s: ParamPoly.one()}, (gens, m.gap_set, s)
                forms = [[s, f.normal_forms[s].trunc, f.normal_forms[s].format()] for s in sorted(f.normal_forms)]
                elim = sorted((k, v.format()) for k, v in f.eliminated.items())
                family = [list(m.gap_set), f.truncation, f.free_params, elim, f.generator_orders, forms]
                records.append([list(gens), r, family])
    assert (len(records), eliminating) == (265, 19)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "6bc44215b9069dcc5607621e1d3b19c526d84b83e12a682933d0d910aa21ccf6"


def test_genuine_elimination_45():
    """Over <4,5> one seed coefficient is forced to a value, not kept free."""
    sg = NumericalSemigroup((4, 5))
    m = GammaModule(sg, (0, 4, 5, 10, 15))
    assert m.min_generators == (8, 9)
    f = canonical_family(sg, m)
    assert f.dimension == 3
    assert f.eliminated_display() == [
        {"generator": 0, "exponent": 10, "expression": "-b^2"}
    ]
    assert f.format_generators() == [
        "t^8 - b^2*t^10 + a*t^15",
        "t^9 + b*t^10 + c*t^15",
        "t^12 + b^3*t^15",
        "t^13 - b^2*t^15",
    ]


def test_genuine_elimination_37():
    sg = NumericalSemigroup((3, 7))
    m = GammaModule(sg, (0, 3, 7, 14))
    assert m.min_generators == (6, 10)
    f = canonical_family(sg, m)
    assert f.dimension == 2
    assert f.eliminated_display() == [
        {"generator": 0, "exponent": 7, "expression": "0"}
    ]
    assert f.format_generators() == ["t^6 + a*t^14", "t^10 + b*t^14"]


def test_plucker_monomial_cell():
    m = GammaModule(E6, (0, 3, 4))
    f = canonical_family(E6, m)
    rows, pivots = cell_matrix(f, 3)
    assert plucker_point(rows, pivots, minor_support(rows)) == (ParamPoly.one(),)
    assert build_cell(E6, m, 3).plucker == {(3, 4, 5): ParamPoly.one()}


def test_build_cell_makes_one_pass(monkeypatch):
    """``build_cell`` computes the cell matrix and the minor support once
    per cell, whichever module the second call would come from."""
    calls = []
    for name in ("cell_matrix", "minor_support"):
        original = getattr(ideal_cells, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(ideal_cells, name, spy)
        monkeypatch.setattr(closure_analysis, name, spy)
    mods = enumerate_colength(E8, 5)
    for m in mods:
        build_cell(E8, m, 5)
    assert sorted(calls) == ["cell_matrix"] * len(mods) + ["minor_support"] * len(mods)


def test_plucker_degeneration_of_s22():
    """At a = 0 the one-dimensional cell lands on the monomial point of Δ_3."""
    m = GammaModule(E6, (0, 4))
    cell = build_cell(E6, m, 2)
    name = raw(cell.family, "a").format()
    vals = {cols: p.evaluate({name: Fraction(0)}) for cols, p in cell.plucker.items()}
    assert {cols: v for cols, v in vals.items() if v} == {(1, 4, 5): 1}


def _fraction_det(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    m = [row[:] for row in matrix]
    out = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


@pytest.mark.parametrize(
    "gens,r",
    [((3, 4), r) for r in range(1, 7)]
    + [((3, 5), r) for r in range(1, 9)]
    + [((4, 5), r) for r in range(1, 5)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_plucker_map_matches_dense_minors(cells_of, gens, r):
    """Every δ×δ minor of the cell matrix at a seeded rational point, by
    plain elimination: it is nonzero only at a key of ``cell.plucker``, and
    each stored coordinate evaluates to it there."""
    rng = random.Random("minors-%s-%d" % (gens, r))
    for cell in cells_of(gens, r):
        assert all(not p.is_zero() for p in cell.plucker.values())
        point = {
            p: Fraction(rng.randint(-1000, 1000), rng.randint(1, 97))
            for p in cell.family.free_params
        }
        dd = 2 * len(cell.rows)
        rows = [[row[c].evaluate(point) if c in row else Fraction(0) for c in range(dd)] for row in cell.rows]
        for cols in combinations(range(dd), len(rows)):
            minor = _fraction_det([[row[c] for c in cols] for row in rows])
            stored = cell.plucker.get(cols)
            if stored is None:
                assert minor == 0, (cell.module.gap_set, cols)
            else:
                assert stored.evaluate(point) == minor, (cell.module.gap_set, cols)


@pytest.mark.parametrize(
    "gens,r",
    [((3, 4), r) for r in range(1, 7)]
    + [((3, 5), r) for r in range(1, 9)]
    + [((4, 7), r) for r in range(1, 4)]
    + [((5, 6), r) for r in range(1, 5)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_sparse_rows_match_dense_construction(cells_of, gens, r):
    """Each cell-matrix row stores exactly its nonzero entries, in ascending
    column order.  Densified, the rows are the reference construction: the
    normal form of each order of S in [r, r + 2δ), shifted down by r and
    read at every column of [0, 2δ)."""
    for cell in cells_of(gens, r):
        family = cell.family
        dd = 2 * family.module.ambient.delta
        orders = [s for s in range(r, r + dd) if s in cell.module]
        dense = [[family.normal_forms[s].shift(-r).coeff(e) for e in range(dd)] for s in orders]
        assert cell.pivots == tuple(s - r for s in orders)
        assert len(cell.rows) == len(dense)
        for row, ref in zip(cell.rows, dense):
            assert list(row) == sorted(row), (cell.module.gap_set, list(row))
            assert all(not q.is_zero() for q in row.values()), cell.module.gap_set
            assert [row.get(e, ParamPoly.zero()) for e in range(dd)] == ref, cell.module.gap_set


@pytest.mark.parametrize(
    "gens,r_max,total",
    [((4, 7), 3, 14), ((3, 4), 6, 53), ((3, 5), 8, 151)],
    ids=["4x7", "3x4", "3x5"],
)
def test_plucker_support_totals(cells_of, gens, r_max, total):
    """Stored minors over all cells of the strata r = 1..r_max."""
    stored = sum(len(c.plucker) for r in range(1, r_max + 1) for c in cells_of(gens, r))
    assert stored == total


def test_wide_cells_store_only_nonzero_minors(cells_of):
    """δ = 10 has C(20, 10) = 184,756 minors; a cell keeps only its nonzero ones."""
    for cell in cells_of((5, 6), 4):
        assert cell.plucker
        assert all(not p.is_zero() for p in cell.plucker.values())
        assert cell.pivots in cell.plucker


@pytest.mark.parametrize(
    "sg,gaps,r",
    [
        (E6, (0, 4, 8), 3),
        (E6, (0, 3, 4, 7, 8, 11), 6),
        (E8, (0, 3, 5, 6, 9, 10, 12, 15), 8),
    ],
)
def test_goodness_of_fixture_cells(sg, gaps, r):
    f = canonical_family(sg, GammaModule(sg, gaps))
    rows, pivots = cell_matrix(f, r)
    assert is_good_subspace(rows, pivots, sg)


def test_tampered_rows_are_not_good():
    f = canonical_family(E6, GammaModule(E6, (0, 3, 4)))
    rows, pivots = cell_matrix(f, 3)
    assert is_good_subspace(rows, pivots, E6)
    assert 0 not in rows[0]
    bad = [{0: ParamPoly.one(), **rows[0]}] + rows[1:]
    assert not is_good_subspace(bad, pivots, E6)


def test_family_rejects_foreign_module():
    m = GammaModule(E6, (0, 4, 8))
    with pytest.raises(CardinalityMismatch):
        canonical_family(E8, m)


def test_cell_matrix_window_guards():
    m = GammaModule(E6, (0, 4, 8))
    with pytest.raises(CardinalityMismatch):
        cell_matrix(canonical_family(E6, m), 7)


@pytest.mark.parametrize(
    "gens,r_max",
    [((3, 4), 6), ((3, 5), 8), ((4, 7), 3), ((2, 3), 2), ((1,), 1)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else "r%d" % v,
)
def test_cell_matrix_windows_need_no_truncation_guard(gens, r_max):
    """Every window [r, r + 2δ) for r from 0 to 4 past the family's
    truncation either gives a matrix or raises CardinalityMismatch.  A
    window ending past the truncation lies inside S and holds 2δ orders,
    so every window that gives a matrix ends within the truncation, unless
    δ = 0 and the matrix is empty."""
    sg = NumericalSemigroup(gens)
    dd = 2 * sg.delta
    for colength in range(r_max + 1):
        for m in enumerate_colength(sg, colength):
            f = canonical_family(sg, m)
            for r in range(f.truncation + 5):
                try:
                    rows, _ = cell_matrix(f, r)
                except CardinalityMismatch:
                    continue
                assert r + dd <= f.truncation or rows == [], (m.gap_set, r)
