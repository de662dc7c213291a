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
from hilbstrat import closure_analysis, gamma_modules, ideal_cells
from hilbstrat.errors import NonTriangularRelation, PivotLoss
from hilbstrat.ideal_cells import minor_support
from hilbstrat.report_cli import specialized_orders
from hilbstrat.symcalc import format_series
from conftest import _reference_minor_support, _reference_plucker_point, _reference_rank

E6 = NumericalSemigroup((3, 4))
E8 = NumericalSemigroup((3, 5))


def raw(family, letter):
    """The internal parameter name shown as the given display letter."""
    inv = {v: k for k, v in family.display_names.items()}
    return ParamPoly.variable(inv[letter])


def test_s33_family():
    m = GammaModule(E6, (0, 4, 8))
    f = canonical_family(m)
    assert m.min_generators == (3,)
    assert f.dimension == 2
    assert f.format_generators() == ["t^3 + a*t^4 + b*t^8", "t^6 - a^2*t^8"]
    a = raw(f, "a")
    assert f.generators[1][8] == -(a * a)
    assert f.eliminated_display() == []


def test_s65_family():
    m = enumerate_colength(E6, 6)[-1]
    assert m.gap_set == (0, 3, 4, 7, 8, 11)
    f = canonical_family(m)
    assert f.dimension == 3
    assert f.format_generators() == [
        "t^6 + a*t^7 + b*t^8 + c*t^11",
        "t^9 + (b - a^2)*t^11",
    ]
    a, b = raw(f, "a"), raw(f, "b")
    assert f.generators[1][11] == b - a * a


def test_s87_family():
    m = enumerate_colength(E8, 8)[-1]
    assert m.min_generators == (8,)
    f = canonical_family(m)
    assert f.dimension == 4
    assert f.format_generators() == [
        "t^8 + a*t^9 + b*t^10 + c*t^12 + d*t^15",
        "t^11 + a*t^12 + (c - b^2 + a^2*b)*t^15",
        "t^13 + (b - a^2)*t^15",
    ]
    a, b, c = raw(f, "a"), raw(f, "b"), raw(f, "c")
    assert f.generators[1][15] == c + a * a * b - b * b
    assert f.generators[2][15] == b - a * a


def test_monomial_cell_s31():
    m = GammaModule(E6, (0, 3, 4))
    f = canonical_family(m)
    assert f.dimension == 0
    assert f.format_generators() == ["t^6", "t^7", "t^8"]


def test_monomial_cell_s21():
    f = canonical_family(GammaModule(E6, (0, 3)))
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
        f = canonical_family(m)
        rows, _ = cell_matrix(f)
        entries = [e for row in rows for e in row.values()]
        grad = [[e.derivative(p) for p in f.free_params] for e in entries]
        ranks = []
        for _ in range(3):
            point = {
                p: Fraction(rng.randint(-1000, 1000), rng.randint(1, 97))
                for p in f.free_params
            }
            ranks.append(_reference_rank([[g.evaluate(point) for g in row] for row in grad]))
            assert specialized_orders(f, point) == tuple(m.members_below(m.conductor + 1)), (m.gap_set, point)
        assert max(ranks) == f.dimension, (m.gap_set, ranks, f.dimension)


def test_cell_dimensions():
    assert canonical_family(GammaModule(E6, (0,))).dimension == 0
    assert canonical_family(enumerate_colength(E6, 6)[-1]).dimension == 3
    assert canonical_family(GammaModule(E6, (0, 4, 8))).dimension == 2
    # E8 module generated by 5 alone
    s55 = GammaModule(E8, (0, 3, 6, 9, 12))
    assert s55.min_generators == (5,)
    assert canonical_family(s55).dimension == 3
    assert canonical_family(enumerate_colength(E8, 8)[-1]).dimension == 4


def test_families_with_eliminations_are_pinned():
    """sha256 of every family of ⟨4,5⟩ and ⟨3,7⟩ up to r = 12, ⟨5,6⟩ up to
    r = 6, ⟨4,7⟩ up to r = 7 and ⟨3,4,5⟩ up to r = 6: free parameters,
    eliminations, displayed orders and the stored normal forms with the
    truncation c(S).  19 of the 265 families eliminate a coefficient, which E6
    and E8 never do.  A family stores the normal forms of exactly the
    orders of S below the module's conductor c(S), each modulo t^{c(S)};
    at and above c(S) the normal form is the bare t^s, so a displayed
    generator there reads t^s.  The second digest leaves out the
    truncation and reads the displayed generators instead; it is the same
    as when every order up to c(S) + c(Γ) + 2δ was stored."""
    cases = (((4, 5), 12), ((3, 7), 12), ((5, 6), 6), ((4, 7), 7), ((3, 4, 5), 6))
    records = []
    displayed = []
    eliminating = 0
    for gens, r_max in cases:
        sg = NumericalSemigroup(gens)
        for r in range(1, r_max + 1):
            for m in enumerate_colength(sg, r):
                c = m.conductor
                f = canonical_family(m)
                eliminating += bool(f.eliminated)
                assert list(f.normal_forms) == m.members_below(c), (gens, m.gap_set)
                for nf in f.normal_forms.values():
                    assert max(nf) < c, (gens, m.gap_set)
                for s, text in zip(f.generator_orders, f.format_generators()):
                    if s >= c:
                        assert text == "t^%d" % s, (gens, m.gap_set, s)
                forms = [[s, c, format_series(nf)] for s, nf in f.normal_forms.items()]
                elim = sorted((k, v.format()) for k, v in f.eliminated.items())
                family = [list(m.gap_set), f.free_params, elim, f.generator_orders, forms]
                records.append([list(gens), r, family])
                forms = [[s, format_series(nf)] for s, nf in f.normal_forms.items()]
                family = [list(m.gap_set), f.free_params, elim, f.generator_orders, f.format_generators(), forms]
                displayed.append([list(gens), r, family])
    assert (len(records), eliminating) == (265, 19)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "1b9acbaf83d2aa41e53a3d3cee864343c43345c5377dbdecf4bb0e7e58557f95"
    digest = hashlib.sha256(json.dumps(displayed).encode()).hexdigest()
    assert digest == "47172949ec917dd076a4a86e609da04b4c23835982e385c26e2e3d746903f459"


def test_family_term_order_is_pinned():
    """sha256 of the raw term order of every family of E6 up to r = 6, E8 up
    to r = 8, ⟨4,5⟩ and ⟨3,7⟩ up to r = 12, ⟨5,6⟩ up to r = 6, ⟨4,7⟩ up to
    r = 7 and ⟨3,4,5⟩ up to r = 6: each eliminated coefficient's and each
    normal form's terms in stored order, which ``format`` sorts away.  Term
    order feeds the chart vector indices and so the order of the candidate
    faces."""

    def terms(p):
        return [[key, str(c)] for key, c in p.terms.items()]

    cases = (((3, 4), 6), ((3, 5), 8), ((4, 5), 12), ((3, 7), 12), ((5, 6), 6), ((4, 7), 7), ((3, 4, 5), 6))
    records = []
    forms = 0
    for gens, r_max in cases:
        sg = NumericalSemigroup(gens)
        for r in range(1, r_max + 1):
            for m in enumerate_colength(sg, r):
                f = canonical_family(m)
                elim = [[name, terms(f.eliminated[name])] for name in sorted(f.eliminated)]
                nfs = [[s, [[e, terms(nf[e])] for e in sorted(nf)]] for s, nf in f.normal_forms.items()]
                forms += len(nfs)
                records.append([list(gens), r, list(m.gap_set), f.free_params, elim, nfs])
    assert (len(records), forms) == (318, 723)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "937b5aa521f4a8a87ec7411138058a5f496cb9b0b19464f30187a3f8a30545df"


def test_families_are_pinned_free_of_term_order():
    """sha256 of every family of ⟨4,7⟩ up to r = 18, ⟨5,6⟩ up to r = 20 and
    ⟨5,7⟩ up to r = 14: generators, gaps, free parameters, eliminations and
    normal forms, each printed by ``format``, which sorts the terms.  174
    of the 1,016 families eliminate a coefficient, so this pins which
    relations are forced and how they are solved, whatever order a
    reduction leaves the terms in."""
    records = []
    eliminating = 0
    for gens, r_max in (((4, 7), 18), ((5, 6), 20), ((5, 7), 14)):
        sg = NumericalSemigroup(gens)
        for r in range(1, r_max + 1):
            for m in enumerate_colength(sg, r):
                f = canonical_family(m)
                eliminating += bool(f.eliminated)
                elim = sorted((k, v.format()) for k, v in f.eliminated.items())
                forms = [[s, format_series(nf)] for s, nf in f.normal_forms.items()]
                records.append([list(gens), list(m.gap_set), f.free_params, elim, forms])
    assert (len(records), eliminating) == (1016, 174)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "7a104b8c32e985febf807df1540106ceee4c1ebbdc3d9c487233e955df5fb3c7"


@pytest.mark.parametrize(
    "gaps,expected",
    [
        ((0, 5, 6, 10, 11, 12, 18, 24), [(0, 18, "c^3"), (1, 18, "-c^2")]),
        ((0, 5, 6, 10, 11, 12, 15, 20, 25), [(1, 20, "0"), (2, 20, "0")]),
    ],
)
def test_tied_relations_are_solved_lowest_order_first(gaps, expected):
    """Over ⟨5,6⟩ two cancelling pairs force different relations at the same
    lowest order: q00x018 + q01x018·q02x018 and q01x018 + q02x018² at t^24
    in the first module, −q01x020 and −q02x020 at t^25 in the second.  The
    pair of least order s, then least generator, is solved first, and the
    other relation is forced on the next round."""
    f = canonical_family(GammaModule(NumericalSemigroup((5, 6)), gaps))
    shown = [(d["generator"], d["exponent"], d["expression"]) for d in f.eliminated_display()]
    assert shown == expected


@pytest.mark.parametrize(
    "gens,gaps,relation",
    [
        ((4, 9), (0, 4, 8, 9, 13, 18, 27), "-q00x013*q01x018 + q01x018^2"),
        (
            (4, 9),
            (0, 4, 8, 9, 12, 13, 17, 18, 22, 27, 31),
            "-q00x017*q01x022 + q00x017*q02x027 - q01x022*q02x027 + q01x022^2",
        ),
        ((4, 9), (0, 4, 8, 9, 12, 13, 16, 18, 20, 24, 28, 32), "q00x018*q02x028"),
        (
            (6, 7),
            (0, 6, 7, 12, 13, 14, 20, 21, 28, 35),
            "-q00x020*q01x021 + q01x021^2 + q00x020*q01x020*q02x028 - q00x020*q02x028^2"
            " - q01x020*q01x021*q02x028 - q01x020^2*q01x021 + q01x021*q02x028^2"
            " - q01x020^2*q02x028^2 + q01x020^3*q02x028",
        ),
        ((6, 7), (0, 6, 7, 12, 13, 14, 18, 21, 24, 30, 36), "q00x021*q02x030 + q01x021^2*q02x030"),
    ],
)
def test_relation_linear_in_no_parameter_is_refused(gens, gaps, relation):
    """The only modules of ⟨4,9⟩ up to r = 14 and ⟨6,7⟩ up to r = 12 whose
    forced relation is affine with a constant coefficient in no parameter:
    the family is refused with that relation, not built wrong."""
    m = GammaModule(NumericalSemigroup(gens), gaps)
    with pytest.raises(NonTriangularRelation) as info:
        canonical_family(m)
    assert str(info.value) == "relation %s is not linear in any parameter" % relation


def test_genuine_elimination_45():
    """Over <4,5> one seed coefficient is forced to a value, not kept free."""
    sg = NumericalSemigroup((4, 5))
    m = GammaModule(sg, (0, 4, 5, 10, 15))
    assert m.min_generators == (8, 9)
    f = canonical_family(m)
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
    f = canonical_family(m)
    assert f.dimension == 2
    assert f.eliminated_display() == [
        {"generator": 0, "exponent": 7, "expression": "0"}
    ]
    assert f.format_generators() == ["t^6 + a*t^14", "t^10 + b*t^14"]


def test_plucker_monomial_cell():
    m = GammaModule(E6, (0, 3, 4))
    f = canonical_family(m)
    rows, pivots = cell_matrix(f)
    assert plucker_point(rows, pivots, minor_support(rows)) == (ParamPoly.one(),)
    assert build_cell(m).plucker == {(3, 4, 5): ParamPoly.one()}


def test_build_cell_makes_one_pass(monkeypatch):
    """``build_cell`` computes the Δ-set, the cell matrix and the minor
    support once per cell, whichever module the second call would come
    from: the window [r, r + 2δ) is read once, by ``delta_set``."""
    calls = []
    for name in ("cell_matrix", "delta_set", "minor_support"):
        original = getattr(ideal_cells, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (gamma_modules, ideal_cells, closure_analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    mods = enumerate_colength(E8, 5)
    for m in mods:
        build_cell(m)
    assert sorted(calls) == ["cell_matrix"] * len(mods) + ["delta_set"] * len(mods) + ["minor_support"] * len(mods)


def test_plucker_degeneration_of_s22():
    """At a = 0 the one-dimensional cell lands on the monomial point of Δ_3."""
    m = GammaModule(E6, (0, 4))
    cell = build_cell(m)
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
        forms = [family.normal_forms[s] if s < cell.module.conductor else {s: ParamPoly.one()} for s in orders]
        dense = [[nf.get(e + r, ParamPoly.zero()) for e in range(dd)] for nf in forms]
        assert cell.delta == tuple(s - r for s in orders)
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
        assert cell.delta in cell.plucker


@pytest.mark.parametrize(
    "sg,gaps,r",
    [
        (E6, (0, 4, 8), 3),
        (E6, (0, 3, 4, 7, 8, 11), 6),
        (E8, (0, 3, 5, 6, 9, 10, 12, 15), 8),
    ],
)
def test_goodness_of_fixture_cells(sg, gaps, r):
    f = canonical_family(GammaModule(sg, gaps))
    rows, pivots = cell_matrix(f)
    assert is_good_subspace(rows, pivots, sg)


def test_tampered_rows_are_not_good():
    f = canonical_family(GammaModule(E6, (0, 3, 4)))
    rows, pivots = cell_matrix(f)
    assert is_good_subspace(rows, pivots, E6)
    assert 0 not in rows[0]
    bad = [{0: ParamPoly.one(), **rows[0]}] + rows[1:]
    assert not is_good_subspace(bad, pivots, E6)


@pytest.mark.parametrize(
    "gens,r_max",
    [((3, 4), 6), ((3, 5), 8), ((4, 7), 3), ((2, 3), 2), ((1,), 1)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else "r%d" % v,
)
def test_cell_matrix_windows_past_both_conductors_are_refused(gens, r_max):
    """The cell matrix reads only the window at r = the colength of S, so a
    window past both conductors cannot be asked for.  In that matrix the
    row of each order at or above c(S), which the family does not store, is
    the unit row of the bare t^s."""
    sg = NumericalSemigroup(gens)
    one = ParamPoly.one()
    unit = 0
    for r in range(r_max + 1):
        for m in enumerate_colength(sg, r):
            rows, pivots = cell_matrix(canonical_family(m))
            for row, p in zip(rows, pivots):
                if p + r >= m.conductor:
                    assert row == {p: one}, (m.gap_set, p)
                    unit += 1
    assert unit or sg.delta == 0


@pytest.mark.parametrize(
    "gens,r",
    [((3, 4), r) for r in range(1, 9)]
    + [((3, 5), r) for r in range(1, 9)]
    + [((4, 5), r) for r in range(1, 9)]
    + [((3, 7), r) for r in range(1, 9)]
    + [((4, 7), r) for r in range(1, 5)]
    + [((5, 6), r) for r in range(1, 5)]
    + [((3, 4, 5), r) for r in range(1, 7)]
    + [((4, 5), 12), ((3, 7), 12), ((4, 7), 10), ((2, 13), 12)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_unit_rows_keep_support_and_term_order(cells_of, gens, r):
    """The bottom-up sweeps, in which a unit row or any pivot entry costs
    no arithmetic, give what the top-down DFS and Laplace expansion over
    all rows give: the same column sets, and each coordinate the same
    terms in the same order, so every chart's vector indices stay.  A
    column set outside the support gives zero."""
    for cell in cells_of(gens, r):
        support = minor_support(cell.rows)
        assert support == _reference_minor_support(cell.rows), cell.module.gap_set
        got = plucker_point(cell.rows, cell.delta, support)
        want = _reference_plucker_point(cell.rows, cell.delta, support)
        for cols, p, q in zip(support, got, want):
            assert list(p.terms.items()) == list(q.terms.items()), (cell.module.gap_set, cols)
        inside = set(support)
        cols = next(c for c in combinations(range(2 * len(cell.rows)), len(cell.rows)) if c not in inside)
        assert plucker_point(cell.rows, cell.delta, [cols]) == (ParamPoly.zero(),)


@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda s, t: {s: ParamPoly.constant(2)}, "row 1 has no unit pivot"),
        (lambda s, t: {s - 1: ParamPoly.variable("z")}, "row 1 has support below its pivot"),
        (lambda s, t: {t: ParamPoly.variable("z")}, "pivot column %d not reduced"),
    ],
    ids=["unit-pivot", "below-pivot", "unreduced"],
)
def test_cell_matrix_pivot_guards(tamper, message):
    """Each ``PivotLoss`` guard of ``cell_matrix`` fires on normal forms
    tampered to break it: row 1's pivot entry is not 1, it has an entry
    below its pivot, or it reaches row 2's pivot column.  Row 1's order is
    at or above the module's conductor, so its normal form, the bare t^s,
    is not stored: the tampered one is inserted."""
    family = canonical_family(GammaModule(E8, (0, 3, 5)))
    r = 3
    _, pivots = cell_matrix(family)
    s, t = pivots[1] + r, pivots[2] + r
    assert s - 1 > pivots[0] + r
    assert s >= family.module.conductor and s not in family.normal_forms
    family.normal_forms[s] = {s: ParamPoly.one(), **tamper(s, t)}
    with pytest.raises(PivotLoss, match=message.replace("%d", str(t - r))):
        cell_matrix(family)


@pytest.mark.parametrize(
    "gens,r",
    [((3, 4), r) for r in range(1, 7)]
    + [((3, 5), r) for r in range(1, 9)]
    + [((4, 5), r) for r in range(1, 13)]
    + [((3, 7), r) for r in range(1, 13)]
    + [((3, 4, 5), r) for r in range(1, 7)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_normal_forms_are_untruncated_rows_and_single_swap_minors(cells_of, gens, r):
    """What lets the closure search take its candidates from the Plücker
    point alone.  The largest gap x of S is below r + 2δ: every y ∈ Γ with
    x − y ∈ Γ is a gap of S, and at most 2δ values of y in [0, x] fail
    that.  With min S ≥ r, every stored normal form is then the whole
    cell-matrix row at its order, shifted down by r, its coefficients in
    ascending order of exponent.  And each off-pivot entry, times its
    sign, is its single-swap Plücker coordinate, term for term in order."""
    for cell in cells_of(gens, r):
        module, family = cell.module, cell.family
        assert max(module.gap_set) < r + 2 * module.ambient.delta, module.gap_set
        row_at = {p + r: row for p, row in zip(cell.delta, cell.rows)}
        for s, nf in family.normal_forms.items():
            assert list(row_at[s].items()) == [(e - r, nf[e]) for e in sorted(nf)], (module.gap_set, s)
        for cols, sign, entry in cell.entry_minors:
            got = list((entry * sign).terms.items())
            assert got == list(cell.plucker[cols].terms.items()), (module.gap_set, cols)
