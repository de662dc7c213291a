"""Closure verdicts, degeneration certificates, component assembly."""

import hashlib
import json
from itertools import product
from types import SimpleNamespace

import pytest

from hilbstrat import (
    GammaModule,
    HilbstratError,
    NumericalSemigroup,
    ParamPoly,
    build_cell,
    cell_closure_contains,
    closure_verdicts,
    components,
    degeneration_limit,
    enumerate_colength,
    replay_certificate,
    stratify,
)
from hilbstrat import closure_analysis
from hilbstrat.closure_analysis import CONTAINED, NOT_CONTAINED, UNKNOWN
from hilbstrat.ideal_cells import minor_support, plucker_point
from conftest import _reference_match, _reference_rank
from test_newton import _reference_face_lattice

E6 = (3, 4)
E8 = (3, 5)
# the replacement b -> w01 = a^2 - b of the top cell of E6 r=6
B_BY_W01 = [{"parameter": "b", "coordinate": "w01", "expression": "-b + a^2"}]


def test_reflexivity(cells_of):
    for c in cells_of(E6, 3):
        v = cell_closure_contains(c, c)
        assert v.status == CONTAINED


def test_e6_r2_degeneration(cells_of):
    """The 1-dimensional cell degenerates onto the monomial cell via a -> u/s."""
    src, dst = cells_of(E6, 2)[1], cells_of(E6, 2)[0]
    v = cell_closure_contains(src, dst)
    assert v.status == CONTAINED
    cert = v.certificate
    assert cert["replacements"] == []
    assert cert["exponents"] == [-1]
    assert cert["substitution"] == {"a": "u00*s^-1"}
    assert replay_certificate(src, dst, cert)


def test_e6_r2_limit_lands_on_target(cells_of):
    src, dst = cells_of(E6, 2)[1], cells_of(E6, 2)[0]
    lim = degeneration_limit(src, [], [-1])
    assert lim == {dst.delta: ParamPoly.variable("u00")}


def test_closure_is_asked_within_one_stratum(cells_of):
    """Closure is a relation inside one ℳ_r.  A pair of cells of different
    colengths, or over different semigroups, raises ``ValueError``, and a
    certificate for it replays False.  The certificate below certifies
    E6 r=3 (0,3,6) -> r=4 (0,3,4,6) when the search runs without the guard."""
    by_gaps = {c.module.gap_set: c for r in (3, 4) for c in cells_of(E6, r)}
    src, dst = by_gaps[0, 3, 6], by_gaps[0, 3, 4, 6]
    searched = (closure_analysis._search_system(src, dst, system) for system in closure_analysis._systems(src))
    cert = next(filter(None, searched))
    assert cert == {
        "replacements": [],
        "exponents": [-1],
        "substitution": {"a": "u00*s^-1"},
        "target_pivots": [3, 4, 5],
        "witness": {},
    }
    with pytest.raises(ValueError, match="different strata"):
        cell_closure_contains(src, dst)
    assert not replay_certificate(src, dst, cert)
    e8 = next(c for c in cells_of(E8, 3) if c.module.gap_set == (0, 3, 6))
    for a, b in ((src, e8), (e8, src)):
        with pytest.raises(ValueError, match="different strata"):
            cell_closure_contains(a, b)
        assert not replay_certificate(a, b, cert)
    assert cell_closure_contains(src, src).status == CONTAINED


def test_e6_r3_dimension_reject(cells_of):
    cells = cells_of(E6, 3)
    src, dst = cells[1], cells[2]
    assert src.dim == 1 and dst.dim == 2
    v = cell_closure_contains(src, dst)
    assert v.status == NOT_CONTAINED
    assert v.reason == "dimension"
    # the other direction is a genuine containment
    back = cell_closure_contains(dst, src)
    assert back.status == CONTAINED


def test_e6_r6_needs_adapted_coordinates(cells_of):
    """The top cell reaches the <4>-cell only after replacing b by b - a^2."""
    cells = cells_of(E6, 6)
    v = cell_closure_contains(cells[4], cells[2])
    assert v.status == CONTAINED
    cert = v.certificate
    assert cert["replacements"] == B_BY_W01
    assert cert["exponents"] == [-1, -1, -3]
    assert replay_certificate(cells[4], cells[2], cert)


def test_replay_rejects_malformed_certificates(cells_of):
    """A replay re-derives the whole certificate: an exponent list of the
    wrong length, replacements that name no chart of the source, an extra
    key or any other recorded field changed certifies nothing.  Nor does a
    float or bool exponent, target pivot or witness value, though it
    compares equal to the int."""
    cells = cells_of(E6, 6)
    src, dst = cells[4], cells[2]
    cert = cell_closure_contains(src, dst).certificate
    assert cert["replacements"] == B_BY_W01 and cert["exponents"] == [-1, -1, -3]
    (entry,) = cert["replacements"]
    unnamed = [
        "-b + a^2",
        [entry, entry],  # b replaced twice, which no search builds
        [list(entry.items())],
        [dict(entry, coordinate="w00")],
        [dict(entry, parameter="a")],
        [dict(entry, expression="b - a^2")],
        [dict(entry, extra=0)],
    ]
    malformed = [
        {"exponents": [-1, -1, -3, 7]},
        {"exponents": [-1, -1]},
        {"witness": {u: "0" for u in cert["witness"]}},
        {"target_pivots": [0, 1, 2]},
        {"substitution": {}},
        {"replacements": []},
        {"system": 1},
        {"exponents": ["-1", "-1", "-3"]},
        {"exponents": [-1.0, -1.0, -3.0]},
        {"exponents": [-1, True, -3]},
        {"exponents": (-1, -1, -3)},
        {"exponents": "-1,-1,-3"},
        {"target_pivots": [2.0, 3.0, 5.0]},
        {"target_pivots": (2, 3, 5)},
        {"witness": {u: float(x) for u, x in cert["witness"].items()}},
        {"witness": list(cert["witness"].items())},
    ] + [{"replacements": bad} for bad in unnamed]
    for bad in malformed:
        assert not replay_certificate(src, dst, dict(cert, **bad)), bad
    # target pivot 1 written as True
    low = cell_closure_contains(src, cells[3]).certificate
    assert low["target_pivots"] == [1, 4, 5] and replay_certificate(src, cells[3], low)
    assert not replay_certificate(src, cells[3], dict(low, target_pivots=[True, 4, 5]))
    # a certificate read from outside may lack fields or not be a mapping
    for key in cert:
        assert not replay_certificate(src, dst, {k: v for k, v in cert.items() if k != key}), key
    for bad in ({}, None, [], "certificate", list(cert.items())):
        assert not replay_certificate(src, dst, bad), bad
    assert replay_certificate(src, dst, cert)
    assert replay_certificate(src, dst, json.loads(json.dumps(cert)))
    with pytest.raises(ValueError):
        degeneration_limit(src, B_BY_W01, [-1, -1, -3, 7])
    for bad in unnamed:
        with pytest.raises(ValueError):
            degeneration_limit(src, bad, [-1, -1, -3])
    # a chain nested 1000 deep, each level through the third of cells 0, 1
    # and 2 of E8 r=8 (dimensions 0, 1, 2): the second level, (2, 1) through
    # cell 0, has no middle cell of dimension between its ends, so the replay
    # is False there instead of recursing through every level
    top = cells_of(E8, 8)
    nested = {}
    for level in reversed(range(1000)):  # level 0, outermost, is (2, 0) through 1
        mid = 1 - level % 2
        nested = {"gaps": list(top[mid].module.gap_set), "links": [nested, {}]}
    assert not replay_certificate(top[2], top[0], nested)


def test_replacements_that_name_a_solved_parameter_do_not_compose():
    """c via w0 = c + b, b via w1 = b + a^2 and a via w2 = a + c^2 solve in
    the order c, b, a, and a's value names b through c's: the mapping is not
    triangular, and back-substitution would leave a in every value.  Such a
    list does not compose; its two-entry sublists do."""
    a, b, c = (ParamPoly.variable(nm) for nm in "abc")
    pairs = [("c", c + b, "w0"), ("b", b + a**2, "w1"), ("a", a + c**2, "w2")]
    assert closure_analysis._compose_replacements(pairs) is None
    for k in range(3):
        sub = pairs[:k] + pairs[k + 1 :]
        mapping = closure_analysis._compose_replacements(sub)
        assert not set(mapping) & {nm for v in mapping.values() for nm in v.variables()}
        for _, expr, wname in sub:
            assert expr.subs(mapping) == ParamPoly.variable(wname)


def test_replay_rejects_replacements_that_do_not_compose():
    """⟨4,5⟩ r=7, cell 8: two of its candidate replacements, each alone a
    chart, do not compose, so no search builds their chart.  A certificate
    naming them replays False and has no limit.  Only the cell is built."""
    sg = NumericalSemigroup((4, 5))
    src = build_cell(enumerate_colength(sg, 7)[8])
    named = [
        {"parameter": "b", "coordinate": "w01", "expression": "-b + a^2"},
        {"parameter": "c", "coordinate": "w02", "expression": "b*d + a*b*c - a^2*d"},
    ]
    cands = closure_analysis._candidate_replacements(src)
    pairs = [next(p for p in cands if closure_analysis._describe(p, src.family) == entry) for entry in named]
    assert closure_analysis._compose_replacements(pairs) is None
    for entry in named:
        assert closure_analysis._recorded_chart(src, [entry]) is not None
    assert closure_analysis._recorded_chart(src, named) is None
    exponents = [-1] * len(src.family.free_params)
    cert = {"replacements": named, "exponents": exponents, "substitution": {}, "target_pivots": [], "witness": {}}
    assert not replay_certificate(src, src, cert)
    with pytest.raises(ValueError):
        degeneration_limit(src, named, exponents)


def test_degeneration_limit_takes_exponents_as_replay_does(cells_of):
    """Exponents that are not a list of ``int``, bools included, replay False
    and give no limit."""
    cells = cells_of(E6, 6)
    src, dst = cells[4], cells[2]
    cert = cell_closure_contains(src, dst).certificate
    for bad in (["1", 0, 0], [1.5, 0, 0], 5, None, [True, 0, 0]):
        assert not replay_certificate(src, dst, dict(cert, exponents=bad)), bad
        with pytest.raises(ValueError):
            degeneration_limit(src, B_BY_W01, bad)


def test_e6_r6_adapted_limit_respects_target_zeros(cells_of):
    cells = cells_of(E6, 6)
    src, dst = cells[4], cells[2]
    lim = degeneration_limit(src, B_BY_W01, [-1, -1, -3])
    assert not lim[dst.delta].is_zero()
    # every coordinate that vanishes on the target vanishes in the limit
    assert set(lim) <= set(dst.plucker)


def test_e8_r5_wide_window_containment(cells_of):
    """One containment needs a minor-derived coordinate and exponent -5."""
    cells = cells_of(E8, 5)
    src, dst = cells[4], cells[2]
    v = cell_closure_contains(src, dst)
    assert v.status == CONTAINED
    cert = v.certificate
    assert cert["exponents"] == [-1, -3, -5]
    assert cert["replacements"][0]["expression"] == "a*c - b^2"
    assert replay_certificate(src, dst, cert)


def test_e8_r5_pivot_coordinate_reject(cells_of):
    cells = cells_of(E8, 5)
    src, dst = cells[3], cells[1]
    assert src.module.gap_set == (0, 3, 5, 8, 10)
    assert dst.module.gap_set == (0, 3, 5, 6, 9)
    v = cell_closure_contains(src, dst)
    assert v.status == NOT_CONTAINED
    assert v.reason == "support"
    # the rejection is forced: the source point never charges the target pivot
    assert dst.delta not in src.plucker


def test_e8_r8_top_cell_containments(cells_of):
    cells = cells_of(E8, 8)
    for j in (4, 5):
        v = cell_closure_contains(cells[6], cells[j])
        assert v.status == CONTAINED
        assert v.certificate["exponents"] == [-1, -1, -2, -4]
        assert replay_certificate(cells[6], cells[j], v.certificate)


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_systems_rename_like_substitution(cells_of, gens, r_max):
    """Each coordinate's (exponent vector, coefficient) pairs in a system's
    table are the terms that substituting the replacements and then the
    u-variables gives, term for term and in the same order; the distinct
    vectors are numbered by first appearance, and each mask holds the
    indices of its coordinate's vectors."""
    for r in range(1, r_max + 1):
        for cell in cells_of(gens, r):
            systems = closure_analysis._systems(cell)
            if cell is cells_of(E8, 8)[6]:  # the top cell of E8 r=8
                assert len(systems) == 8
            for system in systems:
                mapping = closure_analysis._compose_replacements(system.replacements)
                to_u = {c: ParamPoly.variable(u) for c, u in zip(system.coords, system.uvars)}
                assert list(system.terms) == list(system.masks) == list(cell.plucker)
                seen = []
                for cols, p in cell.plucker.items():
                    want = p.subs(mapping).subs(to_u)
                    vectors = [tuple(dict(key).get(u, 0) for u in system.uvars) for key in want.terms]
                    got = [(system.uniq_exps[j], c) for j, c in system.terms[cols]]
                    assert got == list(zip(vectors, want.terms.values()))
                    assert system.masks[cols] == sum(1 << j for j, _ in system.terms[cols])
                    seen += [v for v in vectors if v not in seen]
                assert system.uniq_exps == seen


def test_every_chart_has_the_coordinates_it_names(cells_of):
    """Each coordinate w of a chart equals its named expression at the
    chart's mapping, so the replacements a certificate records are the
    chart's coordinates.  An expression that holds its parameter to a
    negative power, as ⟨4,5⟩ r=9's a + d^2 does once d = (w03 + b) / a is
    substituted, is refused rather than solved from its other terms: 12
    charts on these strata were built that way, and 379 with replacements
    remain."""
    strata = (
        [(E6, r) for r in range(1, 7)]
        + [(E8, r) for r in range(1, 9)]
        + [((4, 5), r) for r in range(1, 13)]
        + [((4, 7), 9), ((4, 7), 10), ((5, 6), 9)]
    )
    charts = 0
    for gens, r in strata:
        for cell in cells_of(gens, r):
            for system in closure_analysis._systems(cell):
                mapping = closure_analysis._compose_replacements(system.replacements)
                for _, expr, wname in system.replacements:
                    assert expr.subs(mapping) == ParamPoly.variable(wname), (gens, r, cell.module.gap_set, wname)
                charts += bool(system.replacements)
    assert charts == 379


def test_charts_are_pinned(cells_of):
    """sha256 over every coordinate system of E8 r=8, <4,5> r=8 and <4,5>
    r=12: each chart's gap set, replacements as a certificate records them,
    distinct exponent vectors and terms, in order.  The vector indices and
    the term order fix the order of the candidate faces, so a chart that is
    built another way must give this table exactly."""
    records = []
    replaced = 0
    for gens, r in ((E8, 8), ((4, 5), 8), ((4, 5), 12)):
        for cell in cells_of(gens, r):
            for system in closure_analysis._systems(cell):
                replaced += bool(system.replacements)
                described = [closure_analysis._describe(pair, cell.family) for pair in system.replacements]
                terms = [[list(cols), [[j, str(c)] for j, c in items]] for cols, items in system.terms.items()]
                vectors = [list(v) for v in system.uniq_exps]
                records.append([list(gens), r, list(cell.module.gap_set), described, vectors, terms])
    assert (len(records), replaced) == (104, 72)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "d6e4d035d93ba169756d11f18883bca145fc1fd001a17459ebea055c9d3c4c3d"


CANDIDATE_STRATA = (
    [(E6, r) for r in range(1, 7)]
    + [(E8, r) for r in range(1, 9)]
    + [((4, 5), r) for r in range(1, 13)]
    + [((3, 7), r) for r in range(1, 13)]
    + [((5, 6), r) for r in range(1, 11)]
    + [((4, 7), r) for r in range(1, 15)]
    + [((2, 13), 12), ((2, 15), 14), ((3, 8), 14)]
    + [((3, 4, 5), r) for r in range(1, 7)]
)


def test_candidate_replacements_are_pinned(cells_of):
    """sha256 over ``_candidate_replacements`` of every cell of 71 strata:
    each candidate's parameter, coordinate and terms, in order.
    ``MAX_SYSTEMS`` cuts the subsets of this list, so its order decides
    which charts are searched on every stratum, not only the few whose
    charts ``test_charts_are_pinned`` hashes.  The first digest sorts each
    candidate's terms, so a family stored in another term order moves only
    the second."""
    records = []
    count = 0
    for gens, r in CANDIDATE_STRATA:
        for cell in cells_of(gens, r):
            cands = closure_analysis._candidate_replacements(cell)
            count += len(cands)
            described = [
                [param, wname, [[[list(f) for f in key], str(c)] for key, c in p.terms.items()]]
                for param, p, wname in cands
            ]
            records.append([list(gens), r, list(cell.module.gap_set), described])
    assert (len(records), count) == (564, 1638)
    # the same records with each candidate's terms sorted: the list and its order, not the term order
    unordered = [rec[:3] + [[[param, wname, sorted(terms)] for param, wname, terms in rec[3]]] for rec in records]
    digest = hashlib.sha256(json.dumps(unordered).encode()).hexdigest()
    assert digest == "50f8619be48073ebb5ba0d9d94fce4b01018ed253e98767133f3e6d4dcbde235"
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "17adf0012810c41769134fae330dc3de68d0f43f9e0740e4f2e96c832f63caee"


def test_compositions_are_pinned(cells_of, monkeypatch):
    """sha256 over ``_compose_replacements`` of every replacement list that
    ``_systems`` passes to ``_chart`` on the 71 candidate strata: each
    mapping's parameters and their values' terms, in order, or None.  The
    term order sets a chart's vector indices, and ``test_charts_are_pinned``
    hashes the charts of only three strata.  The first digest sorts each
    value's terms, so a family stored in another term order moves only
    the second."""
    passed = []
    monkeypatch.setattr(closure_analysis, "_chart", lambda cell, pairs: passed.append((cell, pairs)))
    for gens, r in CANDIDATE_STRATA:
        for cell in cells_of(gens, r):
            kept, cell.systems_cache = cell.systems_cache, None
            closure_analysis._systems(cell)
            cell.systems_cache = kept
    records = []
    for cell, pairs in passed:
        mapping = closure_analysis._compose_replacements(pairs)
        if mapping is not None:
            mapping = [[p, [[[list(f) for f in key], str(c)] for key, c in v.terms.items()]] for p, v in mapping.items()]
        records.append([list(cell.module.ambient.gens), cell.r, list(cell.module.gap_set), mapping])
    assert (len(records), sum(m is None for *_, m in records)) == (2072, 80)
    # the same records with each value's terms sorted: the mappings, not their term order
    unordered = [rec[:3] + [rec[3] and [[p, sorted(terms)] for p, terms in rec[3]]] for rec in records]
    digest = hashlib.sha256(json.dumps(unordered).encode()).hexdigest()
    assert digest == "de3bffa1ab00100fa5cdd9fc94f3aa0701ac0720d48af2bceaac1335e9eec7d4"
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "d81b71f1420098d26ce99b152afcb80933dcbe949e329f5d801dd7769e3c0df2"


@pytest.mark.parametrize(
    "gens,r,i,j,reason",
    [
        ((4, 7), 9, 7, 3, "support"),
        ((4, 7), 9, 13, 6, "support"),
        ((4, 7), 9, 13, 11, "support"),
        ((4, 7), 10, 7, 3, "support"),
        ((5, 6), 8, 10, 3, "support"),
        ((5, 6), 8, 10, 8, "support"),
        ((5, 6), 9, 8, 5, "support"),
        ((4, 5), 7, 6, 2, "no_face"),
        ((3, 7), 8, 8, 4, "no_face"),
    ],
)
def test_support_separates_exactly_where_a_target_coordinate_vanishes_on_the_source(gens, r, i, j, reason):
    """A Plücker coordinate that is identically zero on the source vanishes on
    its closure, so a target on which it is nonzero is not contained.  The
    two known non-containments ⟨4,5⟩ r=7, 6 -> 2 and ⟨3,7⟩ r=8, 8 -> 4 have
    the target's support inside the source's and stay no_face.  Only the
    two cells of each pair are built."""
    sg = NumericalSemigroup(gens)
    mods = enumerate_colength(sg, r)
    src, dst = (build_cell(mods[k]) for k in (i, j))
    v = cell_closure_contains(src, dst)
    assert v.reason == reason
    assert v.status == (NOT_CONTAINED if reason == "support" else UNKNOWN)
    assert (reason == "support") == any(cols not in src.plucker for cols in dst.plucker)


def test_schubert_reject():
    """Where the Schubert order fails, the support check rejects: the
    target's pivot minor vanishes on the source."""
    sg = NumericalSemigroup((4, 5))
    mods = enumerate_colength(sg, 6)
    src = build_cell(mods[7])
    dst = build_cell(mods[5])
    assert dst.dim < src.dim
    assert not all(y >= x for x, y in zip(src.schubert, dst.schubert))
    v = cell_closure_contains(src, dst)
    assert v.status == NOT_CONTAINED
    assert v.reason == "support"
    assert dst.delta not in src.plucker


def test_each_face_is_matched_once(monkeypatch):
    """Within one coordinate system a limit vector keeps exactly the terms of
    its face, so distinct faces give distinct limits: no limit may reach
    the target match twice.  In ⟨4,7⟩ r=10 the search of 18 -> 6 judges
    twelve faces over six systems.  Only the two cells are built."""
    sg = NumericalSemigroup((4, 7))
    mods = enumerate_colength(sg, 10)
    src, dst = (build_cell(mods[k]) for k in (18, 6))
    calls = []
    current = []
    search = closure_analysis._search_system
    match = closure_analysis._match_target

    def counting_search(src, dst, system, *args, **kwargs):
        current[:] = [system]
        return search(src, dst, system, *args, **kwargs)

    def counting_match(limit, dst):
        face = tuple((cols, tuple(sorted(p.terms))) for cols, p in limit.items())
        calls.append((id(current[0]), face))
        return match(limit, dst)

    monkeypatch.setattr(closure_analysis, "_search_system", counting_search)
    monkeypatch.setattr(closure_analysis, "_match_target", counting_match)
    v = cell_closure_contains(src, dst)
    assert v.status == CONTAINED
    system = closure_analysis._systems(src)[5]
    assert current == [system]
    assert v.certificate["replacements"] == [closure_analysis._describe(p, src.family) for p in system.replacements]
    assert len(calls) == 12
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "gens,faces", [(E6, 29), (E8, 255), ((4, 5), 825), ((3, 7), 600)], ids=["3x4", "3x5", "4x5", "3x7"]
)
def test_entry_match_agrees_with_the_full_plucker_match(cells_of, gens, faces):
    """On every candidate face of every ordered pair of distinct cells, r <= 8
    (up to 2δ for E6), the match on the target's cell-matrix entries and
    the reference match on its whole Plücker point agree: both None, or
    the same (n, q).  The limit holds every coordinate that meets the
    face, as the reference needs."""
    seen = 0
    for r in range(1, min(8, 2 * NumericalSemigroup(gens).delta) + 1):
        cells = cells_of(gens, r)
        for src, dst in product(cells, repeat=2):
            if src is dst:
                continue
            for system in closure_analysis._systems(src):
                for face in closure_analysis._candidate_faces(dst, system):
                    limit = {
                        cols: closure_analysis._polynomial(system, items, face)
                        for cols, items in system.terms.items()
                        if face & system.masks[cols]
                    }
                    assert closure_analysis._match_target(limit, dst) == _reference_match(limit, dst), (r, face)
                    seen += 1
    assert seen == faces


@pytest.mark.parametrize("gens,r_max,altered", [(E6, 6, 2), (E8, 8, 5), ((4, 5), 8, 25)], ids=["3x4", "3x5", "4x5"])
def test_match_rejects_a_point_off_the_target(cells_of, gens, r_max, altered):
    """Adding 1 to a stored entry of the target's cell matrix that is not a
    bare parameter keeps the unit pivots and the bare parameters, so the
    altered rows span a point of the Grassmannian whose n is the
    parameters and whose q is 1, but one entry is no longer the target's
    at n: the point is off the target cell.  Both matches reject its
    Plücker point."""
    seen = 0
    for r in range(1, r_max + 1):
        for dst in cells_of(gens, r):
            for ri, row in enumerate(dst.rows):
                for col, entry in row.items():
                    names = entry.variables()
                    if col == dst.delta[ri] or (len(names) == 1 and entry == ParamPoly.variable(names[0])):
                        continue
                    rows = [dict(other) for other in dst.rows]
                    rows[ri][col] = entry + 1
                    support = minor_support(rows)
                    minors = zip(support, plucker_point(rows, dst.delta, support))
                    limit = {cols: p for cols, p in minors if not p.is_zero()}
                    assert closure_analysis._match_target(limit, dst) is None, (r, ri, col)
                    assert _reference_match(limit, dst) is None, (r, ri, col)
                    seen += 1
    assert seen == altered


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_certified_faces_are_viable(cells_of, gens, r_max):
    """Soundness of skipping: the face of every certificate is in the
    system's face lattice (the reference's) and passes the viability test."""
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for (i, j), v in _verdicts(cells).items():
            if v.status != CONTAINED:
                continue
            cert = v.certificate
            system = closure_analysis._recorded_chart(cells[i], cert["replacements"])
            dots = [sum(e * a for e, a in zip(cert["exponents"], alpha)) for alpha in system.uniq_exps]
            face = frozenset(k for k, d in enumerate(dots) if d == min(dots))
            assert face in _reference_face_lattice(system.uniq_exps), (r, i, j)
            mask = sum(1 << k for k in face)
            assert mask in closure_analysis._candidate_faces(cells[j], system), (r, i, j)
            assert closure_analysis._judge(cells[j], system, mask) is not None, (r, i, j)


@pytest.mark.parametrize("gens,r,i,j", [((4, 5), 7, 6, 2), ((3, 7), 6, 6, 5), ((3, 7), 8, 8, 4)])
def test_no_viable_face_is_not_a_search_limit(cells_of, gens, r, i, j):
    """When no viable face exists in the coordinate systems tried, the
    unknown says so.  ⟨4,5⟩ r=7, 6 -> 2 and ⟨3,7⟩ r=8, 8 -> 4 are known
    non-containments.  ⟨3,7⟩ r=6, 6 -> 5 is a containment, certified by a
    system beyond ``MAX_SYSTEMS``; it is pinned here until the search
    chooses its coordinate systems by need."""
    cells = cells_of(gens, r)
    v = cell_closure_contains(cells[i], cells[j])
    assert v.status == UNKNOWN
    assert v.reason == "no_face"
    assert v.certificate is None


def _l1_lex(k, window):
    """Every vector of [-window, window]^k in (L1, lex) order."""
    return sorted(product(range(-window, window + 1), repeat=k), key=lambda v: (sum(map(abs, v)), v))


def _vector_loop_certificate(src, dst, vectors):
    """The vector loop that preceded the face search, kept as the reference: draw
    ``vectors`` (a window in (L1, lex) order), take each vector's face over
    all exponents, and certify at the first vector whose face is a viable
    candidate.  A system without a viable candidate face is skipped."""
    for system in closure_analysis._systems(src):
        candidates = set(closure_analysis._candidate_faces(dst, system))
        if not any(closure_analysis._judge(dst, system, face) for face in candidates):
            continue
        tried = set()
        for evec in vectors:
            dots = [sum(e * a for e, a in zip(evec, alpha)) for alpha in system.uniq_exps]
            face = sum(1 << j for j, d in enumerate(dots) if d == min(dots))
            if face in tried:
                continue
            tried.add(face)
            judged = closure_analysis._judge(dst, system, face) if face in candidates else None
            if judged is not None:
                return closure_analysis._certify(src, dst, system, judged, evec)
    return None


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_face_walk_certifies_like_the_vector_loop(cells_of, gens, r_max):
    """Every E6 and E8 certificate up to 2δ is in the coordinate system the
    old vector loop certifies in, and both certificates replay.  The
    exponents differ where the loop's first vector is not e_F."""
    orders = {}
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for (i, j), v in _verdicts(cells).items():
            if v.status == CONTAINED and v.reason == "degeneration":
                k = len(cells[i].family.free_params)
                if k not in orders:
                    orders[k] = _l1_lex(k, 5)
                loop = _vector_loop_certificate(cells[i], cells[j], orders[k])
                for key in ("replacements", "target_pivots"):
                    assert v.certificate[key] == loop[key], (r, i, j, key)
                assert replay_certificate(cells[i], cells[j], v.certificate), (r, i, j)
                assert replay_certificate(cells[i], cells[j], loop), (r, i, j)


def test_first_viable_face_certifies_along_its_vector(cells_of):
    """⟨4,5⟩ r=7, 7 -> 4: system 0 certifies at its first viable candidate
    in generation order, along that face's e_F, which is minimal exactly
    on the face."""
    cells = cells_of((4, 5), 7)
    src, dst = cells[7], cells[4]
    system = closure_analysis._systems(src)[0]
    face = next(f for f in closure_analysis._candidate_faces(dst, system) if closure_analysis._judge(dst, system, f))
    v = cell_closure_contains(src, dst)
    assert v.certificate["replacements"] == []
    assert v.certificate["exponents"] == closure_analysis._face_vector(system, face) == [-1, -1, -2, 1]
    assert v.certificate["witness"] == {"u00": -1, "u01": -1, "u02": -1, "u03": -1}
    dots = [sum(e * a for e, a in zip(v.certificate["exponents"], alpha)) for alpha in system.uniq_exps]
    assert face == sum(1 << j for j, d in enumerate(dots) if d == min(dots))


@pytest.mark.parametrize("gens,r,i,j", [((4, 5), 5, 5, 1), ((3, 7), 7, 6, 3), ((3, 7), 7, 7, 3), ((3, 7), 7, 7, 4)])
def test_containments_beyond_window_five(cells_of, gens, r, i, j):
    """These containments need an exponent of absolute value above 5: they
    are certified, and their certificates replay."""
    cells = cells_of(gens, r)
    v = cell_closure_contains(cells[i], cells[j])
    assert v.status == CONTAINED
    assert max(map(abs, v.certificate["exponents"])) > 5
    assert replay_certificate(cells[i], cells[j], v.certificate)


def test_limit_depends_only_on_face(cells_of):
    """Two non-parallel exponent vectors minimal on the same face of the top
    cell's Newton polytope give the same limit point."""
    cells = cells_of(E8, 8)
    src, dst = cells[6], cells[2]
    system = closure_analysis._systems(src)[1]
    e1, e2 = [0, -1, 0, -3], [0, -1, 2, -3]

    def face(evec):
        dots = [sum(e * a for e, a in zip(evec, alpha)) for alpha in system.uniq_exps]
        low = min(dots)
        return [j for j, d in enumerate(dots) if d == low]

    assert face(e1) == face(e2)
    assert e1[2] * e2[3] != e1[3] * e2[2]  # not parallel
    named = [closure_analysis._describe(p, src.family) for p in system.replacements]
    lim1 = degeneration_limit(src, named, e1)
    lim2 = degeneration_limit(src, named, e2)
    assert lim1 == lim2
    assert not lim1[dst.delta].is_zero()
    # the search certifies in the same system, along e_F of its first viable face
    cert = cell_closure_contains(src, dst).certificate
    assert cert["replacements"] == named
    assert cert["exponents"] == [0, -1, -1, -3]


@pytest.mark.parametrize(
    "gens", [(2, 3), (2, 5), (2, 7), (3, 4), (2, 9), (3, 5)], ids=lambda g: "%dx%d" % g
)
def test_one_component_at_twice_delta(gens):
    """For a planar branch M_r is the local compactified Jacobian from r = 2δ
    on (Pfister–Steenbrink, JPAA 77, 1992), which is irreducible
    (Altman–Iarrobino–Kleiman 1977; Rego 1980): one component, no unknown,
    and its top is the stratum's only cell of dimension δ."""
    sg = NumericalSemigroup(gens)
    section = stratify(sg, 2 * sg.delta)
    assert section.unknowns == 0
    (component,) = section.components
    assert [i for i, c in enumerate(section.cells) if c.dim == sg.delta] == [component["top"]]


def _dual_gap_set(module):
    """Gap set of S^∨ = 4δ + (Γ − S), where Γ − S = {x : x + g ∈ Γ for every
    minimal generator g of S}; asserts that S^∨ lies in Γ."""
    sg = module.ambient
    shift = 4 * sg.delta
    gens = module.min_generators
    # every x ≥ c(Γ) is in Γ − S, and 4δ + x in Γ
    dual = {shift + x for x in range(-min(gens), sg.conductor) if all(x + g in sg for g in gens)}
    assert all(y in sg for y in dual), module.gap_set
    return tuple(y for y in range(shift + sg.conductor) if y in sg and y not in dual)


@pytest.mark.parametrize(
    "gens,moved,agreeing",
    [((3, 4), 2, 20), ((3, 5), 4, 42), ((4, 5), 8, 175), ((3, 7), 8, 124)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_gorenstein_duality_at_twice_delta(gens, moved, agreeing):
    """For a Gorenstein branch, I ↦ t^{4δ}·(𝒪 : I) is an automorphism of
    ℳ_{2δ}, and it carries the cell of S onto the cell of
    S^∨ = 4δ + (Γ − S).  So S ↦ S^∨ is an involution on the gap sets that
    keeps dimensions, and a closure verdict and its dual agree wherever
    both are decided.  ``moved`` counts the cells with S^∨ ≠ S and
    ``agreeing`` the decided pairs whose dual pair is decided too."""
    sg = NumericalSemigroup(gens)
    section = stratify(sg, 2 * sg.delta)
    index = {c.module.gap_set: i for i, c in enumerate(section.cells)}
    dual = [index[_dual_gap_set(c.module)] for c in section.cells]
    assert [dual[j] for j in dual] == list(range(len(dual)))
    assert [section.cells[j].dim for j in dual] == [c.dim for c in section.cells]
    assert sum(j != i for i, j in enumerate(dual)) == moved
    decided = 0
    for (i, j), v in section.verdicts.items():
        w = section.verdicts[dual[i], dual[j]]
        if UNKNOWN not in (v.status, w.status):
            assert v.status == w.status, (i, j)
            decided += 1
    assert decided == agreeing


@pytest.mark.parametrize(
    "gens,count",
    [((3, 4, 5), 2), ((3, 5, 7), 2), ((4, 5, 6), 2), ((4, 5, 7), 3)],
    ids=["3x4x5", "3x5x7", "4x5x6", "4x5x7"],
)
def test_components_at_the_conductor(gens, count):
    """For these non-planar Γ, M_c at the conductor c has ``count``
    components and no unknown.  The counts are measured: Rego (1980) gives
    only that the compactified Jacobian of a non-planar branch has more
    than one component."""
    sg = NumericalSemigroup(gens)
    section = stratify(sg, sg.conductor)
    assert section.unknowns == 0
    assert len(section.components) == count


def test_containment_respects_schubert_order(cells_of):
    for r in range(1, 7):
        cells = cells_of(E6, r)
        for a in cells:
            for b in cells:
                if a is b:
                    continue
                v = cell_closure_contains(a, b)
                if v.status == CONTAINED:
                    # the Schubert order: b's index is componentwise at least a's
                    assert all(y >= x for x, y in zip(a.schubert, b.schubert))
                    assert b.dim < a.dim


def test_no_mutual_containment(cells_of):
    for r in range(1, 7):
        cells = cells_of(E6, r)
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                if i >= j:
                    continue
                fwd = cell_closure_contains(a, b).status == CONTAINED
                bwd = cell_closure_contains(b, a).status == CONTAINED
                assert not (fwd and bwd)


def _verdicts(cells):
    out = {}
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if i != j:
                out[(i, j)] = cell_closure_contains(a, b)
    return out


def _shared(comps):
    """The cells in the members of two or more components."""
    return sorted({i for c in comps for i in c["members"] if sum(i in d["members"] for d in comps) >= 2})


def test_components_e6_r5(cells_of):
    cells = cells_of(E6, 5)
    comps = components(cells, _verdicts(cells))
    assert len(comps) == 2
    assert sorted(c["top"] for c in comps) == [2, 3]
    assert _shared(comps) == [0, 1]
    for comp in comps:
        assert set(_shared(comps)) <= set(comp["members"])


def test_components_e6_r6(cells_of):
    cells = cells_of(E6, 6)
    comps = components(cells, _verdicts(cells))
    assert len(comps) == 1
    assert comps[0]["top"] == 4
    assert comps[0]["members"] == [0, 1, 2, 3, 4]
    assert _shared(comps) == []


def test_components_e8_r4(cells_of):
    cells = cells_of(E8, 4)
    comps = components(cells, _verdicts(cells))
    assert len(comps) == 2
    assert _shared(comps) == [0, 1]


@pytest.mark.parametrize(
    "gens,r",
    [(E6, r) for r in range(1, 7)] + [(E8, r) for r in range(1, 9)],
    ids=lambda v: "r%d" % v if isinstance(v, int) else "x".join(map(str, v)),
)
def test_top_dimensional_cells_bound_components_below(cells_of, gens, r):
    """A cell's closure minus the cell has smaller dimension, so a cell of
    the stratum's dimension lies in no other cell's closure: each such cell
    is a top, and there are at least as many components as such cells."""
    cells = cells_of(gens, r)
    comps = components(cells, _verdicts(cells))
    dim = max(c.dim for c in cells)
    top_dim = [i for i, c in enumerate(cells) if c.dim == dim]
    assert set(top_dim) <= {c["top"] for c in comps}
    assert len(comps) >= len(top_dim)


CHAIN_STRATA = [(E6, r) for r in range(1, 7)] + [(E8, r) for r in range(1, 9)] + [((4, 5), 8)]
_CHAIN_VERDICTS = {}


def _chain_verdicts(cells_of, gens, r):
    """``closure_verdicts`` of a stratum, the verdict map ``stratify`` returns."""
    if (gens, r) not in _CHAIN_VERDICTS:
        _CHAIN_VERDICTS[gens, r] = closure_verdicts(cells_of(gens, r))
    return _CHAIN_VERDICTS[gens, r]


def _strata_id(case):
    return "x".join(map(str, case[0])) + "-r%d" % case[1]


@pytest.mark.parametrize("gens,r", CHAIN_STRATA, ids=map(_strata_id, CHAIN_STRATA))
def test_chain_certificates_replay(cells_of, gens, r):
    """Every ``chain`` verdict links two contained pairs through its least
    possible cell, and its certificate replays with no outside context."""
    cells = cells_of(gens, r)
    verdicts = _chain_verdicts(cells_of, gens, r)
    assert list(verdicts) == sorted((i, j) for i in range(len(cells)) for j in range(len(cells)) if i != j)
    for (i, j), v in verdicts.items():
        if v.reason != "chain":
            continue
        linked = [m for m in range(len(cells)) if m not in (i, j) and verdicts[i, m].status == verdicts[m, j].status == CONTAINED]
        k = linked[0]
        links = [verdicts[i, k].certificate, verdicts[k, j].certificate]
        assert v.certificate == {"gaps": list(cells[k].module.gap_set), "links": links}
        # a certificate read back from JSON is the same, and replays
        read_back = json.loads(json.dumps(v.certificate))
        assert read_back == v.certificate
        assert replay_certificate(cells[i], cells[j], read_back)


def test_tampered_chain_certificates_replay_false(cells_of):
    """A chain certificate replays only as recorded: each tampered variant,
    in its links, its intermediate gap set or its keys, fails.  A chain
    names its middle cell by gap set alone: one that still carries the
    index ``via`` fails too, whatever the index."""
    cells = cells_of(E8, 8)
    verdicts = _chain_verdicts(cells_of, E8, 8)
    (i, j), cert = next(
        (pair, v.certificate)
        for pair, v in verdicts.items()
        if v.reason == "chain" and all("replacements" in link for link in v.certificate["links"])
    )
    src, dst = cells[i], cells[j]
    first, second = cert["links"]
    gaps = cert["gaps"]
    gamma = src.module.ambient
    # drop the gap 0, which every nonempty gap set holds, and add the least
    # non-gap: the colength is kept but the set is not Γ-closed
    unclosed = sorted(gaps[1:] + [next(n for n in range(1, 99) if n in gamma and n not in gaps)])
    tampered = [
        {"links": [second, first]},
        {"gaps": list(src.module.gap_set)},
        {"gaps": list(dst.module.gap_set)},
        {"gaps": unclosed},
        {"gaps": gaps[:-1]},  # Γ-closed, of colength r - 1
        {"gaps": gaps[::-1]},
        {"via": 2},
        {"via": 99},
        {"via": -3},
        {"links": [first]},
        {"links": [first, dict(second, exponents=[second["exponents"][0] + 1] + second["exponents"][1:])]},
    ]
    assert replay_certificate(src, dst, cert)
    for bad in tampered:
        assert not replay_certificate(src, dst, dict(cert, **bad)), bad
    assert not replay_certificate(src, dst, dict(cert, extra=0))
    with pytest.raises(HilbstratError):
        GammaModule(gamma, unclosed)


@pytest.mark.parametrize("gens,r,i,j", [((4, 5), 7, 6, 2), ((3, 7), 8, 8, 4)])
def test_chains_leave_known_non_containments_unknown(gens, r, i, j):
    v = stratify(NumericalSemigroup(gens), r).verdicts[i, j]
    assert v.status == UNKNOWN
    assert v.reason == "no_face"


@pytest.mark.parametrize("gens,r", CHAIN_STRATA, ids=map(_strata_id, CHAIN_STRATA))
def test_chains_settle_the_transitive_closure(cells_of, gens, r):
    """The contained pairs are exactly the transitive closure of the searched
    containments, and the components are those of the exhaustive search,
    once its contained pairs are closed the same way (``components`` reads
    a closed relation)."""
    cells = cells_of(gens, r)
    verdicts = _chain_verdicts(cells_of, gens, r)

    def closed(pairs):
        closure = set(pairs)
        while True:
            more = {(i, j) for i, k in closure for m, j in closure if k == m and i != j} - closure
            if not more:
                return closure
            closure |= more

    closure = closed(pair for pair, v in verdicts.items() if v.reason == "degeneration")
    assert {pair for pair, v in verdicts.items() if v.status == CONTAINED} == closure
    searched = closed(pair for pair, v in _verdicts(cells).items() if v.status == CONTAINED)
    exhaustive = {pair: closure_analysis.ClosureVerdict(CONTAINED) for pair in searched}
    assert components(cells, verdicts) == components(cells, exhaustive)


REPLAY_STRATA = [
    (E6, range(1, 7), (23, 1)),
    (E8, range(1, 9), (62, 4)),
    ((4, 5), [*range(1, 9), 12], (187, 17)),
    ((3, 7), range(1, 9), (87, 9)),
]


@pytest.mark.parametrize("gens,rs,counts", REPLAY_STRATA, ids=["3x4", "3x5", "4x5", "3x7"])
def test_certificates_replay_on_fresh_cells(cells_of, gens, rs, counts, monkeypatch):
    """A certificate stands alone: the source and target of every contained
    pair, rebuilt from their gap sets, replay it after a JSON round trip
    without the search's list of coordinate systems.  A degeneration builds
    only the chart its replacements name, and a chain only its middle cell.
    ``counts`` is (replayed, certified in a replacement chart): on ⟨4,5⟩
    and ⟨3,7⟩ a fifth of the degenerations use one, so the replay rebuilds
    those charts from their recorded replacements."""
    sg = NumericalSemigroup(gens)
    verdicts = {r: _chain_verdicts(cells_of, gens, r) for r in rs}

    def unreachable(cell):
        raise AssertionError("a replay built the search's coordinate systems")

    monkeypatch.setattr(closure_analysis, "_systems", unreachable)
    replayed = in_replacement_chart = 0
    for r in rs:
        cells = cells_of(gens, r)
        for (i, j), v in verdicts[r].items():
            if v.status != CONTAINED:
                continue
            src, dst = (build_cell(GammaModule(sg, cells[k].module.gap_set)) for k in (i, j))
            assert replay_certificate(src, dst, json.loads(json.dumps(v.certificate))), (r, i, j)
            replayed += 1
            in_replacement_chart += bool(v.certificate.get("replacements"))
    assert (replayed, in_replacement_chart) == counts


@pytest.mark.parametrize(
    "gens,r_max", [(E6, 6), (E8, 8), ((4, 5), 8), ((3, 7), 8)], ids=["3x4", "3x5", "4x5", "3x7"]
)
def test_support_lies_at_or_above_the_pivots(cells_of, gens, r_max):
    """A point of a Schubert cell has nonzero Plücker coordinates only at
    column sets componentwise at or above its pivot set (Fulton, Young
    Tableaux, 1997).  So where the Schubert order fails between two cells,
    the target's pivot minor vanishes on the source, and the support check
    covers the Schubert incidence condition."""
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for cell in cells:
            for cols in cell.plucker:
                assert all(c >= p for c, p in zip(cols, cell.delta)), (r, cell.module.gap_set, cols)
        for src in cells:
            for dst in cells:
                if src is not dst and not all(y >= x for x, y in zip(src.schubert, dst.schubert)):
                    assert dst.delta not in src.plucker, (r, src.module.gap_set, dst.module.gap_set)


@pytest.mark.parametrize(
    "gens",
    [(3, 4), (3, 5), (3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 5, 7)],
    ids=["E6", "E8", "3x4x5", "3x5x7", "4x5x6", "4x5x7"],
)
def test_closure_relation_is_stable_beyond_the_conductor(gens):
    """The verdict statuses, keyed by the Δ-sets of the two cells, are the
    same at r = c, c + 1 and c + 2, with c the conductor, and none is
    unknown.

    ℳ_r embeds in G(δ, 2δ) by I ↦ V = t^{-r}I mod t^{2δ}, the row space of
    the cell matrix, and the cell of I is the set of V with pivot set Δ.
    For r ≥ c the image is every δ-dimensional V stable under Γ's
    generators: M = V + t^{2δ}k[[t]] is then an 𝒪-module of codimension δ
    in k[[t]], and t^r·M lies in t^c·k[[t]] ⊆ 𝒪 with colength
    (r + δ) − δ = r.  So ℳ_r and ℳ_c have the same image, the cells with
    the same Δ-set are the same subset of it, and so are their closures
    (Pfister–Steenbrink, J. Pure Appl. Algebra 77, 1992, for ℳ_r ≅ ℳ_c).
    The check shares nothing with the search at r = c: another r gives
    other families, cell matrices, Plücker coordinates and searches."""
    sg = NumericalSemigroup(gens)
    c = sg.conductor

    def statuses(r):
        section = stratify(sg, r)
        cells = section.cells
        return {(cells[i].delta, cells[j].delta): v.status for (i, j), v in section.verdicts.items()}

    base = statuses(c)
    assert UNKNOWN not in base.values()
    for r in (c + 1, c + 2):
        assert statuses(r) == base, r


def test_dominance_witness_walks_integer_points_in_l1_lex_order():
    """The witness is the first integer point with no zero entry, in (L1,
    lex) order from (-1, -1), where q and the kept maximal minor are both
    nonzero; it is the same on every call and its values are ints."""
    points = closure_analysis._nonzero_points
    assert list(points(2, 3)) == sorted(
        v for v in product(range(-2, 3), repeat=2) if 0 not in v and sum(map(abs, v)) == 3
    )
    assert list(points(2, 1)) == []
    u0, u1 = ParamPoly.variable("u00"), ParamPoly.variable("u01")
    zero = ParamPoly.zero()
    target = SimpleNamespace(dim=1)
    witness = closure_analysis._dominance_witness
    minor = closure_analysis._nonzero_minor
    # q(-1, -1) = 0 skips the first point; the minor u0 * u1 is nonzero at the next
    assert witness(minor([[u0 * u1, zero]]), u0 - u1, target, ["u00", "u01"]) == {"u00": -1, "u01": 1}
    # the minor u1 - 1 vanishes at (-1, 1), so (1, -1) follows
    found = witness(minor([[u1 - 1, zero]]), u0 - u1, target, ["u00", "u01"])
    assert found == {"u00": 1, "u01": -1}
    assert {type(x) for x in found.values()} == {int}
    assert witness(u1 - 1, u0 - u1, target, ["u00", "u01"]) == found


def test_nonzero_minor_is_independence_over_the_function_field():
    """A maximal minor is a nonzero polynomial iff the rows are independent
    over the function field; the minors after a zero one are tried too, and
    the first nonzero one, in the lex order of column sets, is returned."""
    minor = closure_analysis._nonzero_minor
    u0, u1 = ParamPoly.variable("u00"), ParamPoly.variable("u01")
    one, zero = ParamPoly.one(), ParamPoly.zero()
    first = [u0, u1, one]
    assert minor([first, [u0 * x for x in first]]) is None  # row 2 = u0 * row 1
    assert minor([[zero, u0]]) == u0  # the first minor, on column 0, is zero
    assert minor([[one, one, zero], [u0, u0, one]]) == one  # likewise on columns 0, 1
    assert minor([[u0, one], [one, u1]]) == u0 * u1 - one
    assert minor([[u0], [u1]]) is None  # more rows than columns
    assert minor([]) == one  # no rows: the empty minor is 1


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_witness_is_the_first_full_rank_point(cells_of, gens, r_max):
    """Every recorded witness, read from q and the kept minor, is the point
    the full-rank rule picks: the first integer point with no zero entry,
    in (L1, lex) order, where q is nonzero and the Jacobian has rank dim C'.
    The limit is ``degeneration_limit``'s, not the face ``_judge`` keeps,
    and the rank is the reference's."""
    checked = 0
    for r in range(1, r_max + 1):
        cells = cells_of(gens, r)
        for (i, j), v in _chain_verdicts(cells_of, gens, r).items():
            if v.reason != "degeneration":
                continue
            cert, dst = v.certificate, cells[j]
            limit = degeneration_limit(cells[i], cert["replacements"], cert["exponents"])
            n_map, q = closure_analysis._match_target(limit, dst)
            uvars = closure_analysis._recorded_chart(cells[i], cert["replacements"]).uvars
            grad = closure_analysis._jacobian(n_map, q, dst, uvars)
            first = {}
            total = len(uvars)
            while dst.dim and not first:
                for values in closure_analysis._nonzero_points(len(uvars), total):
                    point = dict(zip(uvars, values))
                    if q.evaluate(point) and _reference_rank([[g.evaluate(point) for g in row] for row in grad]) == dst.dim:
                        first = point
                        break
                total += 1
            assert cert["witness"] == first, (r, i, j)
            checked += 1
    assert checked == {E6: 14, E8: 34}[gens]


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_integral_coefficients_stay_int(cells_of, gens, r_max):
    """Every coefficient the E6 and E8 cells build is integral, and each is
    stored as an ``int``: in the family's normal forms, the cell's Plücker
    point and every coordinate system's table of terms."""
    for r in range(1, r_max + 1):
        for cell in cells_of(gens, r):
            polys = [p for nf in cell.family.normal_forms.values() for p in nf.values()]
            polys += cell.plucker.values()
            kinds = {type(c) for p in polys for c in p.terms.values()}
            tables = [system.terms.values() for system in closure_analysis._systems(cell)]
            kinds |= {type(c) for table in tables for items in table for _, c in items}
            assert kinds == {int}, (r, cell.module.gap_set, kinds)
