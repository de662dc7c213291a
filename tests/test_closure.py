"""Closure verdicts, degeneration certificates, component assembly."""

import json
import random
from fractions import Fraction
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
    closure_leq,
    closure_verdicts,
    components,
    degeneration_limit,
    enumerate_colength,
    replay_certificate,
    stratify,
)
from hilbstrat import closure_analysis
from hilbstrat.closure_analysis import CONTAINED, NOT_CONTAINED, UNKNOWN
from test_newton import _reference_face_lattice

E6 = (3, 4)
E8 = (3, 5)


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
    assert cert["system"] == 0
    assert cert["exponents"] == [-1]
    assert cert["substitution"] == {"a": "u00*s^-1"}
    assert replay_certificate(src, dst, cert)


def test_e6_r2_limit_lands_on_target(cells_of):
    src, dst = cells_of(E6, 2)[1], cells_of(E6, 2)[0]
    lim = degeneration_limit(src, 0, (-1,))
    assert lim == {dst.pivots: ParamPoly.variable("u00")}


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
    assert cert["system"] == 1
    assert cert["replacements"] == [
        {"parameter": "b", "coordinate": "w01", "expression": "-b + a^2"}
    ]
    assert cert["exponents"] == [-1, -1, -3]
    assert replay_certificate(cells[4], cells[2], cert)


def test_replay_rejects_malformed_certificates(cells_of):
    """A replay re-derives the whole certificate: an exponent list of the
    wrong length, a system index out of range or any other recorded field
    changed certifies nothing."""
    cells = cells_of(E6, 6)
    src, dst = cells[4], cells[2]
    cert = cell_closure_contains(src, dst).certificate
    assert cert["system"] == 1 and cert["exponents"] == [-1, -1, -3]
    malformed = [
        {"exponents": [-1, -1, -3, 7]},
        {"exponents": [-1, -1]},
        {"system": -1},
        {"system": 99},
        {"witness": {u: "0" for u in cert["witness"]}},
        {"target_pivots": [0, 1, 2]},
        {"substitution": {}},
        {"replacements": []},
        {"system": "1"},
        {"system": True},
        {"system": 1.0},
        {"exponents": ["-1", "-1", "-3"]},
        {"exponents": [-1.0, -1.0, -3.0]},
        {"exponents": [-1, True, -3]},
        {"exponents": (-1, -1, -3)},
        {"exponents": "-1,-1,-3"},
    ]
    for bad in malformed:
        assert not replay_certificate(src, dst, dict(cert, **bad)), bad
    # a certificate read from outside may lack fields or not be a mapping
    for key in cert:
        assert not replay_certificate(src, dst, {k: v for k, v in cert.items() if k != key}), key
    for bad in ({}, None, [], "certificate", list(cert.items())):
        assert not replay_certificate(src, dst, bad), bad
    assert replay_certificate(src, dst, cert)
    assert replay_certificate(src, dst, json.loads(json.dumps(cert)))
    for system, exponents in ((1, (-1, -1, -3, 7)), (-1, (-1, -1, -3))):
        with pytest.raises(ValueError):
            degeneration_limit(src, system, exponents)


def test_e6_r6_adapted_limit_respects_target_zeros(cells_of):
    cells = cells_of(E6, 6)
    src, dst = cells[4], cells[2]
    lim = degeneration_limit(src, 1, (-1, -1, -3))
    assert not lim[dst.pivots].is_zero()
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
    assert v.reason == "pivot_coordinate"
    # the rejection is forced: the source point never charges the target pivot
    assert dst.pivots not in src.plucker


def test_e8_r8_top_cell_containments(cells_of):
    cells = cells_of(E8, 8)
    for j in (4, 5):
        v = cell_closure_contains(cells[6], cells[j])
        assert v.status == CONTAINED
        assert v.certificate["exponents"] == [-1, -1, -2, -4]
        assert replay_certificate(cells[6], cells[j], v.certificate)


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_systems_rename_like_substitution(cells_of, gens, r_max):
    """Renaming each coordinate to its u-variable gives the polynomial that
    substituting u-variables gave, term for term and in the same order."""
    for r in range(1, r_max + 1):
        for cell in cells_of(gens, r):
            systems = closure_analysis._systems(cell)
            if cell is cells_of(E8, 8)[6]:  # the top cell of E8 r=8
                assert len(systems) == 8
            for system in systems:
                mapping = closure_analysis._compose_replacements(system.replacements) if system.replacements else {}
                to_u = {c: ParamPoly.variable(u) for c, u in zip(system.coords, system.uvars)}
                assert list(system.plucker) == list(cell.plucker)
                for cols, p in cell.plucker.items():
                    want = p.subs(mapping).subs(to_u)
                    assert list(system.plucker[cols].terms.items()) == list(want.terms.items())


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
    src, dst = (build_cell(sg, mods[k], r, index=k) for k in (i, j))
    v = cell_closure_contains(src, dst)
    assert v.reason == reason
    assert v.status == (NOT_CONTAINED if reason == "support" else UNKNOWN)
    assert (reason == "support") == any(cols not in src.plucker for cols in dst.plucker)


def test_schubert_reject():
    sg = NumericalSemigroup((4, 5))
    from hilbstrat import build_cell, enumerate_colength

    mods = enumerate_colength(sg, 6)
    src = build_cell(sg, mods[7], 6, index=7)
    dst = build_cell(sg, mods[5], 6, index=5)
    assert dst.dim < src.dim
    v = cell_closure_contains(src, dst)
    assert v.status == NOT_CONTAINED
    assert v.reason == "schubert"


def test_each_face_is_matched_once(monkeypatch):
    """Within one coordinate system a limit vector keeps exactly the terms of
    its face, so distinct faces give distinct limits: no limit may reach
    the target match twice.  In ⟨4,7⟩ r=10 the search of 18 -> 6 judges
    twelve faces over six systems.  Only the two cells are built."""
    sg = NumericalSemigroup((4, 7))
    mods = enumerate_colength(sg, 10)
    src, dst = (build_cell(sg, mods[k], 10, index=k) for k in (18, 6))
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
    assert v.certificate["system"] == 5
    assert len(calls) == 12
    assert len(calls) == len(set(calls))


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
            system = closure_analysis._systems(cells[i])[cert["system"]]
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
    for sys_idx, system in enumerate(closure_analysis._systems(src)):
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
                return closure_analysis._certify(src, dst, system, sys_idx, judged, evec)
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
                for key in ("system", "replacements", "target_pivots"):
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
    assert v.certificate["system"] == 0
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
    e1, e2 = (0, -1, 0, -3), (0, -1, 2, -3)

    def face(evec):
        dots = [sum(e * a for e, a in zip(evec, alpha)) for alpha in system.uniq_exps]
        low = min(dots)
        return [j for j, d in enumerate(dots) if d == low]

    assert face(e1) == face(e2)
    assert e1[2] * e2[3] != e1[3] * e2[2]  # not parallel
    lim1 = degeneration_limit(src, 1, e1)
    lim2 = degeneration_limit(src, 1, e2)
    assert lim1 == lim2
    assert not lim1[dst.pivots].is_zero()
    # the search certifies in the same system, along e_F of its first viable face
    cert = cell_closure_contains(src, dst).certificate
    assert cert["system"] == 1
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
    (component,) = section.analysis.components
    assert [i for i, c in enumerate(section.cells) if c.dim == sg.delta] == [component["top"]]


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
    assert len(section.analysis.components) == count


def test_containment_respects_schubert_order(cells_of):
    for r in range(1, 7):
        cells = cells_of(E6, r)
        for a in cells:
            for b in cells:
                if a is b:
                    continue
                v = cell_closure_contains(a, b)
                if v.status == CONTAINED:
                    assert closure_leq(a.schubert, b.schubert)
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


def test_components_e6_r5(cells_of):
    cells = cells_of(E6, 5)
    ana = components(cells, _verdicts(cells))
    assert len(ana.components) == 2
    assert sorted(c["top"] for c in ana.components) == [2, 3]
    assert ana.singular_candidates == [0, 1]
    for comp in ana.components:
        assert set(ana.singular_candidates) <= set(comp["members"])


def test_components_e6_r6(cells_of):
    cells = cells_of(E6, 6)
    ana = components(cells, _verdicts(cells))
    assert len(ana.components) == 1
    assert ana.components[0]["top"] == 4
    assert ana.components[0]["members"] == [0, 1, 2, 3, 4]
    assert ana.singular_candidates == []


def test_components_e8_r4(cells_of):
    cells = cells_of(E8, 4)
    ana = components(cells, _verdicts(cells))
    assert len(ana.components) == 2
    assert ana.singular_candidates == [0, 1]


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
    ana = components(cells, _verdicts(cells))
    dim = max(c.dim for c in cells)
    top_dim = [i for i, c in enumerate(cells) if c.dim == dim]
    assert set(top_dim) <= {c["top"] for c in ana.components}
    assert len(ana.components) >= len(top_dim)


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
        k = v.certificate["via"]
        links = [verdicts[i, k].certificate, verdicts[k, j].certificate]
        assert v.certificate == {"via": k, "gaps": list(cells[k].module.gap_set), "links": links}
        linked = [m for m in range(len(cells)) if m not in (i, j) and verdicts[i, m].status == verdicts[m, j].status == CONTAINED]
        assert k == linked[0]
        # a certificate read back from JSON is the same, and replays
        read_back = json.loads(json.dumps(v.certificate))
        assert read_back == v.certificate
        assert replay_certificate(cells[i], cells[j], read_back)


def test_tampered_chain_certificates_replay_false(cells_of):
    """A chain certificate replays only as recorded: each tampered variant,
    in its links, its intermediate gap set, its index or its keys, fails."""
    cells = cells_of(E8, 8)
    verdicts = _chain_verdicts(cells_of, E8, 8)
    (i, j), cert = next(
        (pair, v.certificate)
        for pair, v in verdicts.items()
        if v.reason == "chain" and all("system" in link for link in v.certificate["links"])
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
        {"via": str(cert["via"])},
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
    containments, and the components are those of the exhaustive search."""
    cells = cells_of(gens, r)
    verdicts = _chain_verdicts(cells_of, gens, r)
    closure = {pair for pair, v in verdicts.items() if v.reason == "degeneration"}
    while True:
        more = {(i, j) for i, k in closure for m, j in closure if k == m and i != j} - closure
        if not more:
            break
        closure |= more
    assert {pair for pair, v in verdicts.items() if v.status == CONTAINED} == closure
    assert components(cells, verdicts).components == components(cells, _verdicts(cells)).components


def _reference_rank(matrix):
    """Gauss-Jordan elimination over the rationals: the reference for ``_rank``."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


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


def test_rank_matches_fraction_gauss_jordan():
    """The fraction-free rank agrees with plain rational elimination on
    integer, rational and mixed matrices, with zero and dependent rows, wide
    and tall shapes, and leaves its input unchanged."""
    rank = closure_analysis._rank
    assert rank([]) == 0
    assert rank([[], []]) == 0
    rng = random.Random("rank")
    for trial in range(600):
        # the share of Fraction entries: integer, rational, mixed matrices
        share = (0.0, 1.0, 0.5)[trial % 3]
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)

        def entry():
            n = rng.choice((0, 0, rng.randint(-9, 9)))
            return Fraction(n, rng.randint(1, 6)) if rng.random() < share else n

        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.5:
            a, b, k = rng.sample(range(rows), 3)
            fa, fb = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4)
            m[k] = [fa * x + fb * y for x, y in zip(m[a], m[b])]
        if rows >= 2 and rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        before = [row[:] for row in m]
        assert rank(m) == _reference_rank(m), m
        assert m == before
    # a tall matrix of full column rank
    assert rank([[1, 0], [0, Fraction(1, 3)], [2, 5], [7, 7]]) == 2


def test_dominance_witness_walks_integer_points_in_l1_lex_order():
    """The witness is the first integer point with no zero entry, in (L1,
    lex) order from (-1, -1), where q is nonzero and the Jacobian has full
    rank; it is the same on every call and its values are ints."""
    points = closure_analysis._nonzero_points
    assert list(points(2, 3)) == sorted(
        v for v in product(range(-2, 3), repeat=2) if 0 not in v and sum(map(abs, v)) == 3
    )
    assert list(points(2, 1)) == []
    u0, u1 = ParamPoly.variable("u00"), ParamPoly.variable("u01")
    zero = ParamPoly.zero()
    target = SimpleNamespace(dim=1)
    witness = closure_analysis._dominance_witness
    # q(-1, -1) = 0 skips the first point; the rank is full at the next
    assert witness([[u0 * u1, zero]], u0 - u1, target, ["u00", "u01"]) == {"u00": -1, "u01": 1}
    # the Jacobian vanishes at (-1, 1), so (1, -1) follows
    found = witness([[u1 - 1, zero]], u0 - u1, target, ["u00", "u01"])
    assert found == {"u00": 1, "u01": -1}
    assert {type(x) for x in found.values()} == {int}
    assert witness([[u1 - 1, zero]], u0 - u1, target, ["u00", "u01"]) == found


def test_nonzero_minor_is_independence_over_the_function_field():
    """A maximal minor is a nonzero polynomial iff the rows are independent
    over the function field; the minors after a zero one are tried too."""
    has = closure_analysis._has_nonzero_minor
    u0, u1 = ParamPoly.variable("u00"), ParamPoly.variable("u01")
    one, zero = ParamPoly.one(), ParamPoly.zero()
    first = [u0, u1, one]
    assert not has([first, [u0 * x for x in first]])  # row 2 = u0 * row 1
    assert has([[zero, u0]])  # the first minor, on column 0, is zero
    assert has([[one, one, zero], [u0, u0, one]])  # likewise on columns 0, 1
    assert has([[u0, one], [one, u1]])
    assert not has([[u0], [u1]])  # more rows than columns
    assert has([])  # no rows: the empty minor is 1


@pytest.mark.parametrize("gens,r_max", [(E6, 6), (E8, 8)], ids=["3x4", "3x5"])
def test_integral_coefficients_stay_int(cells_of, gens, r_max):
    """Every coefficient the E6 and E8 cells build is integral, and each is
    stored as an ``int``: in the family's normal forms, the cell's Plücker
    point and every coordinate system's Plücker point."""
    for r in range(1, r_max + 1):
        for cell in cells_of(gens, r):
            polys = [p for nf in cell.family.normal_forms.values() for p in nf.coeffs.values()]
            polys += cell.plucker.values()
            polys += [p for system in closure_analysis._systems(cell) for p in system.plucker.values()]
            kinds = {type(c) for p in polys for c in p.terms.values()}
            assert kinds == {int}, (r, cell.module.gap_set, kinds)
