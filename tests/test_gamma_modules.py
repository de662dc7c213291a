"""Enumeration of Γ-modules by colength, minimal generators, Δ-sets."""

import sys
from types import SimpleNamespace

import pytest

from hilbstrat import (
    GammaModule,
    NumericalSemigroup,
    delta_set,
    enumerate_colength,
)
from hilbstrat import gamma_modules
from hilbstrat.errors import CardinalityMismatch, MalformedDelta, ShiftUnderflow

E6 = NumericalSemigroup((3, 4))
E8 = NumericalSemigroup((3, 5))


def test_colength_zero_is_the_semigroup():
    mods = enumerate_colength(E6, 0)
    assert len(mods) == 1
    assert mods[0].gap_set == ()
    assert mods[0].min_generators == (0,)


def test_e6_colength_six_table():
    mods = enumerate_colength(E6, 6)
    assert [m.gap_set for m in mods] == [
        (0, 3, 4, 6, 7, 8),
        (0, 3, 4, 6, 7, 9),
        (0, 3, 4, 6, 7, 10),
        (0, 3, 4, 6, 8, 9),
        (0, 3, 4, 7, 8, 11),
    ]


def test_enumeration_depth_is_not_bounded_by_recursion():
    """E6 at r = 300 under a recursion limit of 200: the five modules, in
    lexicographic order, each Γ ∩ [0, 299) and four more gaps."""
    head = (0, 3, 4) + tuple(range(6, 299))
    tails = [(299, 300, 301, 302), (299, 300, 301, 303), (299, 300, 301, 304), (299, 300, 302, 303), (299, 301, 302, 305)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        mods = enumerate_colength(E6, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert [m.gap_set for m in mods] == [head + tail for tail in tails]


def test_e8_colength_eight_count():
    assert len(enumerate_colength(E8, 8)) == 7


def test_colength_equals_gap_count():
    for r in range(7):
        for m in enumerate_colength(E6, r):
            assert len(m.gap_set) == r


def test_minimal_generators_fixtures():
    assert GammaModule(E6, (0, 3, 4, 6)).min_generators == (7, 8, 9)
    assert GammaModule(E8, (0, 3, 5, 6, 9, 10, 12)).min_generators == (8, 15)
    assert GammaModule(E6, ()).min_generators == (0,)


def test_e8_two_generator_modules():
    """The modules generated by {8,15} (r=7) and {9,16} (r=8) both occur."""
    assert (8, 15) in {m.min_generators for m in enumerate_colength(E8, 7)}
    assert (9, 16) in {m.min_generators for m in enumerate_colength(E8, 8)}


def test_generators_regenerate_the_module():
    for r in (3, 5):
        for m in enumerate_colength(E8, r):
            bound = E8.conductor + r * E8.multiplicity + 6
            span = set()
            for g in m.min_generators:
                span.update(g + x for x in range(bound) if x in E8 and g + x < bound)
            assert sorted(span) == list(m.members_below(bound))


def test_delta_set_fixtures():
    # module generated by 3 and 8 over E6 has gaps {0, 4}
    s38 = GammaModule(E6, (0, 4))
    assert tuple(delta_set(s38)) == (1, 4, 5)
    s34 = GammaModule(E6, (0,))
    assert tuple(delta_set(s34)) == (2, 3, 5)
    # module generated by 6 over E8 has gaps {0, 3, 5, 8, 10, 13}
    s6 = GammaModule(E8, (0, 3, 5, 8, 10, 13))
    assert s6.min_generators == (6,)
    assert tuple(delta_set(s6)) == (0, 3, 5, 6)


@pytest.mark.parametrize(
    "colength,members,error,message",
    [
        (2, [1, 3, 4], ShiftUnderflow, "min(S) = 1 < r = 2; shift by -r not defined"),
        (0, [0, 3], CardinalityMismatch, "Δ-set (0, 3) has 2 elements, expected δ=3"),
        (0, [0, 1, 2], MalformedDelta, "Δ (0, 1, 2) not Γ-closed: 0 + 3 escapes"),
    ],
    ids=["underflow", "cardinality", "not-closed"],
)
def test_delta_set_refusals(colength, members, error, message):
    """``delta_set`` refuses a window that no module of E6 has: an order
    below the colength, a Δ-set of the wrong size, one that is not Γ-closed.
    A stub supplies the window, since every real module passes all three."""
    stub = SimpleNamespace(ambient=E6, colength=colength, members_below=lambda bound: members)
    with pytest.raises(error) as info:
        delta_set(stub)
    assert str(info.value) == message


def test_min_module_element_at_least_colength():
    """The shift s - r in the Δ-set never goes negative on real modules."""
    for sg, rmax in ((E6, 6), (E8, 8)):
        for r in range(1, rmax + 1):
            for m in enumerate_colength(sg, r):
                assert min(m.members_below(sg.conductor + rmax + 1)) >= r


@pytest.mark.parametrize("gaps", [(0, 3.7), (0, 3.0), ("0", 3), (False, 3)], ids=repr)
def test_non_int_gap_rejected(gaps):
    """A gap that is not an int is refused, not coerced: (0, 3.7) is not
    the gap set (0, 3), nor is False the gap 0."""
    with pytest.raises(MalformedDelta, match="must be ints"):
        GammaModule(E6, gaps)


@pytest.mark.parametrize("r", [True, 2.0, "2"], ids=repr)
def test_non_int_colength_rejected(r):
    """A colength that is not exactly an int is refused, not coerced:
    True is not the colength 1, nor is 2.0 the colength 2."""
    with pytest.raises(ValueError, match="colength must be an int"):
        enumerate_colength(E6, r)


def test_int_gaps_unchanged():
    assert GammaModule(E6, [4, 0, 4]).gap_set == (0, 4)
    assert GammaModule(E6, (0, 3, 4, 7, 8, 11)) == enumerate_colength(E6, 6)[-1]


def test_non_module_gap_set_rejected():
    # 8 - 4 = 4 would have to be a gap too, but is not listed
    with pytest.raises(MalformedDelta):
        GammaModule(E6, (0, 8))
    with pytest.raises(MalformedDelta):
        GammaModule(E6, (3,))


@pytest.mark.parametrize("sg,rmax", [(E6, 6), (E8, 8)])
def test_delta_set_invariants(sg, rmax):
    dd = 2 * sg.delta
    for r in range(1, rmax + 1):
        for m in enumerate_colength(sg, r):
            ds = tuple(delta_set(m))
            assert len(ds) == sg.delta
            assert all(0 <= e < dd for e in ds)
            members = set(ds)
            for e in ds:
                for g in sg.gens:
                    assert e + g in members or e + g >= dd


@pytest.mark.parametrize("sg,rmax", [(E6, 6), (E8, 8)])
def test_gap_sets_are_order_ideals(sg, rmax):
    """Removing a generator step from a gap stays inside the gap set."""
    for r in range(1, rmax + 1):
        for m in enumerate_colength(sg, r):
            gaps = set(m.gap_set)
            for gap in gaps:
                for g in sg.gens:
                    below = gap - g
                    if below >= 0 and below in sg:
                        assert below in gaps


@pytest.mark.parametrize("sg,rmax", [(E6, 6), (E8, 8)])
def test_enumeration_bound_stability(sg, rmax, monkeypatch):
    """Widening the enumeration pool by 10 finds no further module."""
    base = [enumerate_colength(sg, r) for r in range(1, rmax + 1)]
    bound = gamma_modules.enumeration_bound
    monkeypatch.setattr(gamma_modules, "enumeration_bound", lambda sg, r: bound(sg, r) + 10)
    for r in range(1, rmax + 1):
        wide = enumerate_colength(sg, r)
        assert [m.gap_set for m in base[r - 1]] == [m.gap_set for m in wide]


def test_membership_and_members_below():
    m = GammaModule(E6, (0, 4))
    assert 0 not in m
    assert 4 not in m
    assert 3 in m
    assert list(m.members_below(10)) == [3, 6, 7, 8, 9]
