"""End-to-end acceptance checks for the two worked stratifications.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line so the suite output doubles as a checklist. Criteria are asserted
exactly as stated; where the computed geometry disagrees with a stated
expectation the test fails rather than glossing over the difference.

Two entries of criterion 4 were corrected from 1 to 2 components: E6 r=4
and E8 r=6. As first stated they contradicted criteria 1 and 2. With
dim ℳ_4 = 2 for E6, the colength-4 ideals inside m² form a closed ℙ² that
is a component, and the principal ideals (t⁴ + …) lie outside it. With
dim ℳ_6 = 3 for E8, the disjoint 3-dimensional cells Δ_1 and Δ_6 would
both be dense in one irreducible closure and so would meet.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from hilbstrat import (
    GammaModule,
    NumericalSemigroup,
    analyze,
    canonical_family,
    cell_matrix,
    delta_set,
    enumerate_colength,
    is_good_subspace,
    oracle_check,
    schubert_index,
)
from hilbstrat.report_cli import specialized_orders

_REPORTS = {}


def report_for(gens):
    if gens not in _REPORTS:
        _REPORTS[gens] = analyze(NumericalSemigroup(gens))
    return _REPORTS[gens]


def verdict(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_1_e6_dimension_table():
    t0 = time.perf_counter()
    rep = report_for((3, 4))
    elapsed = time.perf_counter() - t0
    dims = rep.dimension_row()
    ok = dims == (0, 1, 2, 2, 2, 3) and elapsed < 10.0
    assert verdict(1, ok, "dims=%s in %.2fs" % (dims, elapsed))


def test_criterion_2_e8_dimension_table():
    t0 = time.perf_counter()
    rep = report_for((3, 5))
    elapsed = time.perf_counter() - t0
    dims = rep.dimension_row()
    ok = dims == (0, 1, 2, 2, 3, 3, 3, 4) and elapsed < 60.0
    assert verdict(2, ok, "dims=%s in %.2fs" % (dims, elapsed))


def test_criterion_3_cell_counts():
    e6 = report_for((3, 4)).cell_count_row()
    e8 = report_for((3, 5)).cell_count_row()
    ok = e6 == (1, 2, 3, 4, 4, 5) and e8 == (1, 2, 3, 4, 5, 6, 6, 7)
    assert verdict(3, ok, "E6=%s E8=%s" % (e6, e8))


def test_criterion_4_component_structure():
    # r=4: the ideals inside m^2 form a closed 2-dim P^2, and (t^4 + ...) lies outside it
    expected_e6 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1}
    # r=6: Δ_1 and Δ_6 are disjoint cells of the top dimension 3, so no closure holds both
    expected_e8 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 2, 8: 1}
    problems = []
    for gens, expected in (((3, 4), expected_e6), ((3, 5), expected_e8)):
        rep = report_for(gens)
        for sec in rep.sections:
            if sec.unknowns:
                problems.append("%s r=%d has %d unknown verdicts" % (gens, sec.r, sec.unknowns))
            got = len(sec.components)
            if got != expected[sec.r]:
                problems.append(
                    "%s r=%d: %d components, expected %d"
                    % (gens, sec.r, got, expected[sec.r])
                )
    sec5 = report_for((3, 4)).sections[4]
    shared = {sec5.cells[i].label for i in sec5.singular_candidates}
    if shared != {"Δ_2", "Δ_4"}:
        problems.append("E6 r=5 shared boundary %s" % sorted(shared))
    ok = not problems
    assert verdict(4, ok, "; ".join(problems) or "all strata match"), problems


def test_criterion_5_family_fixtures():
    e6 = NumericalSemigroup((3, 4))
    e8 = NumericalSemigroup((3, 5))
    checks = []

    f33 = canonical_family(GammaModule(e6, (0, 4, 8)))
    checks.append(f33.format_generators()[1] == "t^6 - a^2*t^8")

    f65 = canonical_family(enumerate_colength(e6, 6)[-1])
    checks.append(f65.format_generators()[1] == "t^9 + (b - a^2)*t^11")

    f87 = canonical_family(enumerate_colength(e8, 8)[-1])
    gens87 = f87.format_generators()
    checks.append("(c - b^2 + a^2*b)*t^15" in gens87[1])
    checks.append("(b - a^2)*t^15" in gens87[2])

    ok = all(checks)
    assert verdict(5, ok, "S33/S65/S87 coefficient relations")


def test_criterion_6_schubert_labels():
    expected = {
        (3, 4): {(3, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 2), (2, 2, 0)},
        (3, 5): {
            (4, 4, 4, 4),
            (4, 4, 4, 3),
            (4, 4, 3, 3),
            (4, 4, 4, 2),
            (4, 3, 3, 2),
            (4, 4, 3, 1),
            (3, 3, 2, 0),
        },
    }
    ok = True
    for gens, want in expected.items():
        sg = NumericalSemigroup(gens)
        seen = set()
        for r in range(1, 2 * sg.delta + 1):
            for m in enumerate_colength(sg, r):
                seen.add(schubert_index(delta_set(m)))
        ok = ok and seen == want
    assert verdict(6, ok, "E6 and E8 W-label sets")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    results = {}
    for gens in ((2, 3), (3, 4), (3, 5), (4, 5), (3, 7)):
        results[gens] = oracle_check(NumericalSemigroup(gens))["ok"]
    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and elapsed < 300.0
    assert verdict(7, ok, "%s in %.1fs" % (results, elapsed))


def test_criterion_8_property_suites():
    parts = []

    # goodness of every emitted Plücker point
    good = True
    for gens in ((3, 4), (3, 5)):
        sg = NumericalSemigroup(gens)
        for r in range(1, 2 * sg.delta + 1):
            for m in enumerate_colength(sg, r):
                f = canonical_family(m)
                rows, pivots = cell_matrix(f)
                good = good and is_good_subspace(rows, pivots, sg)
    parts.append(("goodness", good))

    # the conductor cut: the family stores the normal forms of exactly the
    # orders s of S below the module's conductor c (at and above it, the
    # normal form is the bare t^s), each with support in [s, c)
    stable = True
    for gens in ((3, 4), (3, 5)):
        sg = NumericalSemigroup(gens)
        for r in range(1, 2 * sg.delta + 1):
            for m in enumerate_colength(sg, r):
                c = m.conductor
                forms = canonical_family(m).normal_forms
                stable = stable and list(forms) == m.members_below(c)
                for s, nf in forms.items():
                    stable = stable and all(s <= e < c for e in nf)
    parts.append(("truncation", stable))

    # specialization soundness on 20 random rational points per fixture cell
    e6 = NumericalSemigroup((3, 4))
    e8 = NumericalSemigroup((3, 5))
    fixtures = [
        (e6, GammaModule(e6, (0, 4, 8))),
        (e6, enumerate_colength(e6, 6)[-1]),
        (e8, enumerate_colength(e8, 8)[-1]),
    ]
    rng = random.Random(12345)
    sound = True
    for sg, m in fixtures:
        f = canonical_family(m)
        want = tuple(m.members_below(m.gap_set[-1] + 2))
        for _ in range(20):
            assign = {
                p: Fraction(rng.randint(-10000, 10000), rng.randint(1, 97))
                for p in f.free_params
            }
            sound = sound and tuple(specialized_orders(f, assign)) == want
    parts.append(("specialization", sound))

    # at r = 2δ the cells realize every valid Δ-set exactly once
    saturated = True
    for gens, count in (((3, 4), 5), ((3, 5), 7)):
        sg = NumericalSemigroup(gens)
        dd = 2 * sg.delta
        valid = set()
        for combo in combinations(range(dd), sg.delta):
            members = set(combo)
            if all(e + g in members or e + g >= dd for e in combo for g in sg.gens):
                valid.add(combo)
        cells = {tuple(delta_set(m)) for m in enumerate_colength(sg, dd)}
        saturated = saturated and cells == valid and len(valid) == count
    parts.append(("delta-saturation", saturated))

    ok = all(flag for _, flag in parts)
    assert verdict(8, ok, ", ".join("%s=%s" % p for p in parts))
