"""Stratification reports, canonical labels, oracle helpers, and the CLI."""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hilbstrat import (
    GammaModule,
    NumericalSemigroup,
    StratReport,
    analyze,
    canonical_delta_labels,
    canonical_family,
    cell_closure_contains,
    enumerate_colength,
    oracle_check,
    stratify,
)
from hilbstrat import report_cli
from hilbstrat.closure_analysis import CONTAINED, UNKNOWN, ClosureVerdict, components
from hilbstrat.report_cli import (
    enumerate_colength_reference,
    main,
    specialization_diff,
    specialized_orders,
)

E6 = NumericalSemigroup((3, 4))
E8 = NumericalSemigroup((3, 5))


def test_canonical_labels_first_appearance():
    assert canonical_delta_labels(E6) == [
        (2, 3, 5),
        (2, 4, 5),
        (1, 4, 5),
        (3, 4, 5),
        (0, 3, 4),
    ]
    labels8 = canonical_delta_labels(E8)
    assert len(labels8) == 7
    assert labels8[0] == (2, 4, 5, 7)
    assert labels8[5] == (0, 3, 5, 6)


@pytest.mark.parametrize("sg", [E6, E8], ids=["3x4", "3x5"])
def test_labels_up_to_the_reported_stratum(sg):
    """Labels are numbered by first appearance, so scanning only the strata
    a report covers gives every reported cell the label of the full scan."""
    full_labels = canonical_delta_labels(sg)
    full = analyze(sg).to_dict()["strata"]
    assert canonical_delta_labels(sg, 1) == full_labels[:1]
    for k in range(1, 2 * sg.delta):
        labels = canonical_delta_labels(sg, k)
        assert labels == full_labels[: len(labels)]
        assert analyze(sg, r_max=k).to_dict()["strata"] == full[:k]


def _count_calls(monkeypatch):
    """Wrap ``report_cli``'s ``enumerate_colength`` and
    ``canonical_delta_labels``; returns the colengths enumerated, in call
    order, and the list of label calls."""
    enumerated, labelled = [], []
    enumerate_real = report_cli.enumerate_colength
    labels_real = report_cli.canonical_delta_labels

    def enumerate_spy(sg, r):
        enumerated.append(r)
        return enumerate_real(sg, r)

    def labels_spy(*args):
        labelled.append(args[1])
        return labels_real(*args)

    monkeypatch.setattr(report_cli, "enumerate_colength", enumerate_spy)
    monkeypatch.setattr(report_cli, "canonical_delta_labels", labels_spy)
    return enumerated, labelled


@pytest.mark.parametrize(
    "sg,kwargs,colengths",
    [
        (E6, {}, range(1, 7)),
        (E8, {}, range(1, 9)),
        (E6, {"r_max": 8}, range(1, 9)),
    ],
    ids=["3x4", "3x5", "3x4-r8"],
)
def test_analyze_enumerates_each_colength_once(monkeypatch, sg, kwargs, colengths):
    """``analyze`` enumerates each colength that its labels or its cells
    need exactly once, and computes the labels once; the report is the
    same as the one built stratum by stratum."""
    expected = [s.to_dict() for s in analyze(sg, **kwargs).sections]
    enumerated, labelled = _count_calls(monkeypatch)
    report = analyze(sg, **kwargs)
    assert sorted(enumerated) == list(colengths)
    assert len(labelled) == 1
    assert [s.to_dict() for s in report.sections] == expected


@pytest.mark.parametrize("r", [1, 4, 6])
def test_stratify_enumerates_each_colength_once(monkeypatch, r):
    """``stratify(sg, r)`` with no labels enumerates each of 1..r once: its
    own colength serves its cells and its labels alike."""
    enumerated, labelled = _count_calls(monkeypatch)
    stratify(E6, r)
    assert sorted(enumerated) == list(range(1, r + 1))
    assert labelled == [r]


def _strip_vectors(verdict):
    """A verdict's dict without the fields that depend on the exponent
    vector chosen on a face: ``exponents``, ``substitution`` and
    ``witness``, through the links of a chain too."""

    def strip(cert):
        if "links" in cert:
            return dict(cert, links=[strip(link) for link in cert["links"]])
        return {k: v for k, v in cert.items() if k not in ("exponents", "substitution", "witness")}

    out = verdict.to_dict()
    if "certificate" in out:
        out["certificate"] = strip(out["certificate"])
    return out


def test_e6_e8_output_is_pinned():
    """sha256 of the E6 and E8 reports up to 2δ and of every closure verdict,
    certificates included.  A change that moves a digest changes the output
    and must say why.

    The second digest is over the searched verdict of every pair: a
    ``chain`` verdict is replaced by the search it stands in for.  The
    third is over the verdicts as ``stratify`` returns them.  The fourth
    is over those verdicts without the fields that depend on the vector
    chosen on a face (``_strip_vectors``): which pairs are contained, under
    which replacements and through which middle cell."""
    text = hashlib.sha256()
    searched = []
    returned = []
    stripped = []
    reasons = Counter()
    for sg in (E6, E8):
        report = analyze(sg)
        text.update(report.to_json().encode())
        for s in report.sections:
            for (i, j), v in sorted(s.verdicts.items()):
                reasons[v.reason] += 1
                returned.append((s.r, i, j, v.to_dict()))
                stripped.append((s.r, i, j, _strip_vectors(v)))
                if v.reason == "chain":
                    v = cell_closure_contains(s.cells[i], s.cells[j])
                searched.append((s.r, i, j, v.to_dict()))
    assert text.hexdigest() == "12ee0bede629d4b1589bd414505f0b536e7352e09c1435ca27cacefdf674fcbf"
    digest = hashlib.sha256(json.dumps(searched, sort_keys=True).encode()).hexdigest()
    assert digest == "95999cba5d56f38fb67c23c93095501844b7dd4ce84c0952df4d25e39a5e0124"
    digest = hashlib.sha256(json.dumps(returned, sort_keys=True).encode()).hexdigest()
    assert digest == "5181e38c24fa02574ec0c70e75fcd434ccd8fecc7888893137e1bb25d10c3f31"
    digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
    assert digest == "0c89c3cc7b2204122b20fb75d9db50f5583d657ca23b3a0aa9998e6cf1162054"
    assert reasons["degeneration"] == 48 and reasons["chain"] == 37


def test_replacement_charts_output_is_pinned():
    """sha256 of the ⟨4,5⟩ and ⟨3,7⟩ reports up to r = 8 and of every
    closure verdict, certificates included.  E6 and E8 certify only 5 of
    their 48 degenerations in a replacement chart; here 19 of 93 are, so a
    change to how a chart is built shows here first."""
    text = hashlib.sha256()
    rows = []
    reasons = Counter()
    for gens in ((4, 5), (3, 7)):
        report = analyze(NumericalSemigroup(gens), r_max=8)
        text.update(report.to_json().encode())
        for s in report.sections:
            for (i, j), v in sorted(s.verdicts.items()):
                reasons[v.reason] += 1
                rows.append((s.r, i, j, v.to_dict()))
    assert text.hexdigest() == "e21302165c2cfd09b0bf00b7d4b51af6f52c4b153bafeee576dfa763b4c18b6f"
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "96fa1cf6d12fdb1a2fe02c5571df4c8c2929bd8569efe7a475c57c94a40150fa"
    assert reasons == {"degeneration": 93, "chain": 113, "support": 11, "dimension": 284, "no_face": 5}


def test_tables_are_pinned():
    """sha256 of the text tables of E6 and E8 up to 2δ and of ⟨4,5⟩ and
    ⟨3,7⟩ up to r = 8, in that order.  The table is a view of the JSON
    report; this pins the view itself."""
    text = "".join(
        analyze(NumericalSemigroup(gens), r_max=r_max).render_table()
        for gens, r_max in (((3, 4), None), ((3, 5), None), ((4, 5), 8), ((3, 7), 8))
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c9a727edd4cbbde08b1568e3ce209e33d09e2684f58e7c440aa189dc60ae0189"


def test_wide_report_is_pinned(capsys):
    """sha256 of the ⟨4,7⟩ report for r ≤ 3 (δ = 9): the wide, sparse cell
    matrices, 9 rows of 18 columns.  The command line's JSON output is the
    same text."""
    text = analyze(NumericalSemigroup((4, 7)), r_max=3).to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "84677ce6e65c19719509a398eec69f3d061454ce086d2b1684fdc6120cc09c85"
    assert main(["--gens", "4,7", "--max-r", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == text


def test_frontier_output_is_pinned():
    """sha256 of the ⟨4,7⟩ r=10 and ⟨2,13⟩ r=12 reports and of every
    closure verdict, certificates included.  Their widest cells have the
    most Plücker coordinates of any pin, so the order of each minor's
    terms, which sets every chart's vector indices, shows here first."""
    text = hashlib.sha256()
    rows = []
    reasons = Counter()
    for gens, r in (((4, 7), 10), ((2, 13), 12)):
        sg = NumericalSemigroup(gens)
        report = StratReport(sg, [stratify(sg, r)])
        text.update(report.to_json().encode())
        for s in report.sections:
            for (i, j), v in sorted(s.verdicts.items()):
                reasons[v.reason] += 1
                rows.append((s.r, i, j, v.to_dict()))
            # ``components`` reads the contained pairs as a closed relation,
            # here on strata whose relation has unknowns
            cont = {pair for pair, v in s.verdicts.items() if v.status == CONTAINED}
            assert all((i, j) in cont for i, k in cont for m, j in cont if k == m)
    assert text.hexdigest() == "beae95f8606a98c9a813007fd50c6b57b312147fa8954d9b4393f06ecaaabdea"
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "0f93843292627a5862d363781678cf4fe86b3c8e8acca3db35d41a3af6d47fc2"
    assert reasons == {"dimension": 215, "degeneration": 39, "chain": 99, "support": 16, "no_face": 15}


WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("mode", ["plain", "traced"])
@pytest.mark.parametrize(
    "workload,digest",
    [
        ("ladder-e6e8", "12ee0bede629d4b1589bd414505f0b536e7352e09c1435ca27cacefdf674fcbf"),
        ("plucker-wide", "84677ce6e65c19719509a398eec69f3d061454ce086d2b1684fdc6120cc09c85"),
    ],
    ids=["ladder-e6e8", "plucker-wide"],
)
def test_benchmark_worker_passes(workload, digest, mode):
    """One pass of each benchmark workload, run as the benchmark runs it, in
    a fresh isolated interpreter.  The traced pass reaches every function
    the worker must see called, and both passes give the pinned digest."""
    proc = subprocess.run(
        [sys.executable, "-I", str(WORKER), workload, "1", mode],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["failed"], out["errors"]) == (0, [])
    assert out["digest"] == digest


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_prints_its_comments():
    """The README's Library block runs, and each ``print`` line with a
    ``# value`` comment prints that value: the reprs of its arguments,
    separated by spaces."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.partition("  # ")[2] for line in block.splitlines() if line.startswith("print(")]
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(repr, args)))})
    assert len(printed) == len(comments)
    pairs = [(got, want) for got, want in zip(printed, comments) if want]
    assert len(pairs) == 7
    assert [got for got, _ in pairs] == [want.strip() for _, want in pairs]


def test_readme_json_example_is_the_report():
    """The README's JSON block is the report of ``--gens 3,4 --r 2`` up to
    layout, both cells included, with its label escaped as the report
    prints it."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    report = StratReport(E6, [stratify(E6, 2)]).to_json()
    assert json.loads(block) == json.loads(report)
    assert '"label": "\\u0394_2"' in block and '"label": "\\u0394_2"' in report


def test_report_schema():
    rep = analyze(E6, r_max=2)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert set(d) == {"schema_version", "semigroup", "strata"}
    assert d["semigroup"] == {
        "gens": [3, 4],
        "gaps": [1, 2, 5],
        "delta": 3,
        "conductor": 6,
    }
    sec = d["strata"][1]
    assert set(sec) == {
        "r",
        "cells",
        "dim",
        "components",
        "irreducible",
        "pd_pattern",
        "singular_candidates",
        "unknowns",
    }
    cell = sec["cells"][0]
    assert set(cell) == {
        "label",
        "gaps",
        "min_gens",
        "delta_set",
        "schubert",
        "dim",
        "generators",
        "eliminated",
    }


def test_analyze_is_deterministic():
    a = analyze(E6).to_json()
    b = analyze(E6).to_json()
    assert a == b


def test_e6_r2_section():
    sec = stratify(E6, 2)
    assert sec.dim == 1
    assert sec.unknowns == 0
    d = sec.to_dict()
    assert d["irreducible"] is True
    assert d["pd_pattern"] is True
    assert [c["label"] for c in d["cells"]] == ["Δ_2", "Δ_3"]


def test_one_component_is_irreducible_whatever_its_unknowns():
    """With one top, every other cell lies in the top's certified closure,
    so an unknown pair cannot add a component.  Turning a contained pair of
    E6 r=6 that no cell links, between two cells other than the top, into
    an unknown keeps the relation closed and ℳ_6 irreducible."""
    sec = stratify(E6, 6)
    n, top = len(sec.cells), sec.components[0]["top"]
    cont = {pair for pair, v in sec.verdicts.items() if v.status == CONTAINED}
    i, j = next(
        (i, j)
        for i, j in sorted(cont)
        if top not in (i, j) and not any((i, k) in cont and (k, j) in cont for k in range(n))
    )
    sec.verdicts[i, j] = ClosureVerdict(UNKNOWN, "no_face")
    sec.components = components(sec.cells, sec.verdicts)
    sec.unknowns = 1
    d = sec.to_dict()
    assert (d["unknowns"], len(d["components"]), d["irreducible"]) == (1, 1, True)
    assert " 6 |     5 |   3 |     1 | yes " in StratReport(E6, [sec]).render_table()


def test_e6_r4_two_components_each_projective_like():
    sec = stratify(E6, 4)
    d = sec.to_dict()
    assert d["irreducible"] is False
    assert len(d["components"]) == 2
    for comp in d["components"]:
        assert comp["pd_pattern"] is True
        dims = sorted(sec.cells[i].dim for i in comp["members"])
        assert dims == [0, 1, 2]
    assert d["singular_candidates"] == [0, 1]


def test_e6_r5_shared_boundary_labels():
    sec = stratify(E6, 5)
    d = sec.to_dict()
    assert len(d["components"]) == 2
    assert d["singular_candidates"] == [0, 1]
    shared = {d["cells"][i]["label"] for i in d["singular_candidates"]}
    assert shared == {"Δ_2", "Δ_4"}
    tops = {d["cells"][c["top"]]["label"] for c in d["components"]}
    assert tops == {"Δ_1", "Δ_3"}


@pytest.mark.parametrize("gens,r_max", [((3, 4), None), ((3, 5), None), ((4, 5), 8)], ids=str)
def test_singular_candidates_lie_in_two_tops_rows(gens, r_max):
    """A section's singular candidates are the cells in the closed rows of
    two or more tops, the rows read off its verdicts directly."""
    for sec in analyze(NumericalSemigroup(gens), r_max=r_max).sections:
        n = len(sec.cells)
        rows = [{i} | {j for (k, j), v in sec.verdicts.items() if k == i and v.status == CONTAINED} for i in range(n)]
        tops = [t for t in range(n) if not any(t in rows[i] for i in range(n) if i != t)]
        assert sec.singular_candidates == [i for i in range(n) if sum(i in rows[t] for t in tops) >= 2], sec.r


def test_smooth_point_report():
    rep = analyze(NumericalSemigroup((1,)))
    assert rep.dimension_row() == (0,)
    assert rep.cell_count_row() == (1,)
    sec = rep.sections[0]
    assert sec.r == 1
    assert sec.cells[0].dim == 0


def test_render_table_mentions_cells_and_verdict():
    rep = analyze(E6, r_max=3)
    table = rep.render_table()
    assert "Δ_1" in table
    assert "W(3,2,2)" in table
    assert "irreducible" in table


def test_stratify_rejects_bad_r():
    with pytest.raises(ValueError):
        stratify(E6, 0)


@pytest.mark.parametrize("r", [0, -2])
def test_labels_reject_r_max_below_one(r):
    """``canonical_delta_labels`` checks ``r_max`` as ``analyze`` does,
    instead of returning no labels."""
    with pytest.raises(ValueError, match="must be at least 1"):
        canonical_delta_labels(E6, r)


@pytest.mark.parametrize("r", [True, 2.0, Fraction(2), "2"], ids=repr)
def test_colengths_that_are_not_ints_are_refused(r):
    """A colength is exactly an ``int``: ``True`` would be reported as
    ``"r": true``, and ``2.0`` would fail inside ``range``."""
    for call in (
        lambda: stratify(E6, r),
        lambda: analyze(E6, r_max=r),
        lambda: oracle_check(E6, r_max=r),
        lambda: canonical_delta_labels(E6, r),
    ):
        with pytest.raises(ValueError, match="must be an int"):
            call()


def test_reference_enumeration_agrees():
    for r in range(1, 5):
        fast = [m.gap_set for m in enumerate_colength(E6, r)]
        assert fast == enumerate_colength_reference(E6, r)


def test_specialized_orders_fixture():
    f = canonical_family(GammaModule(E6, (0, 4, 8)))
    inv = {v: k for k, v in f.display_names.items()}
    orders = specialized_orders(f, {inv["a"]: Fraction(2), inv["b"]: Fraction(3)})
    assert tuple(orders) == (3, 6, 7, 9)


def test_specialized_orders_rejects_symbolic_assignment():
    f = canonical_family(GammaModule(E6, (0, 4)))
    inv = {v: k for k, v in f.display_names.items()}
    from hilbstrat import ParamPoly

    with pytest.raises(ValueError):
        specialized_orders(f, {inv["a"]: ParamPoly.variable("z")})


def test_specialization_diff_clean():
    assert specialization_diff(E6, 3) == []


def test_oracle_check_small():
    out = oracle_check(NumericalSemigroup((2, 3)))
    assert out["ok"] is True
    assert out["semigroup"] == [2, 3]
    assert set(out["strata"]) == {1, 2}


def test_cli_json_roundtrip(capsys):
    rc = main(["--gens", "3,4", "--max-r", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert len(data["strata"]) == 2


def test_cli_single_stratum(capsys):
    rc = main(["--gens", "3,4", "--r", "5", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [s["r"] for s in data["strata"]] == [5]


def test_cli_table_default(capsys):
    rc = main(["--gens", "3,4", "--max-r", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Δ_1" in out


def test_cli_rejects_non_coprime(capsys):
    rc = main(["--gens", "4,6"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_cli_rejects_malformed_gens(capsys):
    assert main(["--gens", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid" in captured.err


def test_cli_unknowns_exit_3(capsys):
    """⟨4,5⟩ r=7 has one unknown: the non-containment 6 -> 2 (``no_face``)."""
    rc = main(["--gens", "4,5", "--r", "7", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 3
    data = json.loads(out)
    assert data["strata"][0]["unknowns"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--r", "0"],
        ["--max-r", "0"],
        ["--oracle-check", "--r", "0"],
        ["--oracle-check", "--max-r", "0"],
        ["--oracle-check", "--max-r", "-3"],
    ],
    ids=" ".join,
)
def test_cli_rejects_r_below_one(capsys, args):
    rc = main(["--gens", "3,4"] + args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "at least 1" in captured.err


@pytest.mark.parametrize("args", [["--r", "7"], ["--oracle-check", "--max-r", "7"]], ids=" ".join)
def test_cli_exits_2_on_a_relation_linear_in_no_parameter(capsys, args):
    """⟨4,9⟩ r=7 forces −q00x013·q01x018 + q01x018², which no parameter
    solves; both modes report it and exit 2, as README documents."""
    rc = main(["--gens", "4,9"] + args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "is not linear in any parameter" in captured.err


CLI_REFUSALS = [
    (["--gens", "abc"], "invalid literal for int() with base 10: 'abc'"),
    (["--gens", "4,6"], "generators [4, 6] have gcd 2"),
    (["--gens", "4,9", "--r", "7"], "relation -q00x013*q01x018 + q01x018^2 is not linear in any parameter"),
    (
        ["--gens", "4,9", "--oracle-check", "--max-r", "7"],
        "relation -q00x013*q01x018 + q01x018^2 is not linear in any parameter",
    ),
    (["--gens", "3,4", "--r", "0"], "r must be at least 1, got 0"),
    (["--gens", "3,4", "--oracle-check", "--max-r", "0"], "r_max must be at least 1, got 0"),
]


@pytest.mark.parametrize("args,message", CLI_REFUSALS, ids=[" ".join(args) for args, _ in CLI_REFUSALS])
def test_cli_refusals_print_one_line_and_exit_2(capsys, args, message):
    """A refused semigroup, colength or relation prints exactly one
    ``hilbstrat:`` line on stderr, nothing on stdout, and exits 2, in the
    report mode and the oracle mode alike."""
    rc = main(args)
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", "hilbstrat: %s\n" % message)


def test_cli_oracle_mode(capsys):
    rc = main(["--gens", "2,3", "--oracle-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["ok"] is True
