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
    analyze,
    canonical_delta_labels,
    canonical_family,
    cell_closure_contains,
    enumerate_colength,
    oracle_check,
    stratify,
)
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
    chosen on a face (``_strip_vectors``): which pairs are contained, in
    which coordinate system and through which chain."""
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
    assert digest == "d0c525b4bb26528ff8574320e77c43b80722e139d32e94bf343862abc7e830c2"
    digest = hashlib.sha256(json.dumps(returned, sort_keys=True).encode()).hexdigest()
    assert digest == "711a372be26f24f3f1ea79509f894ac4be8871dbef3a14e187cea82f2f0bfa8a"
    digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
    assert digest == "aca9cbc7b5f796d7e5946fad7deb934190ec4401f9d292029b9e9464c880b344"
    assert reasons["degeneration"] == 48 and reasons["chain"] == 37


def test_wide_report_is_pinned(capsys):
    """sha256 of the ⟨4,7⟩ report for r ≤ 3 (δ = 9): the wide, sparse cell
    matrices, 9 rows of 18 columns.  The command line's JSON output is the
    same text."""
    text = analyze(NumericalSemigroup((4, 7)), r_max=3).to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "84677ce6e65c19719509a398eec69f3d061454ce086d2b1684fdc6120cc09c85"
    assert main(["--gens", "4,7", "--max-r", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == text


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


def test_reference_enumeration_agrees():
    for r in range(1, 5):
        fast = [m.gap_set for m in enumerate_colength(E6, r)]
        assert fast == enumerate_colength_reference(E6, r)


def test_specialized_orders_fixture():
    f = canonical_family(E6, GammaModule(E6, (0, 4, 8)))
    inv = {v: k for k, v in f.display_names.items()}
    orders = specialized_orders(f, {inv["a"]: Fraction(2), inv["b"]: Fraction(3)})
    assert tuple(orders) == (3, 6, 7, 9)


def test_specialized_orders_rejects_symbolic_assignment():
    f = canonical_family(E6, GammaModule(E6, (0, 4)))
    inv = {v: k for k, v in f.display_names.items()}
    from hilbstrat import ParamPoly

    with pytest.raises(ValueError):
        specialized_orders(f, {inv["a"]: ParamPoly.variable("z")})


def test_specialization_diff_clean():
    assert specialization_diff(E6, 3, samples=2) == []


def test_oracle_check_small():
    out = oracle_check(NumericalSemigroup((2, 3)), samples=2, seed=1)
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


def test_cli_oracle_mode(capsys):
    rc = main(["--gens", "2,3", "--oracle-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["ok"] is True
