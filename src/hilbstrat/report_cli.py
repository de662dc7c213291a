"""Per-r stratification reports, brute-force oracle mode, and the CLI.

The report pipeline strings the lower layers together: enumerate the
Γ-modules of each colength, build canonical families and Grassmannian
cells, decide pairwise closures, and aggregate components.  Output is a
versioned JSON document, or an aligned text table that is a view of it:
``render_table`` prints fields of ``to_dict`` alone.  Nothing depends on
a seed, so the output, certificates included, is byte-identical for fixed
inputs.  Only the brute-force oracle samples random points, from a fixed
seed.
"""

import json
import random
import sys
from fractions import Fraction

from .closure_analysis import UNKNOWN, build_cell, closure_verdicts, components
from .errors import HilbstratError
from .gamma_modules import delta_set, enumerate_colength
from .ideal_cells import canonical_family
from .semigroup_core import NumericalSemigroup

SCHEMA_VERSION = 1
ORACLE_SAMPLES = 3  # random specializations per cell
ORACLE_SEED = 0


class ReportConfig:
    """An empty shim: the report pipeline takes no setting.  It exists, with
    the ``config`` keyword of ``analyze``, only because the benchmark
    worker calls ``ReportConfig(seed=seed)``; ``seed`` is ignored.  The
    class and both keywords go once the worker stops passing them."""

    __slots__ = ()

    def __init__(self, seed=None):
        pass


def canonical_delta_labels(sg, r_max=None, modules=None):
    """Δ-sets in order of first appearance over r = 1, 2, …, 2δ, or only up
    to r_max when given: a label depends only on the strata before it.

    Within one r the cells come in lexicographic gap-set order; scanning
    the strata in increasing r and numbering each new Δ-set on sight
    reproduces the customary Δ_1, Δ_2, … naming.  Every Δ-set of every
    stratum occurs among the cells of ℳ_{2δ}, so the list is complete.
    ``modules`` maps a colength to its modules, as ``enumerate_colength``
    lists them; a colength it lacks is enumerated here.
    """
    labels = []
    seen = set()
    top = max(1, 2 * sg.delta)
    if r_max is not None:
        _check_colength("r_max", r_max)
        top = min(top, r_max)
    modules = modules or {}
    for r in range(1, top + 1):
        for module in modules.get(r) or enumerate_colength(sg, r):
            d = delta_set(module)
            if d not in seen:
                seen.add(d)
                labels.append(d)
    return labels


class StratumSection:
    """Everything computed about one ℳ_r, ready for serialization.
    ``labels`` holds the Δ_i label of each cell, in the order of ``cells``."""

    __slots__ = ("r", "cells", "labels", "verdicts", "components", "singular_candidates", "dim", "unknowns")

    def to_dict(self):
        cells = []
        for c, label in zip(self.cells, self.labels):
            fam = c.family
            cells.append(
                {
                    "label": label,
                    "gaps": list(c.module.gap_set),
                    "min_gens": list(c.module.min_generators),
                    "delta_set": list(c.delta),
                    "schubert": list(c.schubert),
                    "dim": c.dim,
                    "generators": fam.format_generators(),
                    "eliminated": fam.eliminated_display(),
                }
            )
        comps = self.components
        return {
            "r": self.r,
            "cells": cells,
            "dim": self.dim,
            "components": comps,
            # one top: every other cell then lies in its certified closure,
            # so ℳ_r is that closure, whatever the unknown pairs
            "irreducible": len(comps) == 1,
            "pd_pattern": len(comps) == 1 and comps[0]["pd_pattern"],
            "singular_candidates": self.singular_candidates,
            "unknowns": self.unknowns,
        }


def _check_colength(name, r):
    """Refuse a colength that is not an int of at least 1; the exact type,
    so a bool is refused too."""
    if type(r) is not int:
        raise ValueError("%s must be an int, got %r" % (name, r))
    if r < 1:
        raise ValueError("%s must be at least 1, got %d" % (name, r))


def stratify(sg, r):
    """Compute one report section: cells, closure verdicts, components.
    Each cell is labelled Δ_i by the place of its Δ-set in
    ``canonical_delta_labels(sg, r)``, the labels of strata 1..r."""
    _check_colength("r", r)
    modules = enumerate_colength(sg, r)
    return _section(r, canonical_delta_labels(sg, r, {r: modules}), modules)


def _section(r, labels, modules):
    """The section of ℳ_r over ``modules``; ``labels`` cover strata 1..r."""
    label_of = {d: "Δ_%d" % (i + 1) for i, d in enumerate(labels)}
    cells = [build_cell(module) for module in modules]
    verdicts = closure_verdicts(cells)
    section = StratumSection.__new__(StratumSection)
    section.r = r
    section.cells = cells
    section.labels = [label_of[c.delta] for c in cells]
    section.verdicts = verdicts
    section.components = components(cells, verdicts)
    # the cells in two or more components
    section.singular_candidates = [
        i for i in range(len(cells)) if sum(i in comp["members"] for comp in section.components) >= 2
    ]
    section.dim = max(c.dim for c in cells)
    section.unknowns = sum(1 for v in verdicts.values() if v.status == UNKNOWN)
    return section


class StratReport:
    __slots__ = ("semigroup", "sections")

    def __init__(self, semigroup, sections):
        self.semigroup = semigroup
        self.sections = sections

    def dimension_row(self):
        return tuple(s.dim for s in self.sections)

    def cell_count_row(self):
        return tuple(len(s.cells) for s in self.sections)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "semigroup": self.semigroup.to_dict(),
            "strata": [s.to_dict() for s in self.sections],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_table(self):
        """The aligned text table: a view of ``to_dict``, which it reads alone."""
        doc = self.to_dict()
        sg = doc["semigroup"]
        out = []
        out.append(
            "Γ = ⟨%s⟩   gaps {%s}   δ = %d   conductor %d"
            % (
                ", ".join(str(g) for g in sg["gens"]),
                ", ".join(str(g) for g in sg["gaps"]),
                sg["delta"],
                sg["conductor"],
            )
        )
        out.append("")
        header = " r | cells | dim | comps | irreducible | P^d | singular | unknowns"
        out.append(header)
        out.append("-" * len(header))
        for s in doc["strata"]:
            sing = ",".join(s["cells"][i]["label"] for i in s["singular_candidates"])
            out.append(
                "%2d | %5d | %3d | %5d | %-11s | %-3s | %-8s | %d"
                % (
                    s["r"],
                    len(s["cells"]),
                    s["dim"],
                    len(s["components"]),
                    "yes" if s["irreducible"] else "no",
                    "yes" if s["pd_pattern"] else "no",
                    sing or "-",
                    s["unknowns"],
                )
            )
        for s in doc["strata"]:
            labels = [c["label"] for c in s["cells"]]
            out.append("")
            out.append("r = %d" % s["r"])
            for c in s["cells"]:
                out.append(
                    "  %-4s  W(%s)  dim %d  G(S) = {%s}"
                    % (
                        c["label"],
                        ",".join(str(x) for x in c["schubert"]),
                        c["dim"],
                        ", ".join(str(g) for g in c["gaps"]),
                    )
                )
                out.append("        I = (%s)" % ", ".join(c["generators"]))
            for comp in s["components"]:
                out.append(
                    "  component top %s: members %s%s"
                    % (
                        labels[comp["top"]],
                        " ".join(labels[j] for j in comp["members"]),
                        "  [P^%d pattern]" % (len(comp["members"]) - 1) if comp["pd_pattern"] else "",
                    )
                )
        out.append("")
        return "\n".join(out)


def analyze(sg, r_max=None, config=None):
    """Full report for r = 1 … r_max (default 2δ, or 1 when δ = 0).

    ``config`` is ignored; see ``ReportConfig``.  A single stratum's report
    is ``StratReport(sg, [stratify(sg, r)])``."""
    if r_max is None:
        r_max = max(1, 2 * sg.delta)
    _check_colength("r_max", r_max)
    rs = range(1, r_max + 1)
    # each colength is enumerated once, for the labels and the cells alike
    modules = {r: enumerate_colength(sg, r) for r in rs}
    labels = canonical_delta_labels(sg, r_max, modules)
    return StratReport(sg, [_section(r, labels, modules[r]) for r in rs])


# -- brute-force oracle mode ------------------------------------------


def enumerate_colength_reference(sg, r):
    """Gap sets of colength r by downward-closed subset search.

    Walks sorted r-subsets of Γ ∩ [0, c + r·m), c the conductor and m the
    multiplicity, with only one pruning rule (an element t with t − m ∈ Γ
    requires t − m already chosen) and keeps exactly the subsets whose complement is
    closed under adding every generator.  Same proven search bound as the
    main enumeration, entirely different walk and filter.
    """
    if r == 0:
        return [()]
    bound = sg.conductor + r * sg.multiplicity
    universe = sg.members_below(bound)
    member = set(universe)
    m = sg.multiplicity
    out = []

    def is_module_complement(gaps):
        for s in universe:
            if s in gaps:
                continue
            for g in sg.gens:
                t = s + g
                if t < bound and t in gaps:
                    return False
        return True

    def extend(prefix, chosen, start):
        need = r - len(prefix)
        if need == 0:
            if is_module_complement(chosen):
                out.append(tuple(prefix))
            return
        for idx in range(start, len(universe) - need + 1):
            t = universe[idx]
            if t - m >= 0 and (t - m) in member and (t - m) not in chosen:
                continue
            chosen.add(t)
            extend(prefix + [t], chosen, idx + 1)
            chosen.remove(t)

    extend([], set(), 0)
    return out


def specialized_orders(family, assignment):
    """Orders up to the module's conductor c of the ideal spanned by the
    specialized family.

    Row-reduces every semigroup shift t^γ·g_i over the exponent window
    [0, c]; the pivot exponents are exactly the attained orders.  Only a
    generator's coefficients in that window are specialized.
    """
    module = family.module
    sg = module.ambient
    upto = module.conductor + 1
    pivots = {}
    for gen in family.generators:
        coeffs = {}
        for e, p in gen.items():
            if e >= upto:
                continue
            p = p.subs(assignment)
            if not p.is_constant():
                raise ValueError("assignment must give every parameter a value")
            v = p.constant_value()
            if v:
                coeffs[e] = v
        if not coeffs:
            continue
        base = min(coeffs)
        for gamma in sg.members_below(max(0, upto - base)):
            row = [Fraction(0)] * upto
            for e, v in coeffs.items():
                if e + gamma < upto:
                    row[e + gamma] = v
            cur = row
            for c in range(upto):
                if not cur[c]:
                    continue
                if c in pivots:
                    f = cur[c]
                    cur = [x - f * y for x, y in zip(cur, pivots[c])]
                else:
                    inv = Fraction(1) / cur[c]
                    pivots[c] = [x * inv for x in cur]
                    break
    return tuple(sorted(pivots))


def _random_assignment(family, rng):
    return {
        p: Fraction(rng.randint(-10000, 10000), rng.randint(1, 97))
        for p in family.free_params
    }


def specialization_diff(sg, r):
    """Cells of ℳ_r whose random specializations miss their order set."""
    mismatches = []
    for module in enumerate_colength(sg, r):
        family = canonical_family(module)
        expected = tuple(module.members_below(module.conductor + 1))
        rng = random.Random("%s:%s:%d:%s" % (ORACLE_SEED, sg.gens, r, module.gap_set))
        for _ in range(ORACLE_SAMPLES):
            assignment = _random_assignment(family, rng)
            got = specialized_orders(family, assignment)
            if got != expected:
                mismatches.append(
                    {
                        "r": r,
                        "gaps": list(module.gap_set),
                        "assignment": {k: str(v) for k, v in sorted(assignment.items())},
                        "got": list(got),
                        "expected": list(expected),
                    }
                )
    return mismatches


def oracle_check(sg, r_max=None):
    """Diff the main pipeline against the brute-force recomputations.

    Returns a dict with one entry per r; ``ok`` is True iff every
    enumeration diff and every specialization check came back clean.
    """
    if r_max is None:
        r_max = max(1, 2 * sg.delta)
    _check_colength("r_max", r_max)
    strata = {}
    ok = True
    for r in range(1, r_max + 1):
        main = sorted(m.gap_set for m in enumerate_colength(sg, r))
        ref = sorted(enumerate_colength_reference(sg, r))
        main_set = set(main)
        ref_set = set(ref)
        missing = [list(t) for t in ref if t not in main_set]
        extra = [list(t) for t in main if t not in ref_set]
        sdiff = specialization_diff(sg, r)
        if missing or extra or sdiff:
            ok = False
        strata[r] = {
            "enumeration": {"missing": missing, "extra": extra},
            "specializations": sdiff,
        }
    return {"semigroup": list(sg.gens), "r_max": r_max, "ok": ok, "strata": strata}


# -- command line -------------------------------------------------------


def _parse_gens(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected comma-separated generators, got %r" % text)
    return tuple(int(p) for p in parts)


def main(argv=None):
    import argparse  # only the command line needs it; keeps it out of ``import hilbstrat``

    parser = argparse.ArgumentParser(
        prog="hilbstrat",
        description="Stratify punctual Hilbert schemes of a monomial curve "
        "singularity into affine cells and report their structure.",
    )
    parser.add_argument("--gens", required=True, help="semigroup generators, e.g. 3,4")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--max-r", type=int, default=None, help="analyze r = 1..N (default 2δ)")
    which.add_argument("--r", type=int, default=None, help="analyze a single stratum")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument(
        "--oracle-check",
        action="store_true",
        help="diff the pipeline against the brute-force oracle instead of reporting",
    )
    args = parser.parse_args(argv)

    try:
        sg = NumericalSemigroup(_parse_gens(args.gens))
        if args.oracle_check:
            diff = oracle_check(sg, r_max=args.r if args.r is not None else args.max_r)
        elif args.r is not None:
            report = StratReport(sg, [stratify(sg, args.r)])
        else:
            report = analyze(sg, r_max=args.max_r)
    except (ValueError, HilbstratError) as exc:
        print("hilbstrat: %s" % exc, file=sys.stderr)
        return 2

    if args.oracle_check:
        sys.stdout.write(json.dumps(diff, indent=2) + "\n")
        if not diff["ok"]:
            print("hilbstrat: oracle mismatch", file=sys.stderr)
            return 1
        return 0

    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_table())

    if any(s.unknowns for s in report.sections):
        print("hilbstrat: unresolved closure verdicts remain", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
