"""Per-r stratification reports, brute-force oracle mode, and the CLI.

The report pipeline strings the lower layers together: enumerate the
Γ-modules of each colength, build canonical families and Grassmannian
cells, decide pairwise closures, and aggregate components.  Output is an
aligned text table or a versioned JSON document.  Nothing in it depends on
a seed, so the output, certificates included, is byte-identical for fixed
inputs.  Only the brute-force oracle samples random points, from its own
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


class ReportConfig:
    """An empty shim: the report pipeline takes no setting.  It exists, with
    the ``config`` keyword of ``analyze``, only because the benchmark
    worker calls ``ReportConfig(seed=seed)``; ``seed`` is ignored.  The
    class and both keywords go once the worker stops passing them."""

    __slots__ = ()

    def __init__(self, seed=None):
        pass


def canonical_delta_labels(sg, r_max=None):
    """Δ-sets in order of first appearance over r = 1, 2, …, 2δ, or only up
    to r_max when given: a label depends only on the strata before it.

    Within one r the cells come in lexicographic gap-set order; scanning
    the strata in increasing r and numbering each new Δ-set on sight
    reproduces the customary Δ_1, Δ_2, … naming.  Every Δ-set of every
    stratum occurs among the cells of ℳ_{2δ}, so the list is complete.
    """
    labels = []
    seen = set()
    top = max(1, 2 * sg.delta)
    if r_max is not None:
        top = min(top, r_max)
    for r in range(1, top + 1):
        for module in enumerate_colength(sg, r):
            d = delta_set(module, r)
            if d not in seen:
                seen.add(d)
                labels.append(d)
    return labels


class StratumSection:
    """Everything computed about one ℳ_r, ready for serialization."""

    __slots__ = ("r", "cells", "verdicts", "analysis", "dim", "unknowns")

    def to_dict(self):
        cells = []
        for c in self.cells:
            fam = c.family
            cells.append(
                {
                    "label": c.label,
                    "gaps": list(c.module.gap_set),
                    "min_gens": list(c.module.min_generators),
                    "delta_set": list(c.delta),
                    "schubert": list(c.schubert),
                    "dim": c.dim,
                    "generators": fam.format_generators(),
                    "eliminated": fam.eliminated_display(),
                }
            )
        comps = [
            {"top": comp["top"], "members": list(comp["members"]), "pd_pattern": comp["pd_pattern"]}
            for comp in self.analysis.components
        ]
        return {
            "r": self.r,
            "cells": cells,
            "dim": self.dim,
            "components": comps,
            "irreducible": self.irreducible(),
            "pd_pattern": self.pd_pattern(),
            "singular_candidates": list(self.analysis.singular_candidates),
            "unknowns": self.unknowns,
        }

    def irreducible(self):
        return len(self.analysis.components) == 1 and self.unknowns == 0

    def pd_pattern(self):
        comps = self.analysis.components
        return len(comps) == 1 and comps[0]["pd_pattern"]


def stratify(sg, r, labels=None):
    """Compute one report section: cells, closure verdicts, components."""
    if r < 1:
        raise ValueError("r must be at least 1, got %d" % r)
    if labels is None:
        labels = canonical_delta_labels(sg, r)
    label_of = {d: "Δ_%d" % (i + 1) for i, d in enumerate(labels)}
    cells = []
    for i, module in enumerate(enumerate_colength(sg, r)):
        cell = build_cell(sg, module, r, index=i)
        cell.label = label_of.get(cell.delta, "Δ_?")
        cells.append(cell)
    verdicts = closure_verdicts(cells)
    section = StratumSection.__new__(StratumSection)
    section.r = r
    section.cells = cells
    section.verdicts = verdicts
    section.analysis = components(cells, verdicts)
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
        sg = self.semigroup
        out = []
        out.append(
            "Γ = ⟨%s⟩   gaps {%s}   δ = %d   conductor %d"
            % (
                ", ".join(str(g) for g in sg.gens),
                ", ".join(str(g) for g in sg.gaps),
                sg.delta,
                sg.conductor,
            )
        )
        out.append("")
        header = " r | cells | dim | comps | irreducible | P^d | singular | unknowns"
        out.append(header)
        out.append("-" * len(header))
        for s in self.sections:
            irr = "yes" if s.irreducible() else "no"
            if len(s.analysis.components) == 1 and s.unknowns:
                irr = "unverified"
            sing = ",".join(s.cells[i].label or str(i) for i in s.analysis.singular_candidates)
            out.append(
                "%2d | %5d | %3d | %5d | %-11s | %-3s | %-8s | %d"
                % (
                    s.r,
                    len(s.cells),
                    s.dim,
                    len(s.analysis.components),
                    irr,
                    "yes" if s.pd_pattern() else "no",
                    sing or "-",
                    s.unknowns,
                )
            )
        for s in self.sections:
            out.append("")
            out.append("r = %d" % s.r)
            for c in s.cells:
                out.append(
                    "  %-4s  W(%s)  dim %d  G(S) = {%s}"
                    % (
                        c.label,
                        ",".join(str(x) for x in c.schubert),
                        c.dim,
                        ", ".join(str(g) for g in c.module.gap_set),
                    )
                )
                out.append("        I = (%s)" % ", ".join(c.family.format_generators()))
            for comp in s.analysis.components:
                out.append(
                    "  component top %s: members %s%s"
                    % (
                        s.cells[comp["top"]].label,
                        " ".join(s.cells[j].label for j in comp["members"]),
                        "  [P^%d pattern]" % (len(comp["members"]) - 1) if comp["pd_pattern"] else "",
                    )
                )
        out.append("")
        return "\n".join(out)


def analyze(sg, r_max=None, config=None, rs=None):
    """Full report for r = 1 … r_max (default 2δ, or 1 when δ = 0).

    ``config`` is ignored; see ``ReportConfig``."""
    if rs is None:
        if r_max is None:
            r_max = max(1, 2 * sg.delta)
        if r_max < 1:
            raise ValueError("r_max must be at least 1, got %d" % r_max)
        rs = range(1, r_max + 1)
    labels = canonical_delta_labels(sg, max(rs, default=0))
    sections = [stratify(sg, r, labels) for r in rs]
    return StratReport(sg, sections)


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
    [0, c]; the pivot exponents are exactly the attained orders.
    """
    module = family.module
    sg = module.ambient
    upto = module.conductor + 1
    pivots = {}
    for gen in family.generators:
        sp = gen.subs(assignment)
        coeffs = {}
        for e in range(min(sp.trunc, upto)):
            p = sp.coeff(e)
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


def specialization_diff(sg, r, samples=3, seed=0):
    """Cells of ℳ_r whose random specializations miss their order set."""
    mismatches = []
    for module in enumerate_colength(sg, r):
        family = canonical_family(sg, module)
        expected = tuple(module.members_below(module.conductor + 1))
        rng = random.Random("%s:%s:%d:%s" % (seed, sg.gens, r, module.gap_set))
        for _ in range(samples):
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


def oracle_check(sg, r_max=None, samples=3, seed=0):
    """Diff the main pipeline against the brute-force recomputations.

    Returns a dict with one entry per r; ``ok`` is True iff every
    enumeration diff and every specialization check came back clean.
    """
    if r_max is None:
        r_max = max(1, 2 * sg.delta)
    if r_max < 1:
        raise ValueError("r_max must be at least 1, got %d" % r_max)
    strata = {}
    ok = True
    for r in range(1, r_max + 1):
        main = sorted(m.gap_set for m in enumerate_colength(sg, r))
        ref = sorted(enumerate_colength_reference(sg, r))
        main_set = set(main)
        ref_set = set(ref)
        missing = [list(t) for t in ref if t not in main_set]
        extra = [list(t) for t in main if t not in ref_set]
        sdiff = specialization_diff(sg, r, samples=samples, seed=seed)
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
    except (ValueError, HilbstratError) as exc:
        print("hilbstrat: %s" % exc, file=sys.stderr)
        return 2

    if args.oracle_check:
        try:
            diff = oracle_check(sg, r_max=args.r if args.r is not None else args.max_r)
        except ValueError as exc:
            print("hilbstrat: %s" % exc, file=sys.stderr)
            return 2
        sys.stdout.write(json.dumps(diff, indent=2) + "\n")
        if not diff["ok"]:
            print("hilbstrat: oracle mismatch", file=sys.stderr)
            return 1
        return 0

    try:
        if args.r is not None:
            report = analyze(sg, rs=[args.r])
        else:
            report = analyze(sg, r_max=args.max_r)
    except (ValueError, HilbstratError) as exc:
        print("hilbstrat: %s" % exc, file=sys.stderr)
        return 2

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
