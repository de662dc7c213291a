"""One pass of one benchmark workload, in a fresh interpreter.

Usage: python3 -I perfbench/worker.py WORKLOAD SEED MODE

MODE is ``plain`` (timed pass, no tracing), ``traced`` (the same pass with
spans around hilbstrat's public functions) or ``setup`` (import and build
the semigroups, then stop).  The worker prints one JSON object on stdout.
Correctness checks run after the timed region and never count in ``wall_s``.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Every job is (generators, r_max, dimension row, cell-count row).  The rows
# were recorded from the reports at the commit that introduced the benchmark
# and are the reference the correctness check compares against.
WORKLOADS = {
    "ladder-e6e8": [
        ((3, 4), None, (0, 1, 2, 2, 2, 3), (1, 2, 3, 4, 4, 5)),
        ((3, 5), None, (0, 1, 2, 2, 3, 3, 3, 4), (1, 2, 3, 4, 5, 6, 6, 7)),
    ],
    "plucker-wide": [((4, 7), 3, (0, 1, 2), (1, 2, 3))],
}

# The traced run fails when one of these records no call: a wrapper that an
# import change bypasses would otherwise report a silent zero.
MUST_CALL = (
    "gamma_modules.enumerate_colength",
    "ideal_cells.canonical_family",
    "ideal_cells.cell_matrix",
    "ideal_cells.plucker_point",
    "closure_analysis.build_cell",
    "closure_analysis.cell_closure_contains",
    "closure_analysis.components",
    "report_cli.canonical_delta_labels",
    "report_cli.StratReport.to_json",
)

VERDICT_KEYS = (
    "contained",
    "not_contained_dimension",
    "not_contained_schubert",
    "not_contained_pivot",
    "unknown",
)


def verdict_key(verdict):
    if verdict.status != "not_contained":
        return verdict.status
    return "not_contained_" + {"pivot_coordinate": "pivot"}.get(verdict.reason, verdict.reason)


def trace_targets():
    from hilbstrat import closure_analysis, gamma_modules, ideal_cells, report_cli

    return [
        ("gamma_modules.enumerate_colength", gamma_modules, "enumerate_colength"),
        ("ideal_cells.canonical_family", ideal_cells, "canonical_family"),
        ("ideal_cells.cell_matrix", ideal_cells, "cell_matrix"),
        ("ideal_cells.plucker_point", ideal_cells, "plucker_point"),
        ("closure_analysis.build_cell", closure_analysis, "build_cell"),
        ("closure_analysis.cell_closure_contains", closure_analysis, "cell_closure_contains"),
        ("closure_analysis.components", closure_analysis, "components"),
        ("report_cli.canonical_delta_labels", report_cli, "canonical_delta_labels"),
        ("report_cli.StratReport.to_json", report_cli.StratReport, "to_json"),
    ]


def layer_metrics(tr, wall):
    """Per-layer metrics of one traced pass; every time is a self time."""
    m = {}
    modules = tr.results("gamma_modules.enumerate_colength")
    m["gamma_modules.enumerate_s"] = tr.self_s("gamma_modules.enumerate_colength")
    m["gamma_modules.modules"] = sum(len(x) for x in modules)

    families = tr.results("ideal_cells.canonical_family")
    m["ideal_cells.family_s"] = tr.self_s("ideal_cells.canonical_family")
    m["ideal_cells.family_calls"] = len(families)
    m["ideal_cells.free_params"] = sum(len(f.free_params) for f in families)

    points = tr.results("ideal_cells.plucker_point")
    coords = sum(len(p) for p in points)
    nonzero = sum(1 for p in points for q in p if not q.is_zero())
    m["ideal_cells.plucker_s"] = tr.self_s("ideal_cells.plucker_point")
    m["ideal_cells.plucker_coords"] = coords
    m["ideal_cells.plucker_nonzero"] = nonzero
    m["ideal_cells.plucker_nonzero_ratio"] = nonzero / coords if coords else 0.0
    m["ideal_cells.cell_matrix_s"] = tr.self_s("ideal_cells.cell_matrix")

    cells = tr.results("closure_analysis.build_cell")
    m["closure_analysis.build_cell_self_s"] = tr.self_s("closure_analysis.build_cell")
    m["closure_analysis.cells"] = len(cells)

    closure = tr.calls.get("closure_analysis.cell_closure_contains", [])
    counts = dict.fromkeys(VERDICT_KEYS, 0)
    for _, _, verdict in closure:
        key = verdict_key(verdict)
        if key in counts:
            counts[key] += 1
    searched = counts["contained"] + counts["unknown"]
    m["closure_analysis.closure_s"] = sum(s for _, s, _ in closure)
    m["closure_analysis.closure_calls"] = len(closure)
    m["closure_analysis.closure_max_s"] = max((d for d, _, _ in closure), default=0.0)
    m["closure_analysis.searched"] = searched
    m["closure_analysis.search_success_ratio"] = counts["contained"] / searched if searched else 0.0
    m["closure_analysis.unknown_s"] = sum((d for d, _, v in closure if v.status == "unknown"), 0.0)
    m["closure_analysis.coord_systems"] = sum(len(c.systems_cache or ()) for c in cells)
    for key in VERDICT_KEYS:
        m["closure_analysis." + key] = counts[key]
    m["closure_analysis.components_s"] = tr.self_s("closure_analysis.components")

    m["report_cli.labels_s"] = tr.self_s("report_cli.canonical_delta_labels")
    m["report_cli.render_s"] = tr.self_s("report_cli.StratReport.to_json")
    m["trace.coverage"] = tr.covered_s() / wall
    return m


def check_report(report, dims, cells, seed, replay_certificate):
    errors = []
    if report.dimension_row() != dims:
        errors.append("dimension row %r, expected %r" % (report.dimension_row(), dims))
    if report.cell_count_row() != cells:
        errors.append("cell-count row %r, expected %r" % (report.cell_count_row(), cells))
    for section in report.sections:
        for (i, j), verdict in sorted(section.verdicts.items()):
            if verdict.status == "contained" and not replay_certificate(
                section.cells[i], section.cells[j], verdict.certificate, seed=seed
            ):
                errors.append("r=%d pair (%d, %d): certificate does not replay" % (section.r, i, j))
    return errors


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    jobs = WORKLOADS[name]

    sys.path.insert(0, str(SRC))
    import hilbstrat
    from hilbstrat import NumericalSemigroup, ReportConfig, replay_certificate
    from hilbstrat import report_cli

    if not Path(hilbstrat.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("imported hilbstrat from %s, not from %s" % (hilbstrat.__file__, SRC))
    semigroups = [NumericalSemigroup(gens) for gens, _, _, _ in jobs]
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    tr = None
    if mode == "traced":
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tr = Tracer()
        tr.install(trace_targets())

    config = ReportConfig(seed=seed)
    outputs = []
    start = time.perf_counter()
    cpu_start = time.process_time()
    for sg, (_, r_max, _, _) in zip(semigroups, jobs):
        try:
            report = report_cli.analyze(sg, r_max=r_max, config=config)
            outputs.append((report, report.to_json()))
        except Exception:
            outputs.append((None, traceback.format_exc()))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    errors = []
    pairs = unknowns = 0
    digest = hashlib.sha256()
    for (result, text), (gens, _, dims, cells) in zip(outputs, jobs):
        digest.update(text.encode())
        if result is None:
            job_errors = [text]
        else:
            job_errors = check_report(result, dims, cells, seed, replay_certificate)
            pairs += sum(len(s.cells) * (len(s.cells) - 1) for s in result.sections)
            unknowns += sum(s.unknowns for s in result.sections)
        if job_errors:
            failed += 1
            errors += ["<%s> %s" % (",".join(map(str, gens)), e) for e in job_errors]

    out = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "jobs": len(jobs),
        "failed": failed,
        "errors": errors,
        "pairs": pairs,
        "unknowns": unknowns,
    }
    if tr is not None:
        missing = [f for f in MUST_CALL if not tr.ncalls(f)]
        if missing:
            out["failed"] = len(jobs)
            out["errors"].append("traced functions recorded no call: %s" % ", ".join(missing))
        out["layers"] = layer_metrics(tr, wall)
        out["spans"] = [(i, parent, f, t0 - start, t1 - start) for i, parent, f, t0, t1 in tr.spans]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
