"""Benchmark for hilbstrat: timed workload passes, each in a fresh interpreter.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, tracing off

A run starts fresh single-threaded worker processes (``worker.py``), one
workload pass each, as long as another pass fits in ``--seconds``; a pass
is never cut, so a run holds at least one.  With ``--trace 0`` it reports
the end-to-end metrics as medians over its passes: ``wall_s`` (one pass,
report rendering included), ``setup_s`` (from spawning the interpreter to
the first workload call, sampled from every pass and from extra
set-up-only processes), ``peak_rss_mb`` (``ru_maxrss`` of the worker) and
``decided_share`` (share of the report's closure questions not left
unknown).  With ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics of the traced ones, plus ``trace.overhead_s``
(traced minus untraced wall time) and ``trace.coverage`` (share of the
traced wall time inside spans).

Every pass checks its output after the timed region (dimension and
cell-count rows, certificate replay).  The sha256 of the rendered reports
must agree across all passes of a run, between traced and untraced passes,
and with earlier runs of the same source tree and seed, which are kept in
``perfbench/out/digests.json``.  Each run also writes its passes, spans
and machine state to ``perfbench/out/``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``attempted`` counts semigroup reports, one per job per pass.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 10  # set-up-only processes per untraced run, besides the passes
WORKER_TIMEOUT_S = 170  # shared by all workers of one run


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_version():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(workload, seed, mode, deadline):
    """Run one worker; return (its JSON output or None, spawn time, error)."""
    cmd = [sys.executable, "-I", str(WORKER), workload, str(seed), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(5.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return None, t0, "%s pass timed out" % mode
    if proc.returncode != 0:
        return None, t0, "%s pass exited %d: %s" % (mode, proc.returncode, proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0, None


def check_digest(version, workload, seed, digest):
    """Compare with earlier runs of the same source tree; False on a mismatch."""
    store_path = OUT / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(version, {})
    key = "%s:%d" % (workload, seed)
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return True


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio") or metric == "trace.coverage":
        return "ratio"
    return "count"


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line dict, run record)."""
    jobs = len(WORKLOADS[workload])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_version": source_version(),
        "loadavg_start": loadavg(),
    }
    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT_S
    passes = []
    errors = []
    attempted = failed = 0
    setup = []

    if not trace:
        for _ in range(SETUP_SAMPLES):
            out, t0, err = spawn(workload, seed, "setup", deadline)
            if err:
                errors.append(err)
            else:
                setup.append(out["ready"] - t0)

    # A pass is never cut: another one starts only if the longest so far
    # would still end within --seconds, so a slow pass cannot double a run.
    modes = ["traced", "plain"] if trace else ["plain"]
    longest = 0.0
    while len(passes) < len(modes) or time.monotonic() - start + longest <= seconds:
        mode = modes[len(passes) % len(modes)]
        t_pass = time.monotonic()
        out, t0, err = spawn(workload, seed, mode, deadline)
        longest = max(longest, time.monotonic() - t_pass)
        attempted += jobs
        if err:
            failed += jobs
            errors.append(err)
            passes.append({"mode": mode, "error": err})
            break
        out["mode"] = mode
        out["setup_s"] = out.pop("ready") - t0
        passes.append(out)
        failed += out["failed"]
        errors += out["errors"]

    good = [p for p in passes if "error" not in p]
    digests = sorted({p["digest"] for p in good})
    if len(digests) > 1:
        errors.append("report digests differ between passes: %s" % digests)
        failed += jobs
    elif digests and not check_digest(record["source_version"], workload, seed, digests[0]):
        errors.append("report digest differs from an earlier run of this source tree and seed")
        failed += jobs

    plain = [p for p in good if p["mode"] == "plain"]
    traced = [p for p in good if p["mode"] == "traced"]
    metrics = {}
    if not trace and plain:
        pairs = plain[0]["pairs"]
        setup += [p["setup_s"] for p in plain]
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "decided_share": (1 - plain[0]["unknowns"] / pairs if pairs else 1.0, "ratio"),
        }
    elif trace and plain and traced:
        names = traced[0]["layers"]
        metrics = {m: (statistics.median(p["layers"][m] for p in traced), unit_of(m)) for m in names}
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in plain
        )
        metrics["trace.overhead_s"] = (overhead, "s")

    record.update(
        loadavg_end=loadavg(),
        elapsed_s=time.monotonic() - start,
        digests=digests,
        unknowns=good[0]["unknowns"] if good else None,
        pairs=good[0]["pairs"] if good else None,
        setup_samples_s=setup,
        errors=errors,
        passes=passes,
    )
    correct = bool(metrics) and failed == 0 and not errors
    if not correct:
        failed = min(max(failed, 1), max(attempted, 1))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hilbstrat" / "__init__.py").is_file():
        print("perfbench: no hilbstrat sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, record = run(name, args.seed, args.seconds, args.trace)
        path = OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1) + "\n")
        summary = {k: v for k, v in record.items() if k not in ("passes", "setup_samples_s")}
        print("# run " + json.dumps(summary))
        for err in record["errors"]:
            print("perfbench: %s: %s" % (name, err), file=sys.stderr)
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print("%-14s %-40s %14.6f %s" % (name, metric, m["value"], m["unit"]))
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
