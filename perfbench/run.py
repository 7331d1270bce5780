"""Benchmark of the boxmodal command line, one workload per process.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it imports boxmodal from ``src/`` there.
Set-up generates the workload's seeded inputs and writes them under
``.perfbench_work/``.  The timed loop calls ``boxmodal.cli.main`` in-process
with one client in a closed loop: each case starts when the previous one has
finished.  It makes whole passes over the corpus until the next pass would
end after ``--seconds``.  Between cases it times the workload's fixed
reference task from ``speed`` and scales each pass's times to nominal
machine speed.  Outputs
are checked after the loop, outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones.  With ``--trace 1`` half the time goes to untraced
passes and one further pass runs with every layer wrapped by ``tracing``;
the metrics are then the per-layer ones and the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (the benchmark's own modules sit next to this file)
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
# Least time between two timings of the reference task in the timed loop.
REF_INTERVAL_S = 0.5

END_TO_END = [
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("growth_slope", "ratio"),
]

_CALLS_SELF = [
    "cli.main", "cli.load", "cli.emit",
    "region.union", "region.intersect", "region.difference", "region.downset",
    "region.pin_coords", "region.translate", "region.normalize",
    "atomgrid.for_regions", "atomgrid.region_bool", "atomgrid.region_of_bool",
    "partition.make_partition", "partition.induced", "partition.restrict",
    "partition.refines", "partition.tuned_violation", "partition.monotone_violation",
    "refine.extend_core", "refine.pair_tables",
    "modal.truth_region", "modal.quotient_frame", "modal.mc_finite",
]
_SELF_ONLY = [
    "refine.cofinal_threshold", "refine.product_tuned_violation",
    "modal.filtration_pipeline", "modal.generate_subalgebra", "formulas.parse_formula",
]
_COUNTS = [
    "region.interval_objects", "region.prune.box_pairs", "atomgrid.atoms",
    "refine.levels", "refine.faces", "refine.family_size", "refine.face_atoms", "refine.cells_out",
    "modal.worlds", "modal.edges", "modal.subformulas", "known_defect.deep_formula",
]
# (name, unit, better)
PER_LAYER = (
    [(f"{p}.calls", "count", "lower") for p in _CALLS_SELF]
    + [(f"{p}.self_s", "s", "lower") for p in _CALLS_SELF + _SELF_ONLY]
    + [("refine.refine_monotone.total_s", "s", "lower")]
    + [(c, "count", "lower") for c in _COUNTS]
    + [
        ("region.prune.kept_ratio", "ratio", "higher"),
        ("fail_ratio", "ratio", "lower"),
        ("trace.cases_per_s_untraced", "1/s", "higher"),
        ("trace.cases_per_s_traced", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


@dataclass
class Call:
    seconds: float
    code: Optional[int]
    digest: Optional[str]
    error: Optional[str]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def set_up(workload: str, seed: int, work: Path):
    """Import boxmodal and write the inputs, SETUP_REPS times; keep the last.

    Each repetition drops boxmodal from the module cache first, so every one
    pays the import.  numpy is imported once before, outside the timing.
    """
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        t0 = time.perf_counter()
        for name in [m for m in sys.modules if m == "boxmodal" or m.startswith("boxmodal.")]:
            del sys.modules[name]
        bm = importlib.import_module("boxmodal")
        cli = importlib.import_module("boxmodal.cli")
        rep_dir.mkdir(parents=True)
        cases = workloads.build(bm, workload, seed, str(rep_dir))
        times.append(time.perf_counter() - t0)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    if not Path(bm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"boxmodal was imported from {bm.__file__}, not from {SRC}")
    return bm, cli, cases, statistics.median(times)


def environment(workload: str, seed: int) -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without running git."""
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


# -- the timed loop --------------------------------------------------------------------


def call(cli, case: workloads.Case) -> Call:
    with contextlib.suppress(FileNotFoundError):
        os.remove(case.out)
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main([*case.argv, "--out", case.out])
    except Exception as exc:  # a raised exception is a failed operation
        code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - t0
    return Call(seconds, code, checks.digest(case.out), error)


def timed_passes(cli, cases, budget: float, reference: speed.Reference):
    """Whole passes over the cases until the next one would end after budget.

    The reference task is timed at the start and the end of every pass and
    between cases at least REF_INTERVAL_S apart.  Returns the passes and the
    reference times of each pass.
    """
    passes, refs = [], []
    start = time.perf_counter()
    while True:
        t0 = last = time.perf_counter()
        calls, samples = [], [reference.time()]
        for case in cases:
            calls.append(call(cli, case))
            if time.perf_counter() - last >= REF_INTERVAL_S:
                samples.append(reference.time())
                last = time.perf_counter()
        samples.append(reference.time())
        passes.append(calls)
        refs.append(samples)
        now = time.perf_counter()
        if (now - start) + (now - t0) > budget:
            return passes, refs


# -- checks ------------------------------------------------------------------------------


def verify(bm, workload: str, seed: int, cases, passes) -> tuple[int, int, list]:
    """Count failed calls; return (attempted, failed, payloads by case).

    A call fails when it raised, when its exit code and output digest differ
    from the expected ones, or when its case's output breaks the command's
    contract or disagrees with the grid oracle.  For the default seed the
    expected exit codes and digests are the recorded ones, otherwise those of
    the first pass.
    """
    expected = [(c.code, c.digest) for c in passes[0]]
    case_faults: dict[int, str] = {}
    if seed == checks.DEFAULT_SEED:
        recorded = checks.load_recorded().get(workload)
        if recorded is None or len(recorded) != len(cases):
            case_faults.update({c.index: "no recorded digest" for c in cases})
        else:
            expected = [tuple(r) for r in recorded]
    payloads = []
    for case in cases:
        try:
            with open(case.out, encoding="utf-8") as fh:
                payloads.append(json.load(fh))
        except (OSError, ValueError):
            payloads.append(None)
        last = passes[-1][case.index]
        if last.error is None:  # a raise already fails its own call
            why = checks.check_output(case, last.code, payloads[-1])
            if why:
                case_faults[case.index] = why
    for index, agrees in checks.oracle_checks(bm, cases, payloads, seed):
        if not agrees:
            case_faults.setdefault(index, "disagrees with the grid oracle")
    failed = 0
    shown = dict(case_faults)
    for calls in passes:
        for case, c in zip(cases, calls):
            fault = case_faults.get(case.index) or c.error
            if not fault and (c.code, c.digest) != expected[case.index]:
                fault = f"exit {c.code} or output digest differs from the expected"
            if fault:
                failed += 1
                shown.setdefault(case.index, fault)
    for index, why in sorted(shown.items())[:10]:
        print(f"failed case {index}: {why}", file=sys.stderr)
    return sum(len(p) for p in passes), failed, payloads


def probe_known_defect(bm, cli, work: Path) -> int:
    """1 while the documented deep-formula input does not exit 2, else 0."""
    result = call(cli, workloads.deep_formula_case(bm, str(work)))
    if result.code == 2:
        return 0
    print(f"known defect: mc on {len(workloads.DEEP_FORMULA) - 1} nested '~' gave "
          f"{result.error or f'exit {result.code}'}; the README contract says exit 2")
    return 1


# -- metrics -----------------------------------------------------------------------------


def case_seconds(cases, passes, scales) -> list[float]:
    """Each case's best time over the passes, at nominal machine speed.

    A call's time is multiplied by its pass's scale (``Reference.scale`` of
    the pass's reference times), which takes out slow spells that last a whole
    pass.  The fastest of a case's scaled calls then takes out the shorter
    ones: a call that meets a slow spell only ever takes longer.
    """
    return [min(p[case.index].seconds * f for p, f in zip(passes, scales)) for case in cases]


def growth_slope(workload: str, cases, seconds, payloads) -> float:
    """Slope of log(case time) against log(cells out) over the cases.

    On refine the points are the square family of dimension SLOPE_DIM, the
    curve ROADMAP asks to bend; elsewhere every case is a point.
    """
    points = []
    for case, t, payload in zip(cases, seconds, payloads):
        if payload is None:
            continue
        if workload == "refine" and not (case.meta.get("square") and case.meta["dim"] == workloads.SLOPE_DIM):
            continue
        points.append((workloads.cells_out(case, payload), t))
    return stats.loglog_slope(points)


def end_to_end(workload, cases, passes, refs, reference, payloads, setup_s) -> dict:
    """The end-to-end metrics, every time at nominal machine speed."""
    seconds = case_seconds(cases, passes, [reference.scale(r) for r in refs])
    return {
        "cases_per_s": len(seconds) / sum(seconds),
        "case_ms_p50": stats.percentile(seconds, 50) * 1000,
        "case_ms_p90": stats.percentile(seconds, 90) * 1000,
        "setup_s": setup_s * reference.scale([t for r in refs for t in r]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "growth_slope": growth_slope(workload, cases, seconds, payloads),
    }


def _add_trace_counts(trace: dict, counts: Counter) -> None:
    counts["refine.levels"] += len(trace["steps"])
    for step in trace["steps"]:
        for face in step["faces"]:
            counts["refine.faces"] += 1
            counts["refine.family_size"] += face["family_size"]
            counts["refine.face_atoms"] += face["atom_count"]
            _add_trace_counts(face["sub"], counts)


def per_layer(tracer: tracing.Tracer, payloads, untraced: list[list[Call]], traced: list[Call]) -> dict:
    values: dict[str, float] = {}
    for name, st in tracer.spans.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.self_s"] = st.self_s
        values[f"{name}.total_s"] = st.total_s
    counts = Counter(tracer.counts)
    for payload in payloads:
        if payload and "trace" in payload:
            _add_trace_counts(payload["trace"], counts)
            counts["refine.cells_out"] += payload["trace"]["cells_out"]
    values.update(counts)
    boxes_in = counts["region.prune.boxes_in"]
    values["region.prune.kept_ratio"] = counts["region.prune.boxes_kept"] / boxes_in if boxes_in else 1.0
    rate = lambda calls: len(calls) / sum(c.seconds for c in calls)  # noqa: E731
    values["trace.cases_per_s_untraced"] = statistics.median([rate(p) for p in untraced])
    values["trace.cases_per_s_traced"] = rate(traced)
    values["trace.overhead_ratio"] = values["trace.cases_per_s_untraced"] / values["trace.cases_per_s_traced"]
    return values


# -- main ------------------------------------------------------------------------------


def run(args, work: Path) -> dict:
    bm, cli, cases, setup_s = set_up(args.workload, args.seed, work)
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    budget = args.seconds / 2 if args.trace else args.seconds
    reference = speed.Reference(args.workload, str(work))
    passes, refs = timed_passes(cli, cases, budget, reference)
    ref_all = [t for r in refs for t in r]
    print(f"speed: reference task median {statistics.median(ref_all) * 1000:.3f} ms over "
          f"{len(ref_all)} timings, nominal {reference.nominal_s * 1000:.1f} ms; "
          f"raw setup_s {setup_s:.4f}")
    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.instrument(bm, tracer)
        try:
            traced = [call(cli, case) for case in cases]
        finally:
            restore()
    checked = passes + ([traced] if traced else [])
    attempted, failed, payloads = verify(bm, args.workload, args.seed, cases, checked)
    defect = probe_known_defect(bm, cli, work)
    if args.trace:
        values = per_layer(tracer, payloads, passes, traced)
        values["fail_ratio"] = failed / attempted
        values["known_defect.deep_formula"] = defect
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(args.workload, cases, passes, refs, reference, payloads, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload}: {len(cases)} cases x {len(passes)} passes, "
          f"{len(passes) * len(cases)} timed samples", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxmodal" / "__init__.py").is_file():
        print(f"error: no boxmodal sources at {SRC / 'boxmodal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once, outside the set-up timing)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
