"""Time two checkouts of boxmodal on one benchmark workload, in one process.

    python tests/time_ab.py OLD_ROOT NEW_ROOT --workload refine|small_commands \
        [--seed N] [--repeat N] [--rounds N]

Copies ``src/boxmodal`` of each checkout into a temporary directory under a
package name of its own (``boxmodal_old``, ``boxmodal_new``) and imports
both.  The corpus is built once, from the old side, with this repository's
``perfbench/workloads.build``.  Each of ``--repeat`` passes calls both sides'
``cli.main`` on every case in turn, alternating which side goes first, so
that a slow spell of the machine falls on both.  Per side a round gives the
best-of-N ``cases_per_s``, the p50 and p90 case time (``perfbench/stats``)
and the workload's ``growth_slope`` (``perfbench/run.growth_slope``); a
workload of several command kinds (``small_commands``) also gets each kind's
``cases_per_s``, and one of a single kind (``refine``) each dimension's, since
a few per cent on one kind, or on the 3-D and 4-D tail, does not show in the
total.  ``--rounds`` repeats the round.  For every metric the script prints
each side's median over the rounds, and the median, least and greatest
new/old ratio of the rounds, then each side's ``src/boxmodal`` line count
(``src_lines``), and whether the two sides wrote the same bytes for every
case.  Separate benchmark runs of one tree can differ by more than a code
change does; timing both sides in one process takes that drift out, and the
spread of the ratios over rounds shows how far one round can be trusted.
Not a pytest module: it measures, it asserts nothing, and it writes nothing
under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, read only)
import stats  # noqa: E402
import workloads  # noqa: E402
from timing import package_lines  # noqa: E402

SIDES = ("old", "new")


def load_side(root: str, side: str, workdir: Path):
    """The package and CLI module of a checkout, imported as ``boxmodal_<side>``."""
    name = f"boxmodal_{side}"
    shutil.copytree(Path(root) / "src" / "boxmodal", workdir / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name), importlib.import_module(f"{name}.cli")


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def metrics(workload: str, cases, seconds: list[float], outs: list[str]) -> dict:
    payloads = []
    for out in outs:
        with open(out, encoding="utf-8") as fh:
            payloads.append(json.load(fh))
    return {
        "cases_per_s": len(seconds) / sum(seconds),
        "case_ms_p50": stats.percentile(seconds, 50) * 1000,
        "case_ms_p90": stats.percentile(seconds, 90) * 1000,
        "growth_slope": run.growth_slope(workload, cases, seconds, payloads),
    }


def rate_by(cases, seconds: list[float], group: Callable) -> dict:
    """``cases_per_s`` of the cases of each group, by ``group(case)``."""
    spent: dict = {}
    for case, t in zip(cases, seconds):
        spent.setdefault(group(case), []).append(t)
    return {name: len(ts) / sum(ts) for name, ts in sorted(spent.items())}


def measure(workload: str, cases, mains: dict, outs: dict, repeat: int) -> dict:
    """One round of ``repeat`` paired passes: each side's metrics, and ``cases_per_s`` per kind
    under ``"kind:<name>"``, or with one kind, per dimension under ``"dim:<n>"``."""
    best = {side: [float("inf")] * len(cases) for side in SIDES}
    clock = time.perf_counter
    for rep in range(repeat):
        for i, case in enumerate(cases):
            order = SIDES if (rep + i) % 2 == 0 else SIDES[::-1]
            for side in order:
                t0 = clock()
                mains[side]([*case.argv, "--out", outs[side][i]])
                best[side][i] = min(best[side][i], clock() - t0)
    values = {}
    for side in SIDES:
        values[side] = metrics(workload, cases, best[side], outs[side])
        kinds = rate_by(cases, best[side], lambda case: case.kind)
        if len(kinds) > 1:
            values[side].update((f"kind:{kind}", rate) for kind, rate in kinds.items())
        else:
            dims = rate_by(cases, best[side], lambda case: case.meta["dim"])
            values[side].update((f"dim:{dim}", rate) for dim, rate in dims.items())
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", help="checkout whose src/boxmodal is the old side")
    parser.add_argument("new_root", help="checkout whose src/boxmodal is the new side")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument(
        "--repeat", type=int, default=7, help="calls per case and side (best is kept)"
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="rounds of --repeat paired passes (default 1)"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    roots = (args.old_root, args.new_root)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        mains = {}
        for side, root in zip(SIDES, roots):
            bm, cli = load_side(root, side, work)
            mains[side] = cli.main
            if side == "old":
                (work / "cases").mkdir()
                cases = workloads.build(bm, args.workload, args.seed, str(work / "cases"))
        outs = {side: [f"{case.out}.{side}" for case in cases] for side in SIDES}
        rounds = [measure(args.workload, cases, mains, outs, args.repeat)
                  for _ in range(args.rounds)]
        differ = sum(digest(a) != digest(b) for a, b in zip(outs["old"], outs["new"]))
    print(f"{args.workload}, seed {args.seed}: {len(cases)} cases, best of {args.repeat} calls "
          f"per side, {args.rounds} round(s); medians over the rounds")
    print(f"{'metric':>14} {'old':>10} {'new':>10} {'new/old':>8} {'min':>7} {'max':>7}")
    for name in rounds[0]["old"]:
        old, new = (statistics.median(r[side][name] for r in rounds) for side in SIDES)
        ratios = [r["new"][name] / r["old"][name] for r in rounds]
        group, _, label = name.rpartition(":")
        label = f"{label}-D" if group == "dim" else label
        unit = "  cases_per_s" if group else ""
        print(f"{label:>14} {old:10.4f} {new:10.4f} {statistics.median(ratios):8.3f} "
              f"{min(ratios):7.3f} {max(ratios):7.3f}{unit}")
    old, new = (package_lines(Path(root, "src", "boxmodal")) for root in roots)
    print(f"{'src_lines':>14} {old:10d} {new:10d} {new / old:8.3f}")
    same = "byte-identical" if not differ else f"{differ} of {len(cases)} cases differ"
    print(f"outputs: {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
