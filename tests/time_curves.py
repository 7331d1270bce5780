"""Time boxmodal's curves, print them, and write them to one JSON record.

    PYTHONPATH=src python tests/time_curves.py [--seed N] [--repeat N] [--out FILE]

A curve is one row of ``curves``: a name, its points, and the function that times one
point.  Times are the best of ``--repeat`` runs.  ``squares`` (the cell ``[0,C-1]^n`` and
its complement) and ``split_face`` time the refiner, the owner build, the checks of
``refine --verify`` on fresh copies of the refined partition, and the text ``cmd_refine``
writes, with per-n log-log slopes against cells out.  ``modal`` times ``mc`` on deep
formulas.  ``boxes`` times ``AtomGrid.boxes`` of an L-shaped label along a long axis, and
``_quadrant_cell`` on a nested plane of two columns, a dotted line at x = 0 and k0 = 1,
each on a grid of ``atoms`` atoms.  ``refine_corpus`` and ``small_commands`` run the seed-N corpora of
``perfbench/workloads.py``: the first phase by phase as ``refine --verify`` runs, with face
and helper call counts, stopping unless its spliced texts are the bytes ``refine --verify``
writes; the second per command kind, unscaled.  Both record a sha256 over their outputs.
Not a pytest module: it measures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import boxmodal  # noqa: E402
import boxmodal.refine  # noqa: E402
from boxmodal import (  # noqa: E402
    OrderKind, Partition, is_monotone, is_tuned, refine_monotone, refines,
)
from boxmodal.atomgrid import AtomGrid  # noqa: E402
from boxmodal.cli import _json_text, _load_partition, _trace_text, build_parser  # noqa: E402
from boxmodal.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from genutil import probe_split_face  # noqa: E402
from record_refine_golden import square  # noqa: E402
from stats import loglog_slope  # noqa: E402  (perfbench/stats.py, read only)
from timing import src_lines  # noqa: E402

CHECKS = {  # the checks of ``refine --verify``, as (refined, input) -> bool
    "refines": refines,
    "monotone": lambda q, p: is_monotone(q),
    "tuned_le": lambda q, p: is_tuned(q, OrderKind.REFLEXIVE),
    "tuned_lt": lambda q, p: is_tuned(q, OrderKind.STRICT),
}
SECONDS = ("refine_monotone", "owner", *CHECKS, "text")
PHASES = ("parser", "load", "refine_monotone", *CHECKS, "partition_text", "trace_text", "write")
HELPERS = (
    "_extend_core", "_plane_rule", "_refine_atoms", "_compress", "_line_rule", "_atom_threshold",
    "_quadrant_cell",
)
FORMULAS = {
    "~ x200 p": "~" * 200 + "p",
    "<> x100 p": "<>" * 100 + "p",
    "(~ x100 p )x100": "(~" * 100 + "p" + ")" * 100,
    "( x200 p )x200": "(" * 200 + "p" + ")" * 200,
}
VALUATION = {"dim": 2, "order": "le", "vars": {"p": {"dim": 2, "boxes": [[[0, 0], [0, 0]]]}}}


class Curve(NamedTuple):
    name: str
    points: list[dict]
    time: Callable[[dict, int], dict]  # (point, repeat) -> what was measured at the point


def best(fn, repeat: int, setup=lambda: None) -> tuple[float, object]:
    """Least seconds of ``repeat`` timed calls ``fn(setup())``, and the last result."""
    times = []
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        out = fn(arg)
        times.append(time.perf_counter() - start)
    return min(times), out


def time_partition(p: Partition, repeat: int) -> dict:
    """The refiner, the owner build, and ``refine --verify``'s checks and text on ``p``."""
    row: dict = {"n": p.dim, "cells_in": p.size}
    row["refine_monotone"], (refined, trace) = best(refine_monotone, repeat, lambda: p)
    row["cells_out"], row["atoms"] = refined.size, refined._grid.size

    def fresh(owner: bool = True) -> Partition:
        q = Partition(refined.dim, refined.carrier, refined.cells)
        if owner:
            q._owner  # built once per partition, timed on its own
        return q

    row["owner"], _ = best(lambda q: q._owner, repeat, lambda: fresh(False))
    checks = {}
    for name, check in CHECKS.items():
        row[name], checks[name] = best(lambda q: check(q, p), repeat, fresh)
    payload = lambda q: {"partition": q, "trace": trace, "checks": checks}  # as cmd_refine's
    row["text"], _ = best(lambda q: _json_text(payload(q)), repeat, lambda: fresh(False))
    return row


def time_mc(point: dict, repeat: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        valuation, out = Path(tmp) / "v.json", Path(tmp) / "out.json"
        valuation.write_text(json.dumps(VALUATION))
        argv = ["mc", "--formula", FORMULAS[point["formula"]], "--valuation", str(valuation),
                "--out", str(out)]
        seconds, code = best(lambda _: cli_main(argv), repeat)
        if code != 0:
            raise SystemExit(f"mc exited {code} on {point['formula']!r}")
        return {"subformulas": json.loads(out.read_text())["subformulas"], "mc": seconds}


def time_boxes(point: dict, repeat: int) -> dict:
    """``AtomGrid.boxes`` of an L-shaped label, or ``_quadrant_cell`` of a dotted line's plane.

    The L is label 0 on the column y = 0 of a grid of ``atoms`` / 2 x 2 atoms, and on the atom
    (0, 1); label 1 fills the rest.  The plane is 2 x ``atoms`` / 2 atoms: the line x = 0
    alternates between labels 1 and 0, and label 0 holds x >= 1, so k0 = 1.
    """
    side = point["atoms"] // 2
    if point["label"] == "L":
        grid = AtomGrid._sorted(2, [range(side), range(2)])
        labels = np.ones(grid.shape, np.int32)
        labels[:, 0] = labels[0, 1] = 0
        seconds, table = best(grid.boxes, repeat, lambda: labels)
    else:
        grid = AtomGrid._sorted(2, [range(2), range(side)])
        labels = np.zeros(grid.shape, np.int32)
        labels[0, ::2] = 1
        k0 = boxmodal.refine._atom_threshold(grid, labels)
        seconds, table = best(lambda k: boxmodal.refine._quadrant_cell(grid, labels, k), repeat,
                              lambda: k0)
    return {"rows": len(table.cell), "seconds": seconds}


def digest(cases) -> str:
    """sha256 over every case's output file, in order; a missing one counts as ``missing``."""
    outs = (Path(c.out).read_bytes() if Path(c.out).exists() else b"missing" for c in cases)
    return hashlib.sha256(b"".join(outs)).hexdigest()


def run_case(argv: list[str], out: str, times: dict) -> None:
    """One ``refine --verify`` call, adding each phase's seconds to ``times``."""
    stamps = [time.perf_counter()]

    def lap(value):
        stamps.append(time.perf_counter())
        return value

    args = lap(build_parser().parse_args(argv + ["--out", out]))
    p = lap(_load_partition(args.partition))
    refined, trace = lap(refine_monotone(p))
    checks = {name: lap(check(refined, p)) for name, check in CHECKS.items()}
    head = lap(_json_text({"partition": refined, "checks": checks}))
    tail = lap(_trace_text(trace, "\n  ", {}))
    with open(args.out, "w", encoding="utf-8") as fh:  # "trace" is the payload's last key
        fh.write(head[: -len("\n}")] + ',\n  "trace": ' + tail + "\n}\n")
    lap(None)
    for name, start, stop in zip(PHASES, stamps, stamps[1:]):
        times[name] += stop - start


def count_calls(cases: list) -> tuple[Counter, Counter]:
    """Face sub-problems per face dimension, and calls of the refiner's helpers."""
    module = boxmodal.refine
    faces, calls = Counter(), Counter()
    originals = {name: getattr(module, name) for name in HELPERS}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            if name == "_extend_core":
                faces.update(face.sub.dim for face in out)
            elif name == "_plane_rule":
                faces.update(face.sub.dim for step in out[1] for face in step.faces)
            return out

        return wrapper

    try:
        for name, fn in originals.items():
            setattr(module, name, counted(name, fn))
        for case in cases:
            refine_monotone(_load_partition(case.meta["partition"]))
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
    return faces, calls


def time_refine_corpus(point: dict, repeat: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        cases = workloads.build(boxmodal, "refine", point["seed"], workdir)
        passes = []
        for _ in range(repeat):
            passes.append(dict.fromkeys(PHASES, 0.0))
            for case in cases:
                run_case(case.argv, case.out, passes[-1])
        for case in cases:
            cli_main([*case.argv, "--out", case.out + ".cli"])
            if Path(case.out).read_bytes() != Path(case.out + ".cli").read_bytes():
                raise SystemExit(f"{case.out}: the spliced text differs from refine's output")
        faces, calls = count_calls(cases)
        phases = {name: min(times[name] for times in passes) for name in PHASES}
        return {
            "cases": len(cases), "total": sum(phases.values()), "phases": phases,
            "faces": {str(d): faces[d] for d in sorted(faces)},
            "calls": {name: calls[name] for name in HELPERS},
            "sha256": digest(cases),
        }


def time_small_commands(point: dict, repeat: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        cases = workloads.build(boxmodal, "small_commands", point["seed"], workdir)
        passes = []  # per pass, each case's seconds
        for _ in range(repeat):
            passes.append([])
            codes: Counter = Counter()
            for case in cases:
                start = time.perf_counter()
                codes[cli_main([*case.argv, "--out", case.out])] += 1
                passes[-1].append(time.perf_counter() - start)
        kinds = {}
        for kind in sorted({case.kind for case in cases}):
            ks = [k for k, case in enumerate(cases) if case.kind == kind]
            kinds[kind] = {
                "cases": len(ks), "pass_s": min(sum(p[k] for k in ks) for p in passes),
                "median_ms": statistics.median(min(p[k] for p in passes) for k in ks) * 1000,
            }
        return {
            "cases": len(cases), "total": sum(kind["pass_s"] for kind in kinds.values()),
            "kinds": kinds, "exit_codes": {str(c): n for c, n in sorted(codes.items())},
            "sha256": digest(cases),
        }


def curves(seed: int) -> list[Curve]:
    """Every curve; each lists its points from the smallest up."""
    sizes = {2: (32, 64, 128, 256), 3: (8, 16, 32), 4: (4, 6)}
    return [
        Curve("squares", [{"n": n, "C": c} for n, cs in sizes.items() for c in cs],
              lambda pt, r: time_partition(square(pt["n"], pt["C"]), r)),
        Curve("split_face", [{"c": c} for c in (20, 50, 100)],
              lambda pt, r: time_partition(probe_split_face(pt["c"]), r)),
        Curve("modal", [{"formula": name} for name in FORMULAS], time_mc),
        Curve("boxes", [{"label": label, "atoms": atoms} for atoms in (2000, 20000)
                        for label in ("L", "quadrant")], time_boxes),
        Curve("refine_corpus", [{"seed": seed}], time_refine_corpus),
        Curve("small_commands", [{"seed": seed}], time_small_commands),
    ]


def slopes(rows: list[dict]) -> dict:
    """Per n, each seconds column's log-log slope against cells out, given two sizes or more."""
    out = {}
    for n in sorted({row["n"] for row in rows if "cells_out" in row}):
        points = [row for row in rows if row["n"] == n]
        if len({row["cells_out"] for row in points}) > 1:
            out[str(n)] = {k: loglog_slope([(r["cells_out"], r[k]) for r in points])
                           for k in SECONDS}
    return out


def cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return ", ".join(f"{k} {cell(v)}" for k, v in value.items())
    return str(value)


def environment(seed: int, repeat: int) -> dict:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git.stdout.strip() or None,
        "src_lines": src_lines(), "cpus": os.cpu_count(), "seed": seed, "repeat": repeat,
    }


def measure(table: list[Curve], seed: int, repeat: int) -> dict:
    """The record: the environment, then each curve's points and slopes, printed as they come."""
    record = {"environment": environment(seed, repeat)}
    print(cell(record["environment"]))
    for curve in table:
        rows = []
        for point in curve.points:
            rows.append({**point, **curve.time(point, repeat)})
            flat = {k: v for k, v in rows[-1].items() if not isinstance(v, dict)}
            if len(rows) == 1:
                print(f"\n{curve.name}\n" + " ".join(f"{k:>{max(9, len(k))}}" for k in flat))
            print(" ".join(f"{cell(v):>{max(9, len(k))}}" for k, v in flat.items()), flush=True)
            for k, v in rows[-1].items():
                if k not in flat:
                    print(f"  {k}: {cell(v)}", flush=True)
        record[curve.name] = {"points": rows, "slopes": slopes(rows)}
        for n, columns in record[curve.name]["slopes"].items():
            print(f"  slopes n={n}: {cell(columns)}", flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (best is kept)")
    parser.add_argument("--out", help="JSON file for the record (default: print only)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    record = measure(curves(args.seed), args.seed, args.repeat)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
