"""Time each phase of ``refine --verify`` over the benchmark's ``refine`` corpus.

    PYTHONPATH=src python tests/time_refine_corpus.py [--seed N] [--repeat N]

Builds the seed-N corpus of the ``refine`` workload with
``perfbench/workloads.build`` in a temporary directory, then runs every case
the way ``boxmodal.cli`` runs ``refine --verify``, one phase at a time:
building the parser and parsing the arguments, loading the input, the
refinement, ``to_json`` of the partition and the trace, the four checks (the
first, ``refines``, also builds the refined partition's owner array), the
JSON text and the file write.  For each phase it prints the seconds of one
pass over the corpus, best of ``--repeat`` passes, and the line count of
the imported package's source.  An untimed pass then counts the face
sub-problems that ``_extend_core`` and ``_plane_rule`` solved, per dimension
of the face, and
the calls of ``_extend_core`` (one per level of a grown partition),
``_plane_rule``, ``_refine_atoms``, ``_compress`` and ``_line_rule``.
``_refine_atoms`` is the refiner at every depth, so its count includes one
top-level call per case.  ``_line_rule`` solves every line face of the level
loop in the face step, with no ``_refine_atoms`` call, and every
one-dimensional case; ``_plane_rule`` solves each nested plane with k0 > 0,
its line and point faces included.  Seed 0 has 945 point, 2,036 line, 438
plane and 40 three-dimensional face sub-problems, and makes 541
``_refine_atoms`` calls (63 top-level), 541 compressions, 341
``_extend_core``, 213 ``_plane_rule`` and 828 ``_line_rule`` calls.  Not a
pytest module: it measures, it asserts nothing.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boxmodal  # noqa: E402
import boxmodal.refine  # noqa: E402
from boxmodal import OrderKind, is_monotone, is_tuned, refine_monotone, refines  # noqa: E402
from boxmodal.cli import _json_text, _load_partition, build_parser  # noqa: E402

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from timing import src_lines  # noqa: E402

PHASES = (
    "parser", "load", "refine_monotone", "to_json",
    "refines", "monotone", "tuned_le", "tuned_lt", "json_text", "write",
)


def run_case(argv: list[str], out: str, times: dict) -> None:
    """One ``refine --verify`` call, adding each phase's seconds to ``times``."""
    clock = time.perf_counter
    t0 = clock()
    args = build_parser().parse_args(argv + ["--out", out])
    t1 = clock()
    p = _load_partition(args.partition)
    t2 = clock()
    refined, trace = refine_monotone(p)
    t3 = clock()
    payload: dict = {"partition": refined.to_json(), "trace": trace.to_json()}
    t4 = clock()
    checks = {"refines": refines(refined, p)}
    t5 = clock()
    checks["monotone"] = is_monotone(refined)
    t6 = clock()
    checks["tuned_le"] = is_tuned(refined, OrderKind.REFLEXIVE)
    t7 = clock()
    checks["tuned_lt"] = is_tuned(refined, OrderKind.STRICT)
    t8 = clock()
    payload["checks"] = checks
    text = _json_text(payload) + "\n"
    t9 = clock()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    t10 = clock()
    stamps = (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10)
    for name, start, stop in zip(PHASES, stamps, stamps[1:]):
        times[name] += stop - start


def count_calls(cases: list) -> tuple[Counter, Counter]:
    """Face sub-problems per face dimension, and calls of the refiner's helpers."""
    module = boxmodal.refine
    faces: Counter = Counter()
    calls: Counter = Counter()
    names = ("_extend_core", "_plane_rule", "_refine_atoms", "_compress", "_line_rule")
    originals = {name: getattr(module, name) for name in names}

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            out = originals[name](*args)
            if name == "_extend_core":
                faces.update(face.sub.dim for face in out)
            elif name == "_plane_rule":
                faces.update(face.sub.dim for step in out[1] for face in step.faces)
            return out

        return wrapper

    for name in originals:
        setattr(module, name, counted(name))
    try:
        for case in cases:
            refine_monotone(_load_partition(case.meta["partition"]))
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
    return faces, calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--repeat", type=int, default=3, help="passes per timing (best is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        cases = workloads.build(boxmodal, "refine", args.seed, workdir)
        best = {name: float("inf") for name in PHASES}
        for _ in range(args.repeat):
            times = dict.fromkeys(PHASES, 0.0)
            for case in cases:
                run_case(case.argv, case.out, times)
            best = {name: min(best[name], times[name]) for name in PHASES}
        faces, calls = count_calls(cases)
    print(f"seed {args.seed}: {len(cases)} cases, best of {args.repeat} passes")
    for name in PHASES:
        print(f"{name:>16} {best[name]:8.3f} s")
    print(f"{'total':>16} {sum(best.values()):8.3f} s")
    print(f"{'src/boxmodal':>16} {src_lines():8d} lines")
    print("face sub-problems by dimension: " + ", ".join(f"{d}: {faces[d]}" for d in sorted(faces)))
    print(f"  total {sum(faces.values())}; " + ", ".join(f"{k} {v}" for k, v in sorted(calls.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
