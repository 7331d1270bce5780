"""Time the refiner and the ``refine --verify`` checks on the square family.

    PYTHONPATH=src python tests/time_squares.py [--repeat N]

The square family is the cell ``[0, C-1]^n`` and its complement.  For each
square this prints the cells out, the seconds of ``refine_monotone``, of
building the refined partition's owner array, of each of the four checks
``refine --verify`` makes, and of ``Partition.to_json``; every time is the
best of ``--repeat`` runs, each on a fresh copy of the refined partition so
that no cached owner array is reused.  The last line gives the line count
of ``src/boxmodal``.  Not a pytest module: it measures, it asserts nothing.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from boxmodal import (
    Box,
    Interval,
    OrderKind,
    Partition,
    Region,
    full,
    make_partition,
    monotone_violation,
    refine_monotone,
    refines,
    tuned_violation,
)

SQUARES = ((2, 64), (2, 128), (3, 16), (4, 6))
SRC = Path(__file__).resolve().parent.parent / "src" / "boxmodal"


def square(n: int, c: int) -> Partition:
    sq = Region(n, (Box(tuple(Interval(0, c - 1) for _ in range(n))),))
    return make_partition(full(n), [sq, sq.complement()])


def best(fn, repeat: int) -> tuple[float, object]:
    """Least wall time of ``repeat`` calls of ``fn()``, and the last result."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return min(times), out


def time_square(n: int, c: int, repeat: int) -> dict:
    p = square(n, c)
    row: dict = {"n": n, "C": c}
    row["refine"], (refined, _) = best(lambda: refine_monotone(p), repeat)
    row["cells"] = refined.size

    def fresh() -> Partition:
        return Partition(refined.dim, refined.carrier, refined.cells)

    checks = {
        "owner": lambda q: q._owner,
        "refines": lambda q: refines(q, p),
        "monotone": monotone_violation,
        "tuned_le": lambda q: tuned_violation(q, OrderKind.REFLEXIVE),
        "tuned_lt": lambda q: tuned_violation(q, OrderKind.STRICT),
    }
    for name, check in checks.items():
        times = []
        for _ in range(repeat):
            q = fresh()
            if name != "owner":
                q._owner  # built once per partition, timed on its own
            start = time.perf_counter()
            check(q)
            times.append(time.perf_counter() - start)
        row[name] = min(times)
    row["checks"] = sum(row[name] for name in checks)
    row["to_json"], _ = best(lambda: fresh().to_json(), repeat)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (best is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    columns = ["refine", "owner", "refines", "monotone", "tuned_le", "tuned_lt"]
    columns += ["checks", "to_json"]
    print(f"{'n':>2} {'C':>4} {'cells':>7} " + " ".join(f"{c:>9}" for c in columns))
    for n, c in SQUARES:
        row = time_square(n, c, args.repeat)
        cells = f"{row['n']:>2} {row['C']:>4} {row['cells']:>7} "
        print(cells + " ".join(f"{row[k]:>8.3f}s" for k in columns), flush=True)
    lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.glob("*.py")))
    print(f"src/boxmodal: {lines} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
