"""Time the benchmark's ``small_commands`` corpus in-process, per command kind.

    PYTHONPATH=src python tests/time_small_commands.py [--seed N] [--repeat N]

Builds the seed-N corpus of the ``small_commands`` workload with
``perfbench/workloads.build`` in a temporary directory, then makes
``--repeat`` passes over it, calling ``boxmodal.cli.main`` for every case
the way the benchmark does.  For each kind of command (``check-tuned``,
``check-monotone``, ``product``, ``subalgebra``, ``quotient``, ``mc``) it
prints the seconds of one pass, best of the passes, and the median over the
kind's cases of each case's best call in milliseconds.  Unlike the
benchmark, nothing is scaled by a reference task, so two checkouts timed
one after the other on one machine compare directly.  It also prints how
many calls of the last pass exited with each code (the checks exit 1 on a
partition that fails them), a sha256 over every output file of the last
pass (equal digests mean byte-identical outputs), and the line count of
the imported package's source.  Not a pytest module: it measures, it
asserts nothing.
"""
from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boxmodal  # noqa: E402
from boxmodal.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from timing import src_lines  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--repeat", type=int, default=3, help="passes (best is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        cases = workloads.build(boxmodal, "small_commands", args.seed, workdir)
        kinds = sorted({case.kind for case in cases})
        best_pass = dict.fromkeys(kinds, float("inf"))
        best_call = [float("inf")] * len(cases)
        for _ in range(args.repeat):
            totals = dict.fromkeys(kinds, 0.0)
            codes: Counter = Counter()
            for k, case in enumerate(cases):
                start = time.perf_counter()
                code = cli_main([*case.argv, "--out", case.out])
                seconds = time.perf_counter() - start
                totals[case.kind] += seconds
                best_call[k] = min(best_call[k], seconds)
                codes[code] += 1
            best_pass = {kind: min(best_pass[kind], totals[kind]) for kind in kinds}
        digest = hashlib.sha256()
        for case in cases:
            path = Path(case.out)
            digest.update(path.read_bytes() if path.exists() else b"missing")
    print(f"seed {args.seed}: {len(cases)} cases, best of {args.repeat} passes")
    for kind in kinds:
        calls = [t for t, case in zip(best_call, cases) if case.kind == kind]
        median_ms = statistics.median(calls) * 1000
        print(f"{kind:>16} {best_pass[kind]:8.3f} s  median {median_ms:6.3f} ms  ({len(calls)})")
    print(f"{'total':>16} {sum(best_pass.values()):8.3f} s")
    print(f"{'exit codes':>16} " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    print(f"{'outputs sha256':>16} {digest.hexdigest()}")
    print(f"{'src/boxmodal':>16} {src_lines():8d} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
