"""Record the exit code and output sha256 of every case for the default seed.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``.  ``run.py`` compares every call made with
the default seed against it, so run this only at a commit whose outputs are
the reference: a change that keeps outputs byte-identical passes the gate
unchanged.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for workload in workloads.WORKLOADS:
        work = run.ROOT / ".perfbench_work" / f"record-{workload}"
        try:
            _, cli, cases, _ = run.set_up(workload, checks.DEFAULT_SEED, work)
            recorded[workload] = [[c.code, c.digest] for c in (run.call(cli, case) for case in cases)]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(recorded[workload])} cases", file=sys.stderr)
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
