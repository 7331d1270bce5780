"""Time the ``mc`` command on deeply nested formulas.

    PYTHONPATH=src python tests/time_modal.py [--repeat N]

Every formula is checked against the valuation of ``tests/test_cli.py``:
dimension 2, order ``le``, ``p`` the origin.  For each formula this prints
its subformula count and the seconds of one ``boxmodal mc`` call (parsing,
the filtration pipeline with its truth-lemma check, and writing the JSON
report), best of ``--repeat`` runs.  The last line gives the line count of
the imported package's source.  Not a pytest module: it measures, it asserts nothing.
"""
from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from boxmodal.cli import main as cli_main
from timing import src_lines

FORMULAS = {
    "~ x200 p": "~" * 200 + "p",
    "<> x100 p": "<>" * 100 + "p",
    "(~ x100 p )x100": "(~" * 100 + "p" + ")" * 100,
    "( x200 p )x200": "(" * 200 + "p" + ")" * 200,
}
VALUATION = {"dim": 2, "order": "le", "vars": {"p": {"dim": 2, "boxes": [[[0, 0], [0, 0]]]}}}


def time_mc(formula: str, valuation: Path, out: Path, repeat: int) -> tuple[float, int]:
    """Least wall time of ``repeat`` ``mc`` calls, and the subformula count they report."""
    argv = ["mc", "--formula", formula, "--valuation", str(valuation), "--out", str(out)]
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        code = cli_main(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"mc exited {code} on {formula!r}")
    return min(times), json.loads(out.read_text())["subformulas"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (best is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'formula':<16} {'subformulas':>11} {'mc':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        valuation, out = Path(tmp) / "v.json", Path(tmp) / "out.json"
        valuation.write_text(json.dumps(VALUATION))
        for name, formula in FORMULAS.items():
            seconds, subs = time_mc(formula, valuation, out, args.repeat)
            print(f"{name:<16} {subs:>11} {seconds:>8.3f}s", flush=True)
    print(f"src/boxmodal: {src_lines()} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
