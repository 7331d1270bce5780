"""Record the golden outputs of the monotone refiner.

    python3 tests/record_refine_golden.py

Writes ``tests/data/refine_golden.json``: for every case its input and the
sha256 of the JSON that ``boxmodal refine`` writes for it (the
``{"partition", "trace"}`` object), or, for ``extend`` cases, of the
partition that ``extend_from_quadrant`` returns.  ``test_refine_golden.py``
requires byte equality with these digests, so run this only at a commit
whose refiner output is the reference: a change that keeps every output
byte-identical passes unchanged.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from boxmodal import (  # noqa: E402
    Box,
    Interval,
    Partition,
    Region,
    extend_from_quadrant,
    full,
    induced,
    make_partition,
    refine_monotone,
    restrict,
    upper_quadrant,
)
from boxmodal.cli import main  # noqa: E402

from genutil import (  # noqa: E402
    probe_far_cut,
    probe_long_line,
    probe_split_axes,
    probe_split_face,
    random_partition,
    random_region,
)

GOLDEN = HERE / "data" / "refine_golden.json"
SQUARES = {2: range(8, 33), 3: range(4, 9), 4: range(3, 5)}


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def refine_digest(partition: dict, workdir: str) -> str:
    """sha256 of what ``boxmodal refine`` writes for a partition (JSON object)."""
    src = Path(workdir) / "in.json"
    out = Path(workdir) / "out.json"
    src.write_text(json.dumps(partition))
    if main(["refine", "--partition", str(src), "--out", str(out)]) != 0:
        raise RuntimeError("refine failed")
    return digest_text(out.read_text(encoding="utf-8"))


def extend_digest(case: dict) -> str:
    """sha256 of the partition ``extend_from_quadrant`` builds, dumped like the CLI."""
    coarse = Partition.from_json(case["coarse"])
    inner = Partition.from_json(case["inner"])
    out = extend_from_quadrant(coarse, inner)
    return digest_text(json.dumps(out.to_json(), indent=2, sort_keys=True) + "\n")


def square(n: int, c: int) -> Partition:
    sq = Region(n, (Box(tuple(Interval(0, c - 1) for _ in range(n))),))
    return make_partition(full(n), [sq, sq.complement()])


def split_boxes(p: Partition, rng: random.Random) -> Partition:
    """The same cells, each box cut in two along one axis where it can be.

    The refiner keeps the box form of the input's cofinal cell on the
    quadrant, so these cases pin that form down.
    """
    cells = []
    for cell in p.cells:
        boxes = []
        for b in cell.boxes:
            axis = rng.randrange(p.dim)
            iv = b.intervals[axis]
            top = iv.lo + 3 if iv.hi is None else iv.hi
            if top <= iv.lo:
                boxes.append(b)
                continue
            cut = rng.randint(iv.lo + 1, top)
            below = Interval(iv.lo, cut - 1)
            above = Interval(cut, iv.hi)
            for part in (below, above):
                ivs = list(b.intervals)
                ivs[axis] = part
                boxes.append(Box(tuple(ivs)))
        cells.append(Region(p.dim, tuple(boxes)))
    return make_partition(full(p.dim), cells)


def refine_inputs() -> list[tuple[str, Partition]]:
    cases = [(f"square_n{n}_c{c}", square(n, c)) for n, cs in SQUARES.items() for c in cs]
    rng = random.Random(20261018)
    max_const = {1: 8, 2: 8, 3: 6}
    for n in (1, 2, 3):
        for i in range(16):
            p = random_partition(rng, n, rng.randint(1, 8), rng.randint(0, max_const[n]))
            cases.append((f"random_n{n}_{i}", p))
            if i % 4 == 0:
                cases.append((f"split_n{n}_{i}", split_boxes(p, rng)))
    limit = {1: 9, 2: 7, 3: 4, 4: 3}
    for n in (1, 2, 3, 4):
        for i in range(10):
            family = [random_region(rng, n, limit[n], 2) for _ in range(rng.randint(1, 3))]
            cases.append((f"induced_n{n}_{i}", induced(full(n), family)))
    cases += [
        ("probe_far_cut", probe_far_cut()),
        ("probe_long_line", probe_long_line()),
        ("probe_split_axes_50", probe_split_axes(50)),
        ("probe_split_axes_200", probe_split_axes(200)),
        ("probe_split_face_50", probe_split_face(50)),
    ]
    return cases


def extend_inputs() -> list[tuple[str, dict]]:
    rng = random.Random(7)
    out = []
    for n in (1, 2, 3):
        for i in range(3):
            p = random_partition(rng, n, rng.randint(2, 6), rng.randint(1, 5))
            q, _ = refine_monotone(p)
            inner = restrict(q, upper_quadrant(n, 1))
            out.append((f"extend_n{n}_{i}", {"coarse": p.to_json(), "inner": inner.to_json()}))
    return out


def main_record() -> int:
    cases = []
    with tempfile.TemporaryDirectory() as work:
        for name, p in refine_inputs():
            obj = p.to_json()
            digest = refine_digest(obj, work)
            cases.append({"name": name, "kind": "refine", "input": obj, "sha256": digest})
    for name, obj in extend_inputs():
        cases.append({"name": name, "kind": "extend", "input": obj, "sha256": extend_digest(obj)})
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, sort_keys=True)
        fh.write("\n")
    print(f"{len(cases)} cases written to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
