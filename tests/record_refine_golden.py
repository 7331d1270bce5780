"""Record the golden outputs of the refiner, the checkers and the quotients.

    python3 tests/record_refine_golden.py

Writes ``tests/data/refine_golden.json``: for every case its input and the
sha256 of the JSON that ``boxmodal refine`` writes for it (the
``{"partition", "trace"}`` object, with ``"checks"`` for the cases marked
``verify``, which run ``refine --verify``), or, for ``extend`` cases, of the
partition that ``extend_from_quadrant`` returns.  The command kinds
(``check-tuned``, ``check-monotone``, ``quotient``, ``subalgebra``,
``product`` and ``mc``) digest the exit code and the JSON that the CLI
command of that name writes; ``product`` cases also digest the violation
that ``product_tuned_violation`` finds on the unrefined input.  Each
command case records its outcome (for example ``hull`` or ``not_tuned``),
so the test can check that failing inputs are covered.  A command case
marked ``refined`` stores a small partition and runs the command on what
``refine_monotone`` makes of it, so that the checkers are pinned at
thousands of cells without storing those cells.

``test_refine_golden.py`` requires byte equality with these digests, so
run this only at a commit whose output is the reference: a change that
keeps every output byte-identical passes unchanged.
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
    FiberedPartition,
    Interval,
    OrderKind,
    Partition,
    Region,
    extend_from_quadrant,
    full,
    induced,
    make_partition,
    product_tuned_violation,
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
    random_fibered,
    random_formula,
    random_partition,
    random_region,
    random_valuation,
)

GOLDEN = HERE / "data" / "refine_golden.json"
SQUARES = {2: range(8, 33), 3: range(4, 9), 4: range(3, 5)}
# Squares large enough that the per-cell steps after the refiner dominate.
VERIFY_SQUARES = ((2, 64), (3, 16))


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def refine_digest(partition: dict, workdir: str, verify: bool = False) -> str:
    """sha256 of what ``boxmodal refine [--verify]`` writes for a partition (JSON object)."""
    src = Path(workdir) / "in.json"
    out = Path(workdir) / "out.json"
    src.write_text(json.dumps(partition))
    flags = ["--verify"] if verify else []
    if main(["refine", "--partition", str(src), "--out", str(out), *flags]) != 0:
        raise RuntimeError("refine failed")
    return digest_text(out.read_text(encoding="utf-8"))


def extend_digest(case: dict) -> str:
    """sha256 of the partition ``extend_from_quadrant`` builds, dumped like the CLI."""
    coarse = Partition.from_json(case["coarse"])
    inner = Partition.from_json(case["inner"])
    out = extend_from_quadrant(coarse, inner)
    return digest_text(json.dumps(out.to_json(), indent=2, sort_keys=True) + "\n")


def command_digest(kind: str, case: dict, workdir: str) -> tuple[str, str]:
    """sha256 of the exit code and the JSON a CLI command writes, and its outcome.

    ``case`` holds the input files by flag name under ``files`` and the
    other flags under ``args``; with ``refined`` set, the partition file is
    the refiner's output for the stored partition.
    """
    files = dict(case["files"])
    if case.get("refined"):
        files["partition"] = refine_monotone(Partition.from_json(files["partition"]))[0].to_json()
    argv = [kind]
    for flag, obj in sorted(files.items()):
        path = Path(workdir) / f"{flag}.json"
        path.write_text(json.dumps(obj))
        argv += [f"--{flag}", str(path)]
    for flag, value in sorted(case.get("args", {}).items()):
        argv += [f"--{flag}", value]
    out = Path(workdir) / "out.json"
    out.unlink(missing_ok=True)
    code = main(argv + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    payload = json.loads(text) if text else {}
    if kind == "product":
        fp = FiberedPartition.from_json(case["files"]["partition"])
        violation = product_tuned_violation(fp, OrderKind.from_json(case["args"]["order"]))
        text += json.dumps(violation.to_json() if violation else None, sort_keys=True)
        outcome = "violation" if violation else "tuned"
    elif kind == "check-tuned":
        outcome = "tuned" if payload["tuned"] else "violation"
    elif kind == "check-monotone":
        outcome = payload["violation"]["kind"] if payload["violation"] else "monotone"
    elif kind == "quotient":
        outcome = payload.get("error", "ok")
    else:
        outcome = "ok" if code == 0 else f"exit {code}"
    return digest_text(f"exit {code}\n{text}"), outcome


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


def strips(rng: random.Random, n: int) -> Partition:
    """Membership classes of a few lines and slabs: often cofinal in their hulls."""
    family = []
    for _ in range(rng.randint(1, 3)):
        axis = rng.randrange(n)
        lo = rng.randint(0, 3)
        hi = lo if rng.random() < 0.6 else rng.randint(lo, 4)
        ivs = [Interval(0, None)] * n
        ivs[axis] = Interval(lo, hi)
        family.append(Region(n, (Box(tuple(ivs)),)))
    return induced(full(n), family)


def command_inputs() -> list[tuple[str, str, dict]]:
    """Seeded inputs for every CLI command that reads a checker or a quotient."""
    rng = random.Random(20261019)
    out: list[tuple[str, str, dict]] = []
    partitions = []
    for n in (1, 2, 3):
        for i in range(8):
            p = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4))
            partitions.append((f"random_n{n}_{i}", p))
        for i in range(4):
            partitions.append((f"strips_n{n}_{i}", strips(rng, n)))
        for i in range(2):
            p = random_partition(rng, n, rng.randint(2, 4), rng.randint(1, 3 if n < 3 else 2))
            partitions.append((f"refined_n{n}_{i}", refine_monotone(p)[0]))
    for name, p in partitions:
        for order in ("le", "lt"):
            case = {"files": {"partition": p.to_json()}, "args": {"order": order}}
            out.append(("check-tuned", f"{name}_{order}", case))
        out.append(("check-monotone", name, {"files": {"partition": p.to_json()}}))
    names = ["p", "q"]
    for n in (1, 2, 3):
        for i in range(4):
            order = (OrderKind.REFLEXIVE, OrderKind.STRICT)[i % 2]
            val = random_valuation(rng, n, names[: 1 + i % 2], 3 if n < 3 else 2, order)
            refined = refine_monotone(induced(full(n), list(val.vars.values())))[0]
            other = random_valuation(rng, n, ["p"], 3, order)
            raw = random_partition(rng, n, rng.randint(2, 5), 3)
            for tag, p in (("refined", refined), ("raw", raw)):
                case = {"files": {"partition": p.to_json(), "valuation": val.to_json()}}
                out.append(("quotient", f"{tag}_n{n}_{i}", case))
            case = {"files": {"partition": refined.to_json(), "valuation": other.to_json()}}
            out.append(("quotient", f"other_n{n}_{i}", case))
            formula = str(random_formula(rng, names[: 1 + i % 2], 3))
            case = {"files": {"valuation": val.to_json()}, "args": {"formula": formula}}
            out.append(("mc", f"n{n}_{i}", case))
    for n in (1, 2):
        for i in range(6):
            gens = [random_region(rng, n, 3, 2) for _ in range(rng.randint(1, 2))]
            case = {
                "files": {"generators": {"dim": n, "regions": [g.to_json() for g in gens]}},
                "args": {"order": ("le", "lt")[i % 2]},
            }
            out.append(("subalgebra", f"n{n}_{i}", case))
    for n, c in VERIFY_SQUARES:
        name = f"square_n{n}_c{c}_refined"
        obj = {"files": {"partition": square(n, c).to_json()}, "refined": True}
        for order in ("le", "lt"):
            out.append(("check-tuned", f"{name}_{order}", {**obj, "args": {"order": order}}))
        out.append(("check-monotone", name, obj))
    for n in (1, 2):
        for i in range(6):
            fp = random_fibered(rng, n, 2 + i % 2)
            case = {"files": {"partition": fp.to_json()}, "args": {"order": ("le", "lt")[i % 2]}}
            out.append(("product", f"n{n}_{i}", case))
    return out


def main_record() -> int:
    cases = []
    with tempfile.TemporaryDirectory() as work:
        for name, p in refine_inputs():
            obj = p.to_json()
            digest = refine_digest(obj, work)
            cases.append({"name": name, "kind": "refine", "input": obj, "sha256": digest})
        for n, c in VERIFY_SQUARES:
            obj = square(n, c).to_json()
            digest = refine_digest(obj, work, verify=True)
            case = {"name": f"verify_square_n{n}_c{c}", "kind": "refine", "input": obj}
            cases.append({**case, "verify": True, "sha256": digest})
        for kind, name, obj in command_inputs():
            digest, outcome = command_digest(kind, obj, work)
            case = {"name": f"{kind}_{name}", "kind": kind, "input": obj}
            cases.append({**case, "sha256": digest, "outcome": outcome})
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
