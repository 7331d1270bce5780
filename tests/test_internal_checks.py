"""Each internal check of the refiner and of ``generate_subalgebra`` fires on a fault in the
helper it guards.

A fault is Python source that breaks one helper through ``patch(module, name, value)``:
``monkeypatch.setattr`` in-process, plain ``setattr`` in a ``python -O`` child.  Every
check raises ``RuntimeError`` rather than asserting, so it fires with asserts off too, and
``cli.main`` turns it into exit 3 with one ``internal error`` line.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import boxmodal
from boxmodal import OrderKind, box, full, make_partition, point_region, refine_monotone, region
from boxmodal.cli import main
from boxmodal.modal import generate_subalgebra

SRC = str(Path(boxmodal.__file__).resolve().parents[1])

# Two non-cofinal cells, [0,2]^2 and {0} x [3,9], so that the threshold k0 = 3 is not the
# largest bound: a reach off by one either way gives another k0.
SQUARE = region(box((0, 2), (0, 2)))
STRIP = region(box((0, 0), (3, 9)))
PLANE = make_partition(full(2), [SQUARE, STRIP, SQUARE.union(STRIP).complement()])
CUBE_CELL = region(box((0, 2), (0, 2), (0, 2)))
CUBE = make_partition(full(3), [CUBE_CELL, CUBE_CELL.complement()])

SHIFTED_REACH = """
import boxmodal.refine
reduce = boxmodal.refine.reduce
patch(boxmodal.refine, "reduce", lambda f, xs: reduce(f, xs) + SHIFT)
"""
BOUNDED_QUADRANT = """
import boxmodal.refine
from boxmodal.atomgrid import END_OMEGA
quadrant_rows = boxmodal.refine._quadrant_rows

def bounded(cell, k):
    rows = quadrant_rows(cell, k)
    end = rows.end.copy()
    end[end == END_OMEGA] = k + 1
    return rows._replace(end=end)

patch(boxmodal.refine, "_quadrant_rows", bounded)
"""
STEP_SHORT = """
import boxmodal.refine
grow = boxmodal.refine._grow

def short(*args):
    cells, steps = grow(*args)
    return cells, steps[:-1]

patch(boxmodal.refine, "_grow", short)
"""
UNREFINED_ATOMS = """
import boxmodal.modal
refine = boxmodal.modal.refine_monotone
patch(boxmodal.modal, "refine_monotone", lambda p: (p, refine(p)[1]))
"""
RESTRICTED_ATOMS = """
import boxmodal.modal
from boxmodal import restrict, upper_quadrant
refine = boxmodal.modal.refine_monotone

def restricted(p):
    atoms, trace = refine(p)
    return restrict(atoms, upper_quadrant(p.dim, 1)), trace

patch(boxmodal.modal, "refine_monotone", restricted)
"""


def subalgebra_of(point):
    return lambda: generate_subalgebra([point], OrderKind.REFLEXIVE)


# (fault, the library call it breaks, the CLI input, the check's message)
FAULTS = {
    "reach_one_low": (
        SHIFTED_REACH.replace("SHIFT", "-1"), lambda: refine_monotone(PLANE), PLANE,
        "threshold check failed: non-cofinal cell meets the quadrant",
    ),
    "reach_one_high": (
        SHIFTED_REACH.replace("SHIFT", "1"), lambda: refine_monotone(PLANE), PLANE,
        "threshold is not minimal",
    ),
    "bounded_quadrant_row": (
        BOUNDED_QUADRANT, lambda: refine_monotone(PLANE), PLANE,
        "restriction to the quadrant lost cofinality",
    ),
    "one_level_fewer": (
        STEP_SHORT, lambda: refine_monotone(CUBE), CUBE,
        "structural bound failed: one extension step per layer",
    ),
    "coarser_atoms": (
        UNREFINED_ATOMS, subalgebra_of(point_region(1, 1)), [point_region(1, 1)],
        "downset of atom 1 is not a union of atoms",
    ),
    "restricted_atoms": (
        RESTRICTED_ATOMS, subalgebra_of(point_region(0, 0)), [point_region(0, 0)],
        "generator 0 leaks outside the atom partition",
    ),
}


def cli_argv(cli_input, tmp_path: Path) -> list[str]:
    """A ``refine --verify`` call on a partition, or a ``subalgebra`` call on generators."""
    path = tmp_path / "input.json"
    if isinstance(cli_input, list):
        regions = [r.to_json() for r in cli_input]
        path.write_text(json.dumps({"dim": cli_input[0].dim, "regions": regions}))
        return ["subalgebra", "--generators", str(path), "--order", "le"]
    path.write_text(json.dumps(cli_input.to_json()))
    return ["refine", "--partition", str(path), "--verify"]


def assert_internal_error(code: int, out: str, err: str, message: str) -> None:
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"internal error: {message}"]


@pytest.mark.parametrize("name", FAULTS)
def test_the_check_fires(name, monkeypatch, capsys, tmp_path):
    fault, call, cli_input, message = FAULTS[name]
    argv = cli_argv(cli_input, tmp_path)
    exec(fault, {"patch": monkeypatch.setattr})
    with pytest.raises(RuntimeError) as info:
        call()
    assert str(info.value) == message
    code = main(argv)
    captured = capsys.readouterr()
    assert_internal_error(code, captured.out, captured.err, message)


@pytest.mark.parametrize("name", FAULTS)
def test_the_check_fires_under_python_O(name, tmp_path):
    fault, _, cli_input, message = FAULTS[name]
    script = (
        "import sys\nfrom boxmodal.cli import main\npatch = setattr\n" + fault
        + "print(__debug__)\nsys.exit(main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, *cli_argv(cli_input, tmp_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC},
        timeout=60,
    )
    assert result.stdout == "False\n"  # asserts are off
    assert_internal_error(result.returncode, "", result.stderr, message)
