"""End-to-end CLI behavior: exit codes, determinism, round-trips."""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import boxmodal.cli
import boxmodal.modal
import boxmodal.refine
from boxmodal import (
    Box, InfeasibleParameters, Interval, Partition, Region, box, full, gen_random, induced,
    make_fibered, make_partition, parse_formula, point_region, refine_monotone, region, restrict,
)
from boxmodal.cli import _cells_text, _dump, _json_text, main
from boxmodal.partition import TableCells
from boxmodal.refine import FaceStep, LevelStep, RefinementTrace
from boxmodal.region import MAX_COORD
from boxmodal.viz import MAX_SIDE

from genutil import random_partition, random_region
from record_refine_golden import GOLDEN, command_digest, refine_digest, square

DATA = Path(__file__).parent / "data"


@pytest.fixture
def origin_partition_file(tmp_path):
    p = make_partition(full(2), [point_region(0, 0), point_region(0, 0).complement()])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_json()))
    return str(path)


@pytest.fixture
def bad_partition_file(tmp_path):
    from boxmodal import box, region

    a = region(box(0, 0), box(1, 1))
    b = point_region(0, 1)
    p = make_partition(full(2), [a, b, a.union(b).complement()])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(p.to_json()))
    return str(path)


@pytest.fixture
def valuation_file(tmp_path):
    val = {
        "dim": 2,
        "order": "le",
        "vars": {"p": {"dim": 2, "boxes": [[[0, 0], [0, 0]]]}},
    }
    path = tmp_path / "v.json"
    path.write_text(json.dumps(val))
    return str(path)


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


class TestRefineCommand:
    def test_refine_verify(self, capsys, origin_partition_file):
        code, payload = run(
            capsys, "refine", "--partition", origin_partition_file, "--verify"
        )
        assert code == 0
        assert payload["checks"] == {
            "refines": True,
            "monotone": True,
            "tuned_le": True,
            "tuned_lt": True,
        }
        assert payload["trace"]["k0"] == 1
        assert len(payload["partition"]["cells"]) == 4

    def test_output_reparses(self, capsys, origin_partition_file):
        code, payload = run(capsys, "refine", "--partition", origin_partition_file)
        assert code == 0
        Partition.from_json(payload["partition"])


class TestCheckCommands:
    def test_tuned_failure_exit_1(self, capsys, bad_partition_file):
        code, payload = run(
            capsys, "check-tuned", "--partition", bad_partition_file, "--order", "le"
        )
        assert code == 1
        assert payload["tuned"] is False
        assert payload["violation"]["witness"] == [1, 1]

    def test_tuned_success(self, capsys, origin_partition_file):
        code, payload = run(
            capsys, "check-tuned", "--partition", origin_partition_file, "--order", "lt"
        )
        assert code == 0 and payload["tuned"] is True

    def test_monotone_failure(self, capsys, bad_partition_file):
        code, payload = run(capsys, "check-monotone", "--partition", bad_partition_file)
        assert code == 1
        assert payload["violation"]["kind"] == "hull"


class TestDeepJson:
    """JSON nested past the parser's recursion limit is malformed input, not a failed property."""

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        return str(path)

    def test_check_tuned(self, capsys, deep_file):
        assert main(["check-tuned", "--partition", deep_file]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_mc(self, capsys, deep_file):
        assert main(["mc", "--formula", "p", "--valuation", deep_file]) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestMc:
    def test_reflexivity_globally_true(self, capsys, valuation_file):
        code, payload = run(
            capsys, "mc", "--formula", "[]([]p -> p)", "--valuation", valuation_file
        )
        assert code == 0
        assert payload["globally_true"] is True

    def test_parse_error_is_usage_error(self, capsys, valuation_file):
        code, _ = run(capsys, "mc", "--formula", "p &", "--valuation", valuation_file)
        assert code == 2

    @pytest.mark.parametrize(
        "formula",
        ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000, "p &" * 3000 + "p", "p ->" * 3000 + "p"],
        ids=["unary", "parentheses", "conjunction", "implication"],
    )
    def test_too_deep_formula_is_usage_error(self, capsys, valuation_file, formula):
        assert main(["mc", "--formula", formula, "--valuation", valuation_file]) == 2
        assert "nested deeper than 200 levels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula",
        ["~" * 200 + "p", "(" * 200 + "p" + ")" * 200, "(~" * 100 + "p" + ")" * 100],
        ids=["unary", "parentheses", "mixed"],
    )
    def test_formula_at_the_depth_limit_is_checked(self, capsys, valuation_file, formula):
        code, payload = run(capsys, "mc", "--formula", formula, "--valuation", valuation_file)
        assert code == 0
        assert "truth_region" in payload


class TestQuotient:
    def test_quotient_worlds(self, capsys, origin_partition_file, valuation_file, tmp_path):
        # First refine, then quotient the refined partition.
        refined_path = tmp_path / "refined.json"
        code, payload = run(capsys, "refine", "--partition", origin_partition_file)
        refined_path.write_text(json.dumps(payload["partition"]))
        code, qf = run(
            capsys, "quotient", "--partition", str(refined_path), "--valuation", valuation_file
        )
        assert code == 0
        assert qf["worlds"] == 4
        assert qf["val"]["p"] == [0]

    def test_untuned_input_exit_1(self, capsys, bad_partition_file, valuation_file):
        code, payload = run(
            capsys, "quotient", "--partition", bad_partition_file, "--valuation", valuation_file
        )
        assert code == 1
        assert payload["error"] == "not_tuned"

    def test_valuation_of_another_dimension_is_usage_error(
        self, capsys, origin_partition_file, tmp_path
    ):
        val = tmp_path / "v1.json"
        val.write_text(json.dumps({"dim": 1, "vars": {"p": {"dim": 1, "boxes": [[[0, 0]]]}}}))
        argv = ["quotient", "--partition", origin_partition_file, "--valuation", str(val)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: valuation of dimension 1, partition 2\n"


class TestSubalgebra:
    def test_origin(self, capsys, tmp_path):
        gens = tmp_path / "gens.json"
        gens.write_text(
            json.dumps({"dim": 2, "regions": [{"dim": 2, "boxes": [[[0, 0], [0, 0]]]}]})
        )
        code, payload = run(capsys, "subalgebra", "--generators", str(gens))
        assert code == 0
        assert payload["atom_count"] == 4
        assert payload["element_count"] == 16

    def test_more_than_16_atoms_is_usage_error(self, capsys, tmp_path):
        gens = tmp_path / "gens.json"
        boxes = [[[0, 0], [0, 0]]], [[[1, 1], [0, 3]]], [[[0, 4], [2, 2]]]
        gens.write_text(json.dumps({"dim": 2, "regions": [{"dim": 2, "boxes": b} for b in boxes]}))
        assert main(["subalgebra", "--generators", str(gens)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 24 atoms would give 2**24 elements; the limit is 16 atoms\n"


class TestProduct:
    def test_two_worlds(self, capsys, tmp_path):
        from boxmodal import box, make_fibered, region, upper_quadrant

        fib_a = make_partition(full(1), [full(1)])
        fib_b = make_partition(
            full(1),
            [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)],
        )
        fp = make_fibered(["a", "b"], [["a", "b"]], [fib_a, fib_b])
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fp.to_json()))
        code, payload = run(capsys, "product", "--partition", str(path))
        assert code == 0
        assert payload["tuned"] is True and payload["refines"] is True
        assert len(payload["fibered"]["fibers"]["a"]["cells"]) == 4

    @pytest.mark.parametrize("edge", [["a", "z"], ["a", "b", "a"]])
    def test_bad_edge_is_usage_error(self, capsys, tmp_path, edge):
        fiber = make_partition(full(1), [full(1)]).to_json()
        fp = {"worlds": ["a", "b"], "edges": [edge], "fibers": {"a": fiber, "b": fiber}}
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fp))
        assert main(["product", "--partition", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: edge ")
        assert "Traceback" not in captured.err


class TestOracle:
    def test_partition_agreement(self, capsys, origin_partition_file):
        code, payload = run(
            capsys,
            "oracle", "--partition", origin_partition_file, "--order", "le", "--bound", "4",
        )
        assert code == 0
        assert payload["agree"] is True

    def test_formula_agreement(self, capsys, valuation_file):
        code, payload = run(
            capsys,
            "oracle", "--formula", "<>p & ~p", "--valuation", valuation_file, "--bound", "3",
        )
        assert code == 0
        assert payload["agree"] is True

    def test_missing_inputs(self, capsys):
        code, _ = run(capsys, "oracle", "--bound", "3")
        assert code == 2

    def test_negative_bound_with_formula_is_usage_error(self, capsys, valuation_file):
        code = main(["oracle", "--formula", "p", "--valuation", valuation_file, "--bound", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--bound" in captured.err

    def test_negative_bound_with_generators_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": 2, "regions": [point_region(1, 1).to_json()]}))
        code = main(["oracle", "--generators", str(path), "--bound", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--bound" in captured.err

    def test_generators_agreement(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": 2, "regions": [point_region(1, 1).to_json()]}))
        for order in ("le", "lt"):
            argv = ["oracle", "--generators", str(path), "--order", order, "--bound", "3"]
            code, payload = run(capsys, *argv)
            assert code == 0
            assert payload["agree"] is True
            assert payload["cases"] == [{"kind": "downset", "region": 0, "diffs": []}]


class TestGen:
    def test_deterministic(self, capsys):
        code1, p1 = run(capsys, "gen", "--n", "2", "--cells", "3", "--max-const", "4", "--seed", "7")
        code2, p2 = run(capsys, "gen", "--n", "2", "--cells", "3", "--max-const", "4", "--seed", "7")
        assert code1 == code2 == 0
        assert p1 == p2
        Partition.from_json(p1)

    def test_single_cell_is_full(self, capsys):
        code, p = run(capsys, "gen", "--n", "2", "--cells", "1", "--max-const", "4", "--seed", "3")
        assert code == 0
        assert p["cells"] == [{"dim": 2, "boxes": [[[0, None], [0, None]]]}]

    def test_infeasible(self, capsys):
        code, _ = run(capsys, "gen", "--n", "1", "--cells", "8", "--max-const", "0", "--seed", "1")
        assert code == 2


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "check-tuned", "--partition", "/nonexistent.json", "--order", "le")
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "check-tuned", "--partition", str(path), "--order", "le")
        assert code == 2

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 0, "cells": []}))
        code, _ = run(capsys, "check-tuned", "--partition", str(path), "--order", "le")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    LINE = {"dim": 1, "boxes": [[[0, None]]]}
    POINT = {"dim": 1, "boxes": [[[0, 0]]]}
    TRUE_DIM = {"dim": True, "boxes": [[[0, 0]]]}

    @pytest.mark.parametrize(
        "command, flag, obj",
        [
            ("refine", "--partition", {"dim": True, "cells": [LINE]}),
            ("refine", "--partition", {"dim": 1, "cells": [{**LINE, "dim": True}]}),
            ("refine", "--partition", {"dim": 1, "carrier": TRUE_DIM, "cells": [POINT]}),
            ("mc", "--valuation", {"dim": True, "order": "le", "vars": {"p": POINT}}),
            ("mc", "--valuation", {"dim": 1, "order": "le", "vars": {"p": TRUE_DIM}}),
            ("subalgebra", "--generators", {"dim": True, "regions": [POINT]}),
            ("subalgebra", "--generators", {"dim": 1, "regions": [TRUE_DIM]}),
        ],
    )
    def test_boolean_dim_rejected(self, capsys, tmp_path, command, flag, obj):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        extra = ["--formula", "p"] if command == "mc" else []
        code = main([command, flag, str(path), *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'dim'" in captured.err


class TestInternalErrors:
    """A failed internal check exits 3 with one ``internal error`` line and no traceback."""

    DROPPED_FACE = "internal error: structural bound failed: one face per nonempty coordinate set"
    SCRIPT = """
import sys
import boxmodal.refine
from boxmodal.cli import main

extend = boxmodal.refine._extend_core
boxmodal.refine._extend_core = lambda cells, s, memo: extend(cells, s, memo)[1:]
print(__debug__)
sys.exit(main(["refine", "--partition", sys.argv[1], "--verify"]))
"""

    @staticmethod
    def assert_internal_error(code: int, out: str, err: str, message: str) -> None:
        assert code == 3
        assert out == ""
        assert err.splitlines() == [message]

    def test_a_dropped_face(self, capsys, monkeypatch, origin_partition_file):
        extend = boxmodal.refine._extend_core
        monkeypatch.setattr(
            boxmodal.refine, "_extend_core", lambda cells, s, memo: extend(cells, s, memo)[1:]
        )
        code = main(["refine", "--partition", origin_partition_file, "--verify"])
        captured = capsys.readouterr()
        self.assert_internal_error(code, captured.out, captured.err, self.DROPPED_FACE)

    def test_a_dropped_face_under_python_O(self, origin_partition_file):
        src = str(Path(boxmodal.refine.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, origin_partition_file],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=60,
        )
        assert result.stdout == "False\n"  # asserts are off
        self.assert_internal_error(result.returncode, "", result.stderr, self.DROPPED_FACE)

    def test_a_wrong_world_fold(self, capsys, monkeypatch, valuation_file):
        real = boxmodal.modal._world_fold

        def wrong(qf, f):
            out = real(qf, f)
            out[parse_formula("p")] = frozenset()
            return out

        monkeypatch.setattr(boxmodal.modal, "_world_fold", wrong)
        code = main(["mc", "--formula", "<>p | ~p", "--valuation", valuation_file])
        captured = capsys.readouterr()
        message = "internal error: quotient disagrees with the frame semantics on p"
        self.assert_internal_error(code, captured.out, captured.err, message)


class TestViz:
    def test_dim3_rejected(self, capsys, tmp_path):
        p = make_partition(full(3), [full(3)])
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(p.to_json()))
        code, _ = run(capsys, "viz", "--partition", str(path), "--out", str(tmp_path / "x.svg"))
        assert code == 2

    def test_four_cell_regression(self, capsys, origin_partition_file, tmp_path):
        refined_path = tmp_path / "refined.json"
        code, payload = run(capsys, "refine", "--partition", origin_partition_file)
        refined_path.write_text(json.dumps(payload["partition"]))
        out = tmp_path / "four_cell.svg"
        code, _ = run(capsys, "viz", "--partition", str(refined_path), "--out", str(out))
        assert code == 0
        rendered = out.read_text()
        pinned = (DATA / "four_cell.svg").read_text()
        assert rendered == pinned

    def test_too_wide_rejected_up_front(self, capsys, tmp_path):
        far = point_region(10**9, 0)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(make_partition(full(2), [far, far.complement()]).to_json()))
        out = tmp_path / "far.svg"
        start = time.perf_counter()
        code = main(["viz", "--partition", str(path), "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"the limit is {MAX_SIDE}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_svg(self, capsys, tmp_path):
        p = make_partition(full(2), [full(2)])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(p.to_json()))
        out = tmp_path / "full.svg"
        code, _ = run(capsys, "viz", "--partition", str(path), "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("<?xml")


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, origin_partition_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["refine", "--partition", origin_partition_file, "--out", str(out1)]) == 0
        assert main(["refine", "--partition", origin_partition_file, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


# Quotes, backslashes, control characters and non-ASCII need escapes.
ESCAPED = st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
TEXT = st.text(st.one_of(st.characters(), ESCAPED))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**80), 2**80), TEXT
)
# Floats and non-str keys, which ``_json_text`` refuses.
FALLBACK = st.one_of(
    st.floats(allow_nan=False),
    st.dictionaries(st.integers(), SCALARS, min_size=1, max_size=3),
)


def documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.tuples(inner, inner),
            st.dictionaries(TEXT, inner, max_size=5),
        ),
        max_leaves=30,
    )


def region_objects(bound, boxes_min: int = 1):
    """Dicts shaped like ``Region.to_json``, lists or tuples, with bounds drawn from ``bound``."""
    pair = st.one_of(st.lists(bound, min_size=2, max_size=2), st.tuples(bound, bound))
    one_box = st.one_of(st.lists(pair, min_size=1, max_size=3), st.tuples(pair))
    return st.fixed_dictionaries(
        {"boxes": st.lists(one_box, min_size=boxes_min, max_size=3), "dim": st.integers(1, 3)}
    )


BOUNDS = st.one_of(st.none(), st.integers(0, 2**63 - 1))
# Near misses of the Region shape: other bound types, strings that hold its
# bracket runs, ints beyond 64 bits, wrong lengths, empty box lists, a bool
# dim, a missing or an extra key.
NEAR_REGIONS = st.one_of(
    *[
        region_objects(st.one_of(BOUNDS, near))
        for near in (
            st.booleans(),
            st.floats(allow_nan=False),
            st.one_of(st.sampled_from(["],[", "]],[[", ']]],"dim":', "},{"]), TEXT),
            st.integers(-(2**80), 2**80),
        )
    ],
    region_objects(BOUNDS, boxes_min=0),
    region_objects(BOUNDS).map(lambda r: {**r, "boxes": r["boxes"] + [[[0]]]}),
    region_objects(BOUNDS).map(lambda r: {**r, "boxes": r["boxes"] + [[]]}),
    region_objects(BOUNDS).map(lambda r: {**r, "dim": True}),
    region_objects(BOUNDS).map(lambda r: {**r, "extra": 1}),
    region_objects(BOUNDS).map(lambda r: {"boxes": r["boxes"]}),
)


def _refusal(obj: object) -> Optional[str]:
    """The start of the TypeError text ``_json_text`` gives for the first float or non-str
    key it meets in a document, in its order (a dict's keys, then its values by sorted key);
    None if the document holds neither."""
    if type(obj) is float:
        return "Object of type float is not JSON serializable"
    if type(obj) is dict:
        for k in obj:
            if type(k) is not str:
                return f"keys must be str, not {type(k).__name__}"
        obj = [obj[k] for k in sorted(obj)]
    if type(obj) in (list, tuple):
        return next(filter(None, map(_refusal, obj)), None)
    return None


def _assert_json_text(obj: object) -> None:
    """``_json_text`` writes ``json.dumps``'s text of a document, or refuses its first float or
    non-str key with a TypeError naming the type."""
    refusal = _refusal(obj)
    if refusal is None:
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    else:
        with pytest.raises(TypeError, match="^" + re.escape(refusal)):
            _json_text(obj)


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(region_objects(BOUNDS), max_size=3),
        st.one_of(st.none(), NEAR_REGIONS),
        st.integers(0, 3),
        st.booleans(),
    )
    def test_region_lists_match_json_dumps(self, cells, near, at, nested):
        """Lists of Region objects, some with one near miss among them; a float bound is
        refused."""
        if near is not None:
            cells.insert(at, near)
        obj = {"partition": {"cells": cells, "dim": 2}} if nested else cells
        event(f"refused: {_refusal(obj) is not None}")
        _assert_json_text(obj)

    @settings(max_examples=200, deadline=None)
    @given(documents(SCALARS))
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(documents(st.one_of(SCALARS, FALLBACK)))
    def test_matches_json_dumps_with_fallback_values(self, obj):
        """Documents that may hold floats and non-str keys: those are refused."""
        event(f"refused: {_refusal(obj) is not None}")
        _assert_json_text(obj)

    def test_dump_writes_the_json_dumps_text(self, tmp_path):
        cases = [{}, [], [[]], {"a": {}}, [{}, [], [[1, None]]], {"b": [True], "a": -1}]
        for obj in cases:
            _dump(obj, str(tmp_path / "out.json"))
            expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
            assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected
        out = tmp_path / "refused.json"
        refusals = ((1.5, "Object of type float"), ({1: "x"}, "keys must be str, not int"))
        for obj, refusal in refusals:
            with pytest.raises(TypeError, match=refusal):
                _dump(obj, str(out))
            assert not out.exists()


def _as_dicts(obj: object) -> object:
    """A copy of a document with every RefinementTrace, Partition and TableCells replaced by
    its ``to_json``."""
    if isinstance(obj, (RefinementTrace, Partition, TableCells)):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: _as_dicts(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_as_dicts(v) for v in obj)
    return obj


def _assert_writes_dumps(obj: object) -> None:
    """``_json_text(obj)`` is ``json.dumps`` of ``obj`` with its traces and partitions as dicts.

    A failure names the first line that differs: pytest's diff of two long
    texts would take minutes for every example Hypothesis shrinks.
    """
    got, want = _json_text(obj), json.dumps(_as_dicts(obj), indent=2, sort_keys=True)
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            if a != b:
                pytest.fail(f"line {i}: {a!r}, json.dumps writes {b!r}")
        pytest.fail(f"{len(got.splitlines())} lines, json.dumps writes {len(want.splitlines())}")


SMALL = st.integers(0, 12)


@st.composite
def trace_pools(draw) -> list:
    """RefinementTrace objects built bottom up.  Each step's first face holds the trace
    built last, and its other face one drawn from all built before, so that one subtrace
    can sit at several depths and under several faces.  ``k0`` may be None and
    ``coords`` empty anywhere; ``steps`` and ``faces`` may be empty in the first trace."""
    pool: list = []
    for _ in range(draw(st.integers(1, 5))):
        steps = []
        for level in draw(st.lists(SMALL, min_size=1 if pool else 0, max_size=2)):
            faces = tuple(
                FaceStep(
                    tuple(draw(st.lists(SMALL, max_size=3))),
                    draw(SMALL), draw(SMALL), draw(SMALL),
                    pool[-1] if i == 0 else draw(st.sampled_from(pool)),
                )
                for i in range(draw(st.integers(1, 2)) if pool else 0)
            )
            steps.append(LevelStep(level, faces))
        k0 = draw(st.one_of(st.none(), SMALL))
        pool.append(RefinementTrace(draw(SMALL), k0, draw(SMALL), draw(SMALL), tuple(steps)))
    return pool


@st.composite
def refinements(draw) -> tuple:
    """A refined partition and its trace, from ``random_partition``, ``gen_random`` or a
    square; past ``gen_random``'s three dimensions, from the classes of random regions."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "square"]))
    rng = random.Random(draw(st.integers(0, 2**30)))
    if kind == "square":
        p = square(n, rng.randint(1, {1: 9, 2: 9, 3: 5, 4: 3}[n]))
    elif n == 4:
        p = induced(full(n), [random_region(rng, n, 2, 2) for _ in range(rng.randint(1, 3))])
    elif draw(st.booleans()):
        p = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4))
    else:
        try:
            p = gen_random(n, rng.randint(1, 8), rng.randint(0, 8), rng.randrange(1000))
        except InfeasibleParameters:
            p = gen_random(n, 1, 0, 0)
    return refine_monotone(p)


def _depths(trace: RefinementTrace, depth: int = 0, seen: Optional[dict] = None) -> dict:
    """The depths at which each trace object under ``trace`` sits, by ``id``."""
    seen = {} if seen is None else seen
    seen.setdefault(id(trace), set()).add(depth)
    for step in trace.steps:
        for face in step.faces:
            _depths(face.sub, depth + 1, seen)
    return seen


def _at_several_depths(trace: RefinementTrace) -> bool:
    return any(len(d) > 1 for d in _depths(trace).values())


class TestTraceText:
    """``_json_text`` writes a RefinementTrace in the payload as ``json.dumps`` writes its
    ``to_json``."""

    @settings(max_examples=60, deadline=None)
    @given(refinements(), st.booleans())
    def test_refinements_match_json_dumps(self, refined, nested):
        q, trace = refined
        event(f"a trace at several depths: {_at_several_depths(trace)}")
        payload = {"partition": q.to_json(), "trace": trace}
        if nested:
            payload = {"runs": [payload, {"again": (trace, [trace])}], "trace": trace}
        _assert_writes_dumps(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_handmade_traces_match_json_dumps(self, data):
        pool = data.draw(trace_pools())
        event(f"a trace at several depths: {_at_several_depths(pool[-1])}")
        doc = data.draw(
            st.recursive(
                st.one_of(st.none(), st.integers(), st.sampled_from(pool)),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from("abc"), inner)
                ),
                max_leaves=8,
            )
        )
        for obj in (doc, {"trace": pool[-1], "doc": doc}, [pool, doc]):
            _assert_writes_dumps(obj)

    def test_edge_cases(self):
        leaf = RefinementTrace(0, None, 1, 1, ())
        hollow = RefinementTrace(1, 0, 2, 2, (LevelStep(0, ()),))
        mid = RefinementTrace(2, 3, 2, 5, (LevelStep(1, (FaceStep((), 1, 1, 1, leaf),)),))
        # ``leaf`` sits under ``top`` at depths 1 and 2, and in ``payload`` at more indents.
        top = RefinementTrace(
            3, 4, 3, 9,
            (LevelStep(0, (FaceStep((0,), 2, 3, 4, leaf), FaceStep((1, 2), 5, 6, 7, mid))),
             LevelStep(1, (FaceStep((), 0, 0, 0, hollow),))),
        )
        payload = {"trace": top, "more": [leaf, {"deep": [[mid, hollow]]}], "k": None}
        for obj in (leaf, hollow, mid, top, payload, [top, top], (leaf,)):
            _assert_writes_dumps(obj)
        assert '"k0": null' in _json_text(leaf) and '"steps": []' in _json_text(leaf)
        assert '"faces": []' in _json_text(hollow) and '"coords": []' in _json_text(mid)

    def test_a_float_is_refused(self):
        q, trace = refine_monotone(square(2, 3))
        payload = {"partition": q.to_json(), "trace": trace}
        _assert_writes_dumps(payload)
        with pytest.raises(TypeError, match="Object of type float is not JSON serializable"):
            _json_text({**payload, "seconds": 0.25})
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            _json_text({"trace": trace, "y": object()})

    def test_refine_and_product_never_build_the_trace_dicts(self, monkeypatch, tmp_path):
        def refuse(trace):
            raise AssertionError("the CLI called RefinementTrace.to_json")

        p = square(3, 3)
        fp = make_fibered(["a", "b"], [["a", "b"]], [p, make_partition(full(3), [full(3)])])
        (tmp_path / "p.json").write_text(json.dumps(p.to_json()))
        (tmp_path / "fp.json").write_text(json.dumps(fp.to_json()))
        monkeypatch.setattr(RefinementTrace, "to_json", refuse)
        for argv in (["refine", "--verify", "--partition", str(tmp_path / "p.json")],
                     ["product", "--partition", str(tmp_path / "fp.json")]):
            assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
            assert json.loads((tmp_path / "out.json").read_text())["trace"]["k0"] == 3

    def test_each_distinct_subtrace_is_formatted_once(self, monkeypatch, tmp_path):
        """The 4-D square with C = 4 has 481 trace nodes but 14 distinct trace objects, one per
        distinct trace value."""
        _, trace = refine_monotone(square(4, 4))
        assert _node_count(trace) == 481 and len(_depths(trace)) == 14
        assert len({json.dumps(t.to_json()) for t in _traces(trace)}) == 14
        formatted = []
        format_trace = boxmodal.cli._format_trace

        def spy(trace, memo):
            formatted.append(id(trace))
            return format_trace(trace, memo)

        monkeypatch.setattr(boxmodal.cli, "_format_trace", spy)
        cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
        case = next(c for c in cases if c["name"] == "square_n4_c4")
        assert refine_digest(case["input"], str(tmp_path)) == case["sha256"]
        assert len(formatted) == len(set(formatted)) == 14


def _traces(trace: RefinementTrace) -> list[RefinementTrace]:
    """``trace`` and every subtrace under it, once per trace node."""
    return [trace, *(t for step in trace.steps for f in step.faces for t in _traces(f.sub))]


def _node_count(trace: RefinementTrace) -> int:
    return 1 + sum(_node_count(f.sub) for step in trace.steps for f in step.faces)


def _split(b: Box) -> tuple[Box, ...]:
    """A box as two boxes split on its first axis after its lower end, or itself if that axis
    holds one value."""
    first, *rest = b.intervals
    if first.hi == first.lo:
        return (b,)
    low, high = Interval(first.lo, first.lo), Interval(first.lo + 1, first.hi)
    return Box((low, *rest)), Box((high, *rest))


def _several_boxes(p: Partition) -> Partition:
    """``p`` built again by ``make_partition`` from cells of several boxes: each cell's boxes
    split in two where they can be, in reverse order, and followed by its first lower corner,
    a box the first box covers."""
    cells = []
    for c in p.cells:
        corner = Box(tuple(Interval(iv.lo, iv.lo) for iv in c.boxes[0].intervals))
        boxes = tuple(half for b in c.boxes for half in _split(b))[::-1]
        cells.append(Region(p.dim, (*boxes, corner)))
    return make_partition(p.carrier, cells)


def _far(p: Partition) -> Partition:
    """``p`` with every bound but a lower 0 moved up so that the largest finite one is
    ``MAX_COORD``."""
    doc = p.to_json()
    bounds = [x for cell in doc["cells"] for b in cell["boxes"] for pair in b for x in pair]
    _stretch(doc, MAX_COORD - max(x for x in bounds if x is not None))
    return Partition.from_json(doc)


@st.composite
def partitions(draw) -> Partition:
    """A refined partition (see ``refinements``), maybe built again from cells of several boxes,
    with its bounds moved up to ``MAX_COORD``, or restricted to a carrier that is not full."""
    p, _ = draw(refinements())
    form = draw(st.sampled_from(["refined", "several boxes", "far", "restricted"]))
    if form == "several boxes":
        p = _several_boxes(p)
    elif form == "far":
        p = _far(p)
    elif form == "restricted":
        rng = random.Random(draw(st.integers(0, 2**30)))
        v = random_region(rng, p.dim, 4)
        if not p.carrier.intersect(v).is_empty():
            p = restrict(p, v)
    event(f"{form}, cells of several rows: {len(p.cells.table.cell) > p.size}")
    return p


class TestPartitionText:
    """``_json_text`` writes a Partition or TableCells in the payload as ``json.dumps`` writes
    its ``to_json``."""

    @settings(max_examples=80, deadline=None)
    @given(partitions(), st.integers(0, 2), st.booleans())
    def test_partitions_match_json_dumps(self, p, nesting, with_float):
        payload = [
            p,
            {"partition": p, "cells": p.cells, "k": None},
            {"runs": [{"fibers": {"a": p, "b": p}}, (p.cells, [[p]])], "p": p, "c": [p.cells]},
        ][nesting]
        _assert_writes_dumps(payload)
        if with_float:  # refused after the partitions are written
            with pytest.raises(TypeError, match="Object of type float is not JSON serializable"):
                _json_text({"doc": payload, "seconds": 0.25})

    def test_cells_of_one_box_take_the_box_table_form(self):
        """Bounds at 0, at ``MAX_COORD`` and unbounded, and a cell of unsorted boxes, one of
        them covered, between cells of one box."""
        tall = box((0, 0), (0, MAX_COORD - 1))
        top = box((0, 0), (MAX_COORD, None))
        rest = region(box((1, None), (1, None)), box((2, 3), (0, 0)), box((1, None), (0, 0)))
        p = make_partition(full(2), [region(top), rest, region(tall)])
        assert [len(c.boxes) for c in p.cells] == [1, 1, 3]
        _assert_writes_dumps(p)
        outer = json.dumps([p.cells.to_json()], indent=2, sort_keys=True)  # the list at indent 2
        assert _cells_text(p.cells, "\n  ", {}) == outer[len("[\n  ") : -len("\n]")]
        assert f"{MAX_COORD - 1}\n" in outer and f"{MAX_COORD},\n" in outer

    def test_commands_never_build_the_cell_lists(self, monkeypatch, tmp_path):
        """``refine --verify``, ``product``, ``quotient``, ``subalgebra`` and ``gen`` write
        their golden bytes with ``TableCells.to_json`` refusing every call."""
        gen_argv = ["gen", "--n", "2", "--cells", "6", "--max-const", "4", "--seed", "0"]
        p = gen_random(2, 6, 4, 0)
        gen_bytes = json.dumps(p.to_json(), indent=2, sort_keys=True) + "\n"
        assert any(len(c.boxes) > 1 for c in p.cells)

        def refuse(cells):
            raise AssertionError("the CLI called TableCells.to_json")

        cases = [
            c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
            if c.get("verify") or c["kind"] in ("product", "quotient", "subalgebra")
        ]
        monkeypatch.setattr(TableCells, "to_json", refuse)
        for case in cases:
            if case["kind"] == "refine":
                assert refine_digest(case["input"], str(tmp_path), True) == case["sha256"]
            else:
                digest = command_digest(case["kind"], case["input"], str(tmp_path))
                assert digest == (case["sha256"], case["outcome"])
        assert main([*gen_argv, "--out", str(tmp_path / "gen.json")]) == 0
        assert (tmp_path / "gen.json").read_text(encoding="utf-8") == gen_bytes

    def test_a_shared_partition_is_formatted_once(self, monkeypatch, tmp_path):
        """The three worlds of a ``product`` share one refined partition."""
        fp = make_fibered(
            ["a", "b", "c"], [["a", "b"], ["b", "c"]],
            [square(2, 3), make_partition(full(2), [full(2)]), gen_random(2, 6, 4, 0)],
        )
        (tmp_path / "fp.json").write_text(json.dumps(fp.to_json()))
        formatted = []
        cells_text = boxmodal.cli._cells_text

        def spy(cells, newline, memo):
            formatted.append(cells)
            return cells_text(cells, newline, memo)

        monkeypatch.setattr(boxmodal.cli, "_cells_text", spy)
        assert main(["product", "--partition", str(tmp_path / "fp.json"), "--out",
                     str(tmp_path / "out.json")]) == 0
        fibers = json.loads((tmp_path / "out.json").read_text())["fibered"]["fibers"]
        assert len(formatted) == 1 and len(fibers) == 3
        assert all(f["cells"] == formatted[0].to_json() for f in fibers.values())


# -- fuzzing the contract: every input ends in exit 0, 1 or 2, with no traceback --------------

BAD_BOUNDS = [None, True, False, 1.0, 2.5, "3", "w", -1, MAX_COORD + 1, [0], {}]
# Whether to apply one corruption: one time in four.
SOMETIMES = st.sampled_from([False, False, False, True])


def _stretch(doc: dict, shift: int) -> None:
    """Move every bound but a lower 0 up by ``shift``, keeping cells adjacent where they were."""
    for cell in doc["cells"]:
        for b in cell["boxes"]:
            for pair in b:
                lo, hi = pair
                pair[:] = [lo and lo + shift, None if hi is None else hi + shift]


@st.composite
def partition_texts(draw) -> tuple[str, dict]:
    """The text of a partition file, and the partition's document before any corruption.

    A seeded random partition, then any of: its cells out of order, its
    bounds moved up to ``MAX_COORD`` (or one past), a cell dropped (a gap),
    a box of one cell copied into another (an overlap, or a duplicate box),
    a smaller carrier (excess), a bound or the dimension replaced by a bool,
    float, string or out-of-range value, and the text cut short.
    """
    n = draw(st.integers(1, 2))
    cells, max_const, seed = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 999))
    try:
        p = gen_random(n, cells, max_const, seed)
    except InfeasibleParameters:
        p = gen_random(n, 1, 0, 0)
    doc = p.to_json()
    cells = doc["cells"]
    if draw(SOMETIMES):
        doc["cells"] = cells = draw(st.permutations(cells))
    if draw(SOMETIMES):
        _stretch(doc, MAX_COORD - draw(st.sampled_from([8, 7])))
        doc["carrier"] = {"dim": n, "boxes": [[[0, None]] * n]}
    base = json.loads(json.dumps(doc))
    if len(cells) > 1 and draw(SOMETIMES):
        cells.pop(draw(st.integers(0, len(cells) - 1)))
    if draw(SOMETIMES):
        i, j = (draw(st.integers(0, len(cells) - 1)) for _ in range(2))
        cells[j]["boxes"].append(cells[i]["boxes"][0])
    if draw(SOMETIMES):
        doc["carrier"] = {"dim": n, "boxes": [[[1, None]] + [[0, None]] * (n - 1)]}
    return draw(corrupted_texts(doc)), base


def _pairs(doc: object):
    """Every [lo, hi] pair of every box in a document, in document order."""
    if isinstance(doc, dict):
        if isinstance(doc.get("boxes"), list):
            yield from (pair for b in doc["boxes"] for pair in b)
        for key, value in doc.items():
            if key != "boxes":
                yield from _pairs(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _pairs(value)


@st.composite
def corrupted_texts(draw, doc: dict) -> str:
    """The text of a document, sometimes with a bound or its ``dim`` replaced by a bad value,
    and sometimes cut short."""
    doc = json.loads(json.dumps(doc))
    pairs = list(_pairs(doc))
    if pairs and draw(SOMETIMES):
        pair = draw(st.sampled_from(pairs))
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_BOUNDS))
    if "dim" in doc and draw(SOMETIMES):
        doc["dim"] = draw(st.sampled_from([True, 0, 2.0, "2", 3]))
    text = json.dumps(doc)
    if draw(SOMETIMES):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def some_cells(draw, base: dict) -> dict:
    """A region of the partition's dimension: the union of some of its cells, or a box
    across them."""
    n = base["dim"]
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(base["cells"]), max_size=len(base["cells"])))
        return {"dim": n, "boxes": [b for cell in chosen for b in cell["boxes"]]}
    return {"dim": n, "boxes": [[[0, draw(st.integers(0, 3))]] * n]}


@st.composite
def valuation_texts(draw, base: dict) -> str:
    """A valuation: ``p`` and maybe ``q`` regions of the partition's dimension."""
    names = draw(st.sampled_from([["p"], ["p", "q"]]))
    order = draw(st.sampled_from(["le", "lt", "le", "lt", "leq", 1]))
    doc = {
        "dim": draw(st.sampled_from([base["dim"], base["dim"], base["dim"], 3])),
        "order": order,
        "vars": {name: draw(some_cells(base)) for name in names},
    }
    return draw(corrupted_texts(doc))


@st.composite
def generator_texts(draw, base: dict) -> str:
    """A ``subalgebra`` generator file: regions of the partition's dimension."""
    regions = draw(st.lists(some_cells(base), max_size=3))
    doc = {"dim": base["dim"], "regions": regions}
    if draw(SOMETIMES):
        doc["regions"] = draw(st.sampled_from([None, {}, "p", [1]]))
    return draw(corrupted_texts(doc))


@st.composite
def fibered_texts(draw) -> str:
    """A ``product`` fibered partition file: worlds, edges (some to unknown or repeated
    worlds), and one partition per world, maybe of different dimensions, maybe missing."""
    worlds = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3))
    ends = st.sampled_from([*worlds, "z"] if draw(st.booleans()) else worlds)
    edges = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=4))
    fibers = {w: draw(partition_texts())[1] for w in worlds}
    if len(fibers) > 1 and draw(SOMETIMES):
        fibers.pop(worlds[0])
    return draw(corrupted_texts({"worlds": worlds, "edges": edges, "fibers": fibers}))


ORDERS = ["le", "lt", "le", "lt", "x"]
COMMANDS = [
    "check-tuned", "check-monotone", "refine", "quotient", "mc", "subalgebra", "product",
    "oracle", "gen",
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_fuzzed_files_end_in_a_documented_exit_code(command, data):
    """Corrupted files of every command that reads one, and bad flag values: ``--order``,
    a negative ``oracle --bound`` and ``gen`` values out of range."""
    draw = data.draw
    text, base = draw(partition_texts())
    with tempfile.TemporaryDirectory() as tmp:
        files = {}

        def write(flag: str, content: str) -> None:
            files[flag] = path = Path(tmp) / f"{flag[2:]}.json"
            path.write_text(content)

        argv = [command]
        if command in ("check-tuned", "quotient", "subalgebra", "product", "oracle"):
            argv += ["--order", draw(st.sampled_from(ORDERS))]
        if command in ("check-tuned", "check-monotone", "refine", "quotient", "oracle"):
            write("--partition", text)
        if command == "refine":
            argv.append("--verify")
        if command in ("quotient", "mc"):
            write("--valuation", draw(valuation_texts(base)))
        if command == "mc":
            argv += ["--formula", draw(st.sampled_from(["p", "<>p", "[]~p", "p & <>q", "<>(p"]))]
        if command == "subalgebra":
            write("--generators", draw(generator_texts(base)))
        if command == "product":
            write("--partition", draw(fibered_texts()))
        if command == "oracle":
            argv += ["--bound", str(draw(st.sampled_from([-1, -3, 2, 12])))]
        if command == "gen":
            for flag, values in (("--n", [-1, 0, 1, 3, 4]), ("--cells", [-1, 0, 1, 8, 9]),
                                 ("--max-const", [-1, 0, 8, 9]), ("--seed", [-1, 0, 7])):
                argv += [flag, str(draw(st.sampled_from(values)))]
        for flag, path in files.items():
            argv += [flag, str(path)]
        argv += ["--out", str(Path(tmp) / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{command}: exit {code}")
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
