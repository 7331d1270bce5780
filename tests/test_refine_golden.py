"""Byte equality of the refiner's, checkers' and quotients' output with the golden digests.

The digests in ``data/refine_golden.json`` were written by
``record_refine_golden.py`` at a reference commit; every case must still give
exactly the same bytes.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from record_refine_golden import GOLDEN, command_digest, extend_digest, refine_digest

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def test_golden_covers_every_kind():
    names = {c["name"].split("_")[0] for c in CASES}
    assert {"square", "random", "split", "induced", "probe", "extend"} <= names
    assert len(CASES) >= 140
    assert len([c for c in CASES if c["kind"] == "refine"]) >= 137
    assert len([c for c in CASES if c.get("verify")]) >= 2
    assert len([c for c in CASES if c["input"].get("refined")]) >= 6
    outcomes = {(c["kind"], c.get("outcome")) for c in CASES}
    assert {
        ("check-tuned", "tuned"),
        ("check-tuned", "violation"),
        ("check-monotone", "monotone"),
        ("check-monotone", "hull"),
        ("check-monotone", "varying"),
        ("quotient", "ok"),
        ("quotient", "not_tuned"),
        ("quotient", "not_compatible"),
        ("subalgebra", "ok"),
        ("product", "violation"),
        ("mc", "ok"),
    } <= outcomes
    orders = {c["input"]["args"]["order"] for c in CASES if c["kind"] == "check-tuned"}
    assert orders == {"le", "lt"}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case, tmp_path: Path):
    if case["kind"] == "refine":
        digest = refine_digest(case["input"], str(tmp_path), case.get("verify", False))
        assert digest == case["sha256"]
    elif case["kind"] == "extend":
        assert extend_digest(case["input"]) == case["sha256"]
    else:
        assert command_digest(case["kind"], case["input"], str(tmp_path)) == (
            case["sha256"],
            case["outcome"],
        )
