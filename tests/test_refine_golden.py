"""Byte equality of the refiner's output with the recorded golden digests.

The digests in ``data/refine_golden.json`` were written by
``record_refine_golden.py`` at a reference commit; every case must still give
exactly the same bytes.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from record_refine_golden import GOLDEN, extend_digest, refine_digest

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def test_golden_covers_every_kind():
    names = {c["name"].split("_")[0] for c in CASES}
    assert {"square", "random", "split", "induced", "probe", "extend"} <= names
    assert len(CASES) >= 140


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case, tmp_path: Path):
    if case["kind"] == "refine":
        assert refine_digest(case["input"], str(tmp_path)) == case["sha256"]
    else:
        assert extend_digest(case["input"]) == case["sha256"]
