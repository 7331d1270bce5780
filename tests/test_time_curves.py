"""Smoke test of the timing harness ``tests/time_curves.py``: every curve's point function runs
on its smallest point, and the record it writes has every key.  No timing is asserted."""
from __future__ import annotations

import json

import time_curves

SQUARE_KEYS = {
    "n", "cells_in", "cells_out", "atoms", "refine_monotone", "owner", "refines", "monotone",
    "tuned_le", "tuned_lt", "text",
}


def test_the_record_of_each_curves_smallest_point(tmp_path, monkeypatch, capsys):
    every = time_curves.curves
    build = time_curves.workloads.build
    monkeypatch.setattr(
        time_curves, "curves", lambda seed: [c._replace(points=c.points[:1]) for c in every(seed)]
    )
    # Every seventh case of each corpus; small_commands cycles through its six kinds.
    monkeypatch.setattr(time_curves.workloads, "build", lambda *args: build(*args)[::7])
    out = tmp_path / "bench.json"
    assert time_curves.main(["--repeat", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    names = [curve.name for curve in every(0)]
    assert list(record) == ["environment", *names]
    assert set(record["environment"]) == {
        "python", "numpy", "commit", "src_lines", "cpus", "seed", "repeat",
    }
    assert record["environment"]["seed"] == 0 and record["environment"]["repeat"] == 1
    for name in names:
        assert set(record[name]) == {"points", "slopes"}
        assert len(record[name]["points"]) == 1
        assert record[name]["slopes"] == {}  # one point gives no slope
    (square,) = record["squares"]["points"]
    assert set(square) == SQUARE_KEYS | {"C"}
    assert (square["n"], square["C"], square["cells_in"]) == (2, 32, 2)
    (probe,) = record["split_face"]["points"]
    assert set(probe) == SQUARE_KEYS | {"c"}
    (strips,) = record["strips"]["points"]
    assert set(strips) == SQUARE_KEYS | {"K"}
    assert (strips["K"], strips["cells_in"]) == (100, 2)
    (modal,) = record["modal"]["points"]
    assert set(modal) == {"formula", "subformulas", "mc"}
    (boxes,) = record["boxes"]["points"]
    assert (boxes["label"], boxes["atoms"], boxes["rows"]) == ("L", 2000, 3)
    assert set(boxes) == {"label", "atoms", "rows", "seconds"}
    (corpus,) = record["refine_corpus"]["points"]
    assert set(corpus) == {"seed", "cases", "total", "phases", "faces", "calls", "sha256"}
    assert tuple(corpus["phases"]) == time_curves.PHASES
    assert tuple(corpus["calls"]) == time_curves.HELPERS
    (small,) = record["small_commands"]["points"]
    assert set(small) == {"seed", "cases", "total", "kinds", "exit_codes", "sha256"}
    assert set(small["kinds"]) == {
        "check-monotone", "check-tuned", "mc", "product", "quotient", "subalgebra",
    }
    assert sum(small["exit_codes"].values()) == small["cases"]
    assert "squares" in capsys.readouterr().out
