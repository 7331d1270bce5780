"""Smoke test of the paired timing script ``tests/time_ab.py``: one round on a sliced ``refine``
corpus, this checkout against itself.  No timing is asserted."""
from __future__ import annotations

import sys

import time_ab

ROOT = str(time_ab.ROOT)
SQUARES = {(2, 8), (2, 16), (3, 4), (4, 3)}


def test_a_single_kind_workload_prints_each_dimensions_rate(monkeypatch, capsys):
    build = time_ab.workloads.build

    def sliced(*args):
        """Every ninth case that is no square, and the squares of the two least sizes of the
        plane (for ``growth_slope``) and of the least of the cube and 4-D."""
        cases = build(*args)
        rest = [c for c in cases if not c.meta.get("square")][::9]
        return rest + [c for c in cases if (c.meta["dim"], c.meta.get("square")) in SQUARES]

    monkeypatch.setattr(time_ab.workloads, "build", sliced)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    assert time_ab.main([ROOT, ROOT, "--workload", "refine", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:-1]}
    assert {"cases_per_s", "case_ms_p90", "2-D", "3-D", "4-D", "src_lines"} <= set(rows)
    assert all(rows[dim][-1] == "cases_per_s" for dim in ("2-D", "3-D", "4-D"))
    assert not any(name.startswith("kind") for name in rows)
    assert out.splitlines()[-1] == "outputs: byte-identical"
