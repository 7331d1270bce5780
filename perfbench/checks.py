"""Correctness checks on the outputs of the timed cases.

Three kinds of check, all outside the timed region:

* ``check_output``: the exit code and the output agree with what the command
  promises (``refine --verify`` reports every check true, ``check-tuned``
  exits 0 exactly when it reports the partition tuned, and so on);
* digests: for the default seed, every case's exit code and output sha256
  must equal the ones recorded in ``digests.json``;
* ``oracle_checks``: on a seeded sample of small cases, the grid oracles
  must agree with the symbolic results.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from types import ModuleType
from typing import Optional

DEFAULT_SEED = 0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Oracle sample per run, and the largest grid search a sampled case may need
# (cells squared times points searched), so the checks stay cheap.
ORACLE_SAMPLE = 12
ORACLE_COST_CAP = 20_000_000
TRUTH_BOUND = 6


def digest(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _load(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_recorded() -> dict:
    try:
        return _load(DIGESTS)
    except FileNotFoundError:
        return {}


def check_output(case, code: Optional[int], payload: Optional[dict]) -> Optional[str]:
    """Why the call's result breaks the command's contract, or None."""
    if payload is None:
        return f"no output (exit {code})"
    kind = case.kind
    if kind == "refine":
        if code != 0 or not all(payload["checks"].values()):
            return f"refine --verify exit {code}, checks {payload['checks']}"
        if payload["trace"]["cells_out"] != len(payload["partition"]["cells"]):
            return "trace cells_out differs from the output"
    elif kind == "check-tuned" or kind == "check-monotone":
        verdict = payload["tuned" if kind == "check-tuned" else "monotone"]
        if code not in (0, 1) or verdict != (code == 0) or (payload["violation"] is None) != verdict:
            return f"{kind} exit {code} disagrees with its verdict"
    elif kind == "product":
        if code != 0 or not (payload["refines"] and payload["tuned"]):
            return f"product exit {code}"
    elif kind == "subalgebra":
        if code != 0 or payload["atom_count"] > 16:
            return f"subalgebra exit {code}"
    elif kind == "quotient":
        if code != 0 or payload["worlds"] != len(payload["cells"]):
            return f"quotient exit {code}"
    elif kind == "mc":
        if code != 0 or "truth_region" not in payload:
            return f"mc exit {code}"
    return None


# -- grid oracles --------------------------------------------------------------------


def _max_const(p) -> int:
    return max([p.carrier.max_constant()] + [c.max_constant() for c in p.cells])


def _tuned_cost(p) -> int:
    bound = _max_const(p) + 1
    return p.size**2 * (bound + 1) ** p.dim * (bound + 2) ** p.dim


def _oracle_tuned(bm: ModuleType, p, order, payload: Optional[dict]) -> bool:
    """grid_tuned at the sound bound agrees with the symbolic verdict.

    With ``payload`` (a ``check-tuned`` output) the violation must match
    too; without it the partition must be tuned.
    """
    ok, counterexample = bm.grid_tuned(p, order, _max_const(p) + 1)
    if payload is None:
        return ok
    if ok != payload["tuned"]:
        return False
    if ok:
        return True
    i, j, u = counterexample
    return payload["violation"] == {"source": i, "target": j, "witness": list(u)}


def _truth_need(bm: ModuleType, f, val) -> int:
    max_const = max((r.max_constant() for r in val.vars.values()), default=0)
    c_eff = max_const + bm.formulas.constant_growth(f)
    return max(TRUTH_BOUND, c_eff) + bm.modal_depth(f) + 1


def _oracle_truth(bm: ModuleType, f, val, payload: dict) -> bool:
    truth = bm.Region.from_json(payload["truth_region"])
    grid = bm.grid_truth(f, val, TRUTH_BOUND)
    points = itertools.product(range(TRUTH_BOUND + 1), repeat=val.dim)
    return all((u in grid) == truth.member(u) for u in points)


def _oracle_job(bm: ModuleType, case, payload: dict):
    """A zero-argument oracle check for the case, or None if it is too large."""
    if case.kind == "refine":
        p = bm.Partition.from_json(payload["partition"])
        if _tuned_cost(p) > ORACLE_COST_CAP:
            return None
        return lambda: all(_oracle_tuned(bm, p, o, None) for o in bm.OrderKind)
    if case.kind == "check-tuned":
        p = bm.Partition.from_json(_load(case.meta["partition"]))
        if _tuned_cost(p) > ORACLE_COST_CAP:
            return None
        order = bm.OrderKind.from_json(case.meta["order"])
        return lambda: _oracle_tuned(bm, p, order, payload)
    if case.kind == "mc":
        f = bm.parse_formula(case.meta["formula"])
        val = bm.Valuation.from_json(_load(case.meta["valuation"]))
        need = _truth_need(bm, f, val)
        if (need + 1) ** (2 * val.dim) * len(bm.subformulas(f)) > ORACLE_COST_CAP:
            return None
        return lambda: _oracle_truth(bm, f, val, payload)
    return None


def oracle_checks(bm: ModuleType, cases, payloads, seed: int) -> list[tuple[int, bool]]:
    """Run the grid oracles on a seeded sample; return (case index, agrees)."""
    rng = random.Random(f"oracle:{seed}")
    order = list(range(len(cases)))
    rng.shuffle(order)
    results = []
    for i in order:
        if len(results) == ORACLE_SAMPLE:
            break
        payload = payloads[i]
        if payload is None:
            continue
        job = _oracle_job(bm, cases[i], payload)
        if job is not None:
            results.append((cases[i].index, bool(job())))
    return results
