"""Batch command-line interface.

Exit codes: 0 when the command succeeded and any checked property holds,
1 when a checked property fails (a counterexample is emitted), 2 for
malformed input or usage errors, 3 when an internal check fails (a
``RuntimeError`` such as ``TruthLemmaFailure``: one ``internal error`` line).

Output is the text of ``json.dumps(obj, indent=2, sort_keys=True)``, written
by ``_json_text`` in one of three forms:

- generic: a recursive writer for dicts with str keys, lists, tuples, str,
  int, bool and None;
- partitions: a ``Partition`` or ``TableCells`` in the payload is written as
  its ``to_json`` straight from the box table, one fixed template per cell
  of one box; a partition held in several places is formatted once per
  indent;
- traces: a ``RefinementTrace`` in the payload is written as its
  ``to_json`` through fixed templates, each distinct subtrace formatted once
  per document and re-indented with one ``str.replace`` where it is nested.

Commands hand the writer these objects, never their ``to_json``.  Any other
value, such as a float or a dict key that is not a str, raises TypeError
naming its type: no command's payload holds one.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .atomgrid import END_OMEGA
from .formulas import parse_formula
from .modal import (
    NotCompatible,
    NotTuned,
    Valuation,
    filtration_pipeline,
    generate_subalgebra,
    quotient_frame,
    truth_region,
)
from .oracle import grid_downset, grid_truth, grid_tuned
from .partition import (
    Partition,
    TableCells,
    is_monotone,
    is_tuned,
    monotone_violation,
    refines,
    tuned_violation,
)
from .randgen import gen_random
from .refine import (
    FiberedPartition,
    RefinementTrace,
    product_refines,
    product_tuned_violation,
    refine_monotone,
    refine_product_finite,
)
from .region import OrderKind, Region, full
from .viz import render_partition_svg


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# The text of a RefinementTrace at base indent, its fields in sorted key order.
# A face's keys, and so its ``sub``, sit at indent 10 within the text of the trace.
_TRACE = '{\n  "cells_in": %d,\n  "cells_out": %d,\n  "dim": %d,\n  "k0": %s,\n  "steps": %s\n}'
_STEP = '{\n      "faces": %s,\n      "level": %d\n    }'
_FACE = (
    '{\n          "atom_count": %d,\n          "cell_count": %d,\n          "coords": [%s],'
    '\n          "family_size": %d,\n          "sub": %s\n        }'
)
# The newline and indent before a face's sub, and before each step, face and coordinate.
_SUB, _STEP_NL, _FACE_NL, _COORD_NL = ("\n" + " " * k for k in (10, 4, 8, 12))


def _trace_text(trace: RefinementTrace, newline: str, memo: dict) -> str:
    """``_text`` of ``trace.to_json()``, each distinct trace formatted once per indent.

    A trace is formatted at base indent and moved to ``newline``'s indent
    with one ``str.replace``, which is safe because trace text holds only
    fixed keys, ints and null.  ``memo`` keeps the result by ``id`` (stable
    while the document being written holds the trace) and indent.  A face's
    ``sub`` always sits at the same indent within its trace, so a subtrace
    shared by many faces, at any depths, is formatted once.
    """
    key = (id(trace), newline)
    text = memo.get(key)
    if text is None:
        text = memo[key] = _format_trace(trace, memo).replace("\n", newline)
    return text


def _format_trace(trace: RefinementTrace, memo: dict) -> str:
    """The text of one trace at base indent, through the fixed templates."""
    steps = []
    for step in trace.steps:
        faces = []
        for f in step.faces:
            coords = ""
            if f.coords:
                coords = _COORD_NL + ("," + _COORD_NL).join(map(str, f.coords)) + _SUB
            sub = _trace_text(f.sub, _SUB, memo)
            faces.append(_FACE % (f.atom_count, f.cell_count, coords, f.family_size, sub))
        faces_text = "[" + _FACE_NL + ("," + _FACE_NL).join(faces) + "\n      ]" if faces else "[]"
        steps.append(_STEP % (faces_text, step.level))
    steps_text = "[" + _STEP_NL + ("," + _STEP_NL).join(steps) + "\n  ]" if steps else "[]"
    k0 = "null" if trace.k0 is None else "%d" % trace.k0
    return _TRACE % (trace.cells_in, trace.cells_out, trace.dim, k0, steps_text)


@lru_cache(maxsize=64)
def _box_cell(dim: int, newline: str) -> str:
    """The text of a one-box cell of ``dim`` axes at ``newline``'s indent, a ``%s`` for each
    bound."""
    n1, n2, n3, n4 = (newline + "  " * k for k in range(1, 5))
    axis = n3 + "[" + n4 + "%s," + n4 + "%s" + n3 + "]"
    boxes = "[" + n2 + "[" + ",".join([axis] * dim) + n2 + "]" + n1 + "]"
    return "{" + n1 + '"boxes": ' + boxes + "," + n1 + '"dim": %d' % dim + newline + "}"


def _cells_text(cells: TableCells, newline: str, memo: dict) -> str:
    """``_text`` of ``cells.to_json()``, written from the box table.

    Every run of one-box cells is one ``_box_cell`` template per cell, filled
    at once from the table's ``lo`` and ``end - 1`` columns, with null for an
    unbounded end.  A cell of several rows is written from ``Region.to_json``,
    which normalizes it.
    """
    inner = newline + "  "
    lo, end = cells.table.lo, cells.table.end
    dim = lo.shape[1]
    bounds = np.empty((*lo.shape, 2), np.uint64)
    bounds[..., 0] = lo
    np.subtract(end, 1, out=bounds[..., 1])
    flat = bounds.ravel().tolist()
    for i in np.flatnonzero(end == END_OMEGA).tolist():
        flat[2 * i + 1] = "null"
    one, sep, width = _box_cell(dim, inner), "," + inner, 2 * dim
    starts, count = cells.starts, len(cells)
    items, row = [], 0  # ``row`` starts the run of one-box cells not yet written
    for i in [*np.flatnonzero(np.diff(starts) > 1).tolist(), count]:
        if starts[i] > row:
            run = sep.join([one] * (starts[i] - row))
            items.append(run % tuple(flat[row * width : starts[i] * width]))
        if i < count:
            items.append(_text(cells[i].to_json(), inner, memo))
            row = starts[i + 1]
    return "[" + inner + sep.join(items) + newline + "]"


def _partition_text(p: Partition, newline: str, memo: dict) -> str:
    """``_text`` of ``p.to_json()``, its keys in sorted order.  ``memo`` keeps it by ``id`` and
    indent, as for traces, so that a partition held in several places at one indent is
    formatted once."""
    key = (id(p), newline)
    text = memo.get(key)
    if text is None:
        inner = newline + "  "
        carrier = '"full"'
        if not p.carrier.equal(full(p.dim)):
            carrier = _text(p.carrier.to_json(), inner, memo)
        text = memo[key] = (
            "{" + inner + '"carrier": ' + carrier + "," + inner + '"cells": '
            + _cells_text(p.cells, inner, memo) + "," + inner + '"dim": %d' % p.dim + newline + "}"
        )
    return text


def _text(value: object, newline: str, memo: dict) -> str:
    """Indent-2, sorted-key JSON text of ``value``; ``newline`` ends in its indent.

    ``memo`` is ``_trace_text``'s and ``_partition_text``'s, for one document.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = []
        for v in value:
            scalar = _SCALARS.get(type(v))
            items.append(_text(v, inner, memo) if scalar is None else scalar(v))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        for k in value:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        if not value:
            return "{}"
        items = []
        for k in sorted(value):
            v = value[k]
            scalar = _SCALARS.get(type(v))
            text = _text(v, inner, memo) if scalar is None else scalar(v)
            items.append(encode_basestring_ascii(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is RefinementTrace:
        return _trace_text(value, newline, memo)
    if kind is Partition:
        return _partition_text(value, newline, memo)
    if kind is TableCells:
        return _cells_text(value, newline, memo)
    if kind not in _SCALARS:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _SCALARS[kind](value)


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, written directly.

    The standard encoder falls back to pure Python whenever it indents.
    This writer covers dicts with str keys, lists, tuples, str, int, bool,
    None, and RefinementTrace, Partition and TableCells objects (written as
    their ``to_json``); any other value raises TypeError.
    """
    return _text(obj, "\n", {})


def _dump(obj: object, out: Optional[str]) -> None:
    text = _json_text(obj) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _load_partition(path: str) -> Partition:
    return Partition.from_json(_load_json(path))


def _load_valuation(path: str) -> Valuation:
    return Valuation.from_json(_load_json(path))


def _load_regions(path: str) -> tuple[int, list[Region]]:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object with 'dim' and 'regions'")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{path}: field 'dim' must be a positive integer")
    raw = obj.get("regions")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: field 'regions' must be a list")
    regions = [Region.from_json(r) for r in raw]
    for r in regions:
        if r.dim != dim:
            raise ValueError(f"{path}: region dimension differs from 'dim'")
    return dim, regions


def _order(args: argparse.Namespace) -> OrderKind:
    return OrderKind.from_json(args.order)


def _verdict(key: str, violation, out: Optional[str]) -> int:
    _dump({key: violation is None, "violation": violation.to_json() if violation else None}, out)
    return 0 if violation is None else 1


def cmd_check_tuned(args: argparse.Namespace) -> int:
    p = _load_partition(args.partition)
    return _verdict("tuned", tuned_violation(p, _order(args)), args.out)


def cmd_check_monotone(args: argparse.Namespace) -> int:
    return _verdict("monotone", monotone_violation(_load_partition(args.partition)), args.out)


def cmd_refine(args: argparse.Namespace) -> int:
    p = _load_partition(args.partition)
    refined, trace = refine_monotone(p)
    payload: dict = {"partition": refined, "trace": trace}
    code = 0
    if args.verify:
        checks = {
            "refines": refines(refined, p),
            "monotone": is_monotone(refined),
            "tuned_le": is_tuned(refined, OrderKind.REFLEXIVE),
            "tuned_lt": is_tuned(refined, OrderKind.STRICT),
        }
        payload["checks"] = checks
        if not all(checks.values()):
            code = 1
    _dump(payload, args.out)
    return code


def cmd_mc(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    val = _load_valuation(args.valuation)
    report = filtration_pipeline(f, val)
    _dump(report.to_json(), args.out)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    p = _load_partition(args.partition)
    val = _load_valuation(args.valuation)
    order = OrderKind.from_json(args.order) if args.order else val.order
    try:
        qf = quotient_frame(p, order, val)
    except NotTuned as exc:
        _dump({"error": "not_tuned", "violation": exc.violation.to_json()}, args.out)
        return 1
    except NotCompatible as exc:
        _dump(
            {"error": "not_compatible", "var": exc.var, "cell": exc.cell,
             "witness": exc.witness.to_json()},
            args.out,
        )
        return 1
    payload = {
        "worlds": qf.world_count,
        "edges": sorted(list(e) for e in qf.edges),
        "val": {name: sorted(worlds) for name, worlds in sorted(qf.valuation.items())},
        "cells": qf.cells,
    }
    _dump(payload, args.out)
    return 0


def cmd_subalgebra(args: argparse.Namespace) -> int:
    dim, generators = _load_regions(args.generators)
    result = generate_subalgebra(generators, _order(args), dim=dim)
    payload = {
        "order": result.order.value,
        "atom_count": result.atom_count,
        "element_count": result.element_count,
        "atoms": result.atoms,
        "generator_atoms": [sorted(s) for s in result.generator_atoms],
    }
    _dump(payload, args.out)
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    fp = FiberedPartition.from_json(_load_json(args.partition))
    refined, trace = refine_product_finite(fp)
    violation = product_tuned_violation(refined, _order(args))
    payload = {
        "fibered": {
            "worlds": list(refined.worlds),
            "edges": [list(e) for e in refined.edges],
            "fibers": dict(zip(refined.worlds, refined.fibers)),
        },
        "trace": trace,
        "refines": product_refines(refined, fp),
        "tuned": violation is None,
        "violation": violation.to_json() if violation else None,
    }
    _dump(payload, args.out)
    return 0 if payload["refines"] and payload["tuned"] else 1


def _diffs(dim: int, bound: int, grid: set, member) -> list[list[int]]:
    """Points of [0, bound]^dim where grid search and the symbolic membership disagree."""
    return sorted(
        list(u) for u in itertools.product(range(bound + 1), repeat=dim) if (u in grid) != member(u)
    )


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.bound is None:
        raise ValueError("the oracle command requires --bound")
    if args.bound < 0:
        raise ValueError(f"--bound must be nonnegative, got {args.bound}")
    cases = []
    agree = True
    if args.formula and args.valuation:
        f = parse_formula(args.formula)
        val = _load_valuation(args.valuation)
        symbolic = truth_region(f, val)
        diffs = _diffs(val.dim, args.bound, grid_truth(f, val, args.bound), symbolic.member)
        agree &= not diffs
        cases.append({"kind": "truth", "formula": args.formula, "diffs": diffs})
    elif args.partition:
        p = _load_partition(args.partition)
        order = _order(args)
        ok, counterexample = grid_tuned(p, order, args.bound)
        symbolic_ok = is_tuned(p, order)
        agree &= ok == symbolic_ok
        cases.append(
            {
                "kind": "tuned",
                "grid": ok,
                "symbolic": symbolic_ok,
                "counterexample": list(counterexample[2]) if counterexample else None,
            }
        )
        for j, cell in enumerate(p.cells):
            grid_pts = grid_downset(cell, order, args.bound)
            diffs = _diffs(p.dim, args.bound, grid_pts, cell.downset(order).member)
            agree &= not diffs
            cases.append({"kind": "downset", "cell": j, "diffs": diffs})
    elif args.generators:
        dim, regions = _load_regions(args.generators)
        order = _order(args)
        for j, r in enumerate(regions):
            grid_pts = grid_downset(r, order, args.bound)
            diffs = _diffs(dim, args.bound, grid_pts, r.downset(order).member)
            agree &= not diffs
            cases.append({"kind": "downset", "region": j, "diffs": diffs})
    else:
        raise ValueError(
            "oracle needs --formula with --valuation, or --partition, or --generators"
        )
    _dump({"agree": agree, "cases": cases}, args.out)
    return 0 if agree else 1


def cmd_viz(args: argparse.Namespace) -> int:
    p = _load_partition(args.partition)
    if p.dim != 2:
        raise ValueError(f"viz requires dimension 2, got {p.dim}")
    if not args.out:
        raise ValueError("viz requires --out FILE.svg")
    svg = render_partition_svg(p)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    _dump(gen_random(args.n, args.cells, args.max_const, args.seed), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxmodal",
        description="Exact partition refinement and modal model checking on the grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, order_default: Optional[str] = "le") -> None:
        p.add_argument("--out", help="write JSON output to this file")
        if order_default is not None:
            p.add_argument("--order", default=order_default, help="le or lt")

    p = sub.add_parser("check-tuned", help="decide the tuned property")
    p.add_argument("--partition", required=True)
    common(p)
    p.set_defaults(func=cmd_check_tuned)

    p = sub.add_parser("check-monotone", help="decide the monotone property")
    p.add_argument("--partition", required=True)
    common(p, order_default=None)
    p.set_defaults(func=cmd_check_monotone)

    p = sub.add_parser("refine", help="compute the monotone refinement")
    p.add_argument("--partition", required=True)
    p.add_argument("--verify", action="store_true", help="re-check the output")
    common(p, order_default=None)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("mc", help="model check a formula through the finite quotient")
    p.add_argument("--formula", required=True)
    p.add_argument("--valuation", required=True)
    common(p, order_default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("quotient", help="build the quotient frame of a tuned partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--valuation", required=True)
    p.add_argument("--order", default=None, help="override the valuation's order")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("subalgebra", help="closed family generated by regions")
    p.add_argument("--generators", required=True)
    common(p)
    p.set_defaults(func=cmd_subalgebra)

    p = sub.add_parser("product", help="tuned refinement over a finite product frame")
    p.add_argument("--partition", required=True, help="fibered partition JSON")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("oracle", help="compare symbolic results against grid search")
    p.add_argument("--partition")
    p.add_argument("--formula")
    p.add_argument("--valuation")
    p.add_argument("--generators")
    p.add_argument("--bound", type=int)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("viz", help="render a 2-dimensional partition as SVG")
    p.add_argument("--partition", required=True)
    common(p, order_default=None)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("gen", help="seeded random partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--max-const", type=int, required=True, dest="max_const")
    p.add_argument("--seed", type=int, required=True)
    common(p, order_default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
