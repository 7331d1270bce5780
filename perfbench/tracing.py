"""In-memory spans and counts around the layers of boxmodal.

``Tracer`` keeps a stack of open spans.  When a span closes, its duration
goes to its parent's child time, and its self time (duration minus the time
covered by its child spans) goes to the totals of its name.  Spans are
folded into per-name totals as they close, so memory stays bounded however
many calls a run makes.

``instrument`` wraps the layer functions of an imported boxmodal package
and returns a function that removes every wrapper again.  Wrapping happens
from the benchmark's own files; the package itself is not modified.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Optional


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [stats, start, child_s]
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()

    def stats(self, name: str) -> SpanStats:
        st = self.spans.get(name)
        if st is None:
            st = self.spans[name] = SpanStats()
        return st

    def enter(self, name: str) -> None:
        st = self.stats(name)
        st.depth += 1
        self.stack.append([st, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        st, start, child_s = self.stack.pop()
        duration = end - start
        st.calls += 1
        st.self_s += duration - child_s
        st.depth -= 1
        if st.depth == 0:
            st.total_s += duration
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced


# Spans: (metric prefix, module, class or None, attribute).
SPANS = [
    ("cli.main", "cli", None, "main"),
    ("cli.load", "cli", None, "_load_json"),
    ("cli.emit", "cli", None, "_dump"),
    *[("region." + m, "region", "Region", m)
      for m in ("union", "intersect", "difference", "downset", "pin_coords", "translate", "normalize")],
    ("atomgrid.for_regions", "atomgrid", "AtomGrid", "for_regions"),
    ("atomgrid.region_bool", "atomgrid", "AtomGrid", "region_bool"),
    ("atomgrid.region_of_bool", "atomgrid", "AtomGrid", "region_of_bool"),
    *[("partition." + f, "partition", None, f)
      for f in ("make_partition", "induced", "restrict", "refines", "tuned_violation", "monotone_violation")],
    ("refine.refine_monotone", "refine", None, "refine_monotone"),
    ("refine.cofinal_threshold", "refine", None, "cofinal_threshold"),
    ("refine.extend_core", "refine", None, "_extend_core"),
    ("refine.pair_tables", "refine", None, "_pair_tables"),
    ("refine.product_tuned_violation", "refine", None, "product_tuned_violation"),
    *[("modal." + f, "modal", None, f)
      for f in ("truth_region", "quotient_frame", "mc_finite", "filtration_pipeline", "generate_subalgebra")],
    ("formulas.parse_formula", "formulas", None, "parse_formula"),
]


def instrument(bm: ModuleType, tracer: Tracer) -> Callable[[], None]:
    """Wrap the functions in SPANS and the counters; return the undo function."""
    modules = {
        name[len("boxmodal."):]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("boxmodal.") and mod is not None
    }
    modules["boxmodal"] = bm
    undo: list[tuple[object, str, object]] = []

    def replace(owner: object, attr: str, new: object) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def on_result_for(prefix: str) -> Optional[Callable]:
        counts = tracer.counts
        if prefix == "atomgrid.for_regions":
            return lambda grid: counts.update({"atomgrid.atoms": grid.size})
        if prefix == "modal.quotient_frame":
            return lambda qf: counts.update({"modal.worlds": qf.world_count, "modal.edges": len(qf.edges)})
        if prefix == "modal.filtration_pipeline":
            return lambda rep: counts.update({"modal.subformulas": rep.subformula_count})
        return None

    for prefix, mod_name, cls_name, attr in SPANS:
        mod = modules.get(mod_name)
        owner = getattr(mod, cls_name, None) if cls_name else mod
        if owner is None or attr not in owner.__dict__:
            continue  # the layer no longer has this function; its metrics read 0
        raw = owner.__dict__[attr]
        on_result = on_result_for(prefix)
        if isinstance(raw, classmethod):
            replace(owner, attr, classmethod(tracer.wrap(prefix, raw.__func__, on_result)))
        elif cls_name:
            replace(owner, attr, tracer.wrap(prefix, raw, on_result))
        else:
            wrapped = tracer.wrap(prefix, raw, on_result)
            # Modules bind each other's functions by name; rebind every copy.
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is raw:
                        replace(m, key, wrapped)

    region = modules["region"]
    counts = tracer.counts
    post_init = region.Interval.__dict__.get("__post_init__")
    if post_init is not None:
        def counted_post_init(self):
            counts["region.interval_objects"] += 1
            post_init(self)
        replace(region.Interval, "__post_init__", counted_post_init)

    prune = region.__dict__.get("_prune")
    if prune is not None:
        def counted_prune(boxes):
            boxes = list(boxes)
            distinct = len(set(boxes))
            kept = prune(boxes)
            counts["region.prune.box_pairs"] += distinct * (distinct - 1)
            counts["region.prune.boxes_in"] += distinct
            counts["region.prune.boxes_kept"] += len(kept)
            return kept
        replace(region, "_prune", counted_prune)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return restore
