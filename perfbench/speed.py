"""Fixed reference tasks that measure how fast the machine runs right now.

The VMs the benchmark runs on change speed by up to a half for minutes at a
time, while the process keeps its core (CPU time equals wall time).  Taking
each case's fastest call removes short slow spells but not long ones.  So
the runner also times a reference task between cases and scales each pass's
times to a machine on which the task takes its nominal time.

Each workload has a task that does the kind of work its calls spend their
time on, because slow spells do not slow every kind of work alike:

* ``refine``: small tuples, dicts, sets and objects in the interpreter, and
  small numpy arrays;
* ``small_commands``: argument parsing, and writing, reading and parsing a
  small JSON file, as one cheap command-line call does.

The tasks are part of the benchmark, not of boxmodal, so a change to
boxmodal cannot change them.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import time

import numpy as np

# Each task's time on the 2-vCPU VM the benchmark was built on, in a fast spell.
NOMINAL_S = {"refine": 0.020, "small_commands": 0.012}


class _Pair:
    __slots__ = ("key", "index")

    def __init__(self, key: tuple, index: int) -> None:
        self.key = key
        self.index = index


def object_task() -> int:
    """Deterministic interpreter and numpy work of about 20 ms."""
    rng = random.Random(5)
    counts: dict = {}
    pairs = []
    for i in range(4000):
        key = (rng.randrange(50), rng.randrange(50), i % 7)
        counts[key] = counts.get(key, 0) + 1
        pairs.append(_Pair(key, i))
    pairs.sort(key=lambda p: (p.key[1], p.index))
    union: set = set()
    for key, _ in sorted(counts.items())[:1500]:
        union |= frozenset(key)
    grid = np.arange(64, dtype=np.int32).reshape(8, 8)
    total = 0
    for i in range(300):
        mask = (grid % (i % 5 + 2)) == 0
        total += int(np.count_nonzero(mask[:, i % 8])) + int(np.bincount(grid[mask] % 4).max())
    return len(union) + pairs[0].index + total


_DOCUMENT = {
    "dim": 2,
    "carrier": "full",
    "cells": [{"dim": 2, "boxes": [[[i, i + 3], [0, None]] for i in range(6)]} for _ in range(8)],
}


def command_task(path: str) -> int:
    """Deterministic parsing and JSON file work of about 12 ms."""
    total = 0
    for _ in range(12):
        parser = argparse.ArgumentParser(prog="reference")
        parser.add_argument("--partition")
        parser.add_argument("--order", choices=("le", "lt"))
        parser.add_argument("--out")
        args = parser.parse_args(["--partition", path, "--order", "le", "--out", path])
        with open(args.partition, "w", encoding="utf-8") as fh:
            json.dump(_DOCUMENT, fh, sort_keys=True)
        with open(args.out, encoding="utf-8") as fh:
            total += len(json.load(fh)["cells"])
        os.remove(args.out)
    return total


class Reference:
    """Times the reference task of a workload; ``workdir`` takes its file."""

    def __init__(self, workload: str, workdir: str) -> None:
        self.nominal_s = NOMINAL_S[workload]
        path = os.path.join(workdir, "reference.json")
        self.task = object_task if workload == "refine" else lambda: command_task(path)

    def time(self) -> float:
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0

    def scale(self, samples: list[float]) -> float:
        """Factor that turns times measured alongside samples into nominal ones."""
        return self.nominal_s / statistics.median(samples)
