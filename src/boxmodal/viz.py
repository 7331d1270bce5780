"""Deterministic SVG rendering of two-dimensional partitions.

The square [0, K]^2 with K = max constant + 2 is drawn as colored unit
cells, at most ``MAX_SIDE`` per side; columns and rows that continue
unbounded get arrow-annotated bands.
Colors are fixed by cell index, so re-rendering the same partition produces
identical bytes.
"""
from __future__ import annotations

import numpy as np

from .partition import Partition

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#86bcb6",
    "#d37295",
)

CELL_PX = 26
# Widest drawing, in unit squares per side (the square holds MAX_SIDE^2).
MAX_SIDE = 256
MARGIN = 34
BAND_GAP = 6


def color_of(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def render_partition_svg(p: Partition) -> str:
    if p.dim != 2:
        raise ValueError(f"only dimension 2 can be drawn, got dimension {p.dim}")
    span = max([p.carrier.max_constant()] + [c.max_constant() for c in p.cells]) + 2
    side = span + 1
    if side > MAX_SIDE:
        raise ValueError(f"drawing too wide: {side} squares per side, the limit is {MAX_SIDE}")
    grid_px = side * CELL_PX
    band_px = CELL_PX
    legend_h = 18 * p.size + 12
    width = MARGIN + grid_px + BAND_GAP + band_px + 12
    height = MARGIN + grid_px + BAND_GAP + band_px + legend_h + 12

    def x_px(x: int) -> int:
        return MARGIN + x * CELL_PX

    def y_px(y: int) -> int:
        return MARGIN + (span - y) * CELL_PX

    # cell[x][y]: the cell of (x, y), or -1; index side stands for span + 1.
    drawn = [*range(side), span + 1]
    at = [np.searchsorted(c, drawn, side="right") - 1 for c in p._grid.cuts]
    cell = p._owner[np.ix_(*at)].tolist()

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for y in range(side):
        for x in range(side):
            idx = cell[x][y]
            if idx < 0:
                continue
            out.append(
                f'<rect x="{x_px(x)}" y="{y_px(y)}" width="{CELL_PX}" height="{CELL_PX}" '
                f'fill="{color_of(idx)}" stroke="white" stroke-width="1"/>'
            )
    # Unbounded continuations: membership is stable beyond the drawn square.
    band_x = MARGIN + grid_px + BAND_GAP
    band_y = MARGIN - BAND_GAP
    for y in range(side):
        idx = cell[side][y]
        if idx < 0:
            continue
        out.append(
            f'<rect x="{band_x}" y="{y_px(y)}" width="{band_px}" height="{CELL_PX}" '
            f'fill="{color_of(idx)}" opacity="0.45"/>'
        )
        out.append(
            f'<text x="{band_x + band_px // 2}" y="{y_px(y) + CELL_PX - 8}" '
            f'font-size="12" text-anchor="middle">&#8594;</text>'
        )
    for x in range(side):
        idx = cell[x][side]
        if idx < 0:
            continue
        out.append(
            f'<rect x="{x_px(x)}" y="{band_y - band_px}" width="{CELL_PX}" height="{band_px}" '
            f'fill="{color_of(idx)}" opacity="0.45"/>'
        )
        out.append(
            f'<text x="{x_px(x) + CELL_PX // 2}" y="{band_y - 8}" '
            f'font-size="12" text-anchor="middle">&#8593;</text>'
        )
    corner = cell[side][side]
    if corner >= 0:
        out.append(
            f'<rect x="{band_x}" y="{band_y - band_px}" width="{band_px}" height="{band_px}" '
            f'fill="{color_of(corner)}" opacity="0.45"/>'
        )
        out.append(
            f'<text x="{band_x + band_px // 2}" y="{band_y - 8}" '
            f'font-size="12" text-anchor="middle">&#8599;</text>'
        )
    # Axis labels.
    for x in range(side):
        out.append(
            f'<text x="{x_px(x) + CELL_PX // 2}" y="{MARGIN + grid_px + 14}" '
            f'font-size="10" text-anchor="middle">{x}</text>'
        )
    for y in range(side):
        out.append(
            f'<text x="{MARGIN - 6}" y="{y_px(y) + CELL_PX - 9}" '
            f'font-size="10" text-anchor="end">{y}</text>'
        )
    legend_y = MARGIN + grid_px + BAND_GAP + band_px + 16
    for i, cell in enumerate(p.cells):
        y = legend_y + 18 * i
        out.append(
            f'<rect x="{MARGIN}" y="{y - 11}" width="12" height="12" fill="{color_of(i)}"/>'
        )
        out.append(
            f'<text x="{MARGIN + 18}" y="{y}" font-size="12">cell {i}: {cell.normalize()!r}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
