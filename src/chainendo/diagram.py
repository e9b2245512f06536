"""Deterministic diagrams of a triangle.

The layout is fixed once and for all: rows indexed by the multiplicity of
c, descending from n at the apex to 0 at the base; inside a row, entries
ordered by the multiplicity of a, descending, so the base runs from
const a on the left to const b on the right.  Entry j of row r sits at
horizontal offset r + 2j in half-cell units, which centres every row.

Rendering is byte-exact: no timestamps, no tabs, no trailing whitespace,
and a fixed attribute order in the SVG, so identical inputs give identical
bytes forever.  The eight regions use one stable letter each and, in SVG,
one colour of a colour-blind-safe palette.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import format_compact
from .triangle import Region, TriangleSpec, TriElem, region_of, to_endo

ASCII_SOFT_LIMIT = 30
SVG_HARD_LIMIT = 200

# Okabe-Ito palette, grey in place of black so labels stay readable.
REGION_COLORS = {
    Region.NIL_A: "#E69F00",
    Region.NIL_B: "#56B4E9",
    Region.NIL_C: "#009E73",
    Region.L_PAR: "#F0E442",
    Region.R_PAR: "#0072B2",
    Region.L_TRI: "#D55E00",
    Region.R_TRI: "#CC79A7",
    Region.RIGHT_IDENTITIES: "#999999",
}

CELL_W = 64
CELL_H = 36
X_UNIT = 36  # half-cell pitch; adjacent cells differ by two units
Y_STEP = 48
MARGIN = 20


class UnsupportedSize(ValueError):
    """The chain is too large for this output mode."""


@dataclass(frozen=True)
class Cell:
    elem: TriElem
    x: int  # horizontal offset in half-cell units


@dataclass(frozen=True)
class DiagramLayout:
    spec: TriangleSpec
    rows: tuple[tuple[Cell, ...], ...]  # apex row first

    def cell_count(self) -> int:
        return sum(len(row) for row in self.rows)


def layout(spec: TriangleSpec) -> DiagramLayout:
    """Grid positions for every member, apex row first."""
    n = spec.n
    rows = []
    for r in range(n, -1, -1):
        row = tuple(
            Cell(TriElem(k, n - r - k, r), r + 2 * j)
            for j, k in enumerate(range(n - r, -1, -1))
        )
        rows.append(row)
    return DiagramLayout(spec, tuple(rows))


def _cells_with_labels(spec: TriangleSpec):
    plan = layout(spec)
    for row in plan.rows:
        out = []
        for cell in row:
            endo = to_endo(spec, cell.elem)
            region = region_of(spec, endo)
            out.append((cell, format_compact(endo), region))
        yield out


def render_ascii(spec: TriangleSpec, color_by: str = "none") -> str:
    """Plain-text pyramid; labels in run-length notation or region letters."""
    if spec.n > ASCII_SOFT_LIMIT:
        warnings.warn(
            f"ascii diagrams beyond n = {ASCII_SOFT_LIMIT} are hard to read",
            stacklevel=2,
        )
    rows = list(_cells_with_labels(spec))
    if color_by == "region":
        width = 1
        pitch = 1
    else:
        width = max(len(label) for row in rows for _, label, _ in row)
        pitch = (width + 3) // 2
    lines = []
    for row in rows:
        line: list[str] = []
        for cell, label, region in row:
            text = region.value if color_by == "region" else label
            start = cell.x * pitch + (width - len(text)) // 2
            if len(line) < start:
                line.extend(" " * (start - len(line)))
            line.extend(text)
        lines.append("".join(line).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(spec: TriangleSpec, color_by: str = "none") -> str:
    """Self-contained SVG 1.1 document, one rect and text pair per member."""
    if spec.n > SVG_HARD_LIMIT:
        raise UnsupportedSize(
            f"svg diagrams are capped at n = {SVG_HARD_LIMIT}, got {spec.n}"
        )
    n = spec.n
    total_w = 2 * MARGIN + 2 * n * X_UNIT + CELL_W
    total_h = 2 * MARGIN + n * Y_STEP + CELL_H
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
    ]
    for depth, row in enumerate(_cells_with_labels(spec)):
        y = MARGIN + depth * Y_STEP
        for cell, label, region in row:
            x = MARGIN + cell.x * X_UNIT
            fill = (
                REGION_COLORS[region] if color_by == "region" else "#FFFFFF"
            )
            lines.append(
                f'<rect x="{x}" y="{y}" width="{CELL_W}" height="{CELL_H}" '
                f'fill="{fill}" stroke="#000000"/>'
            )
            lines.append(
                f'<text x="{x + CELL_W // 2}" y="{y + CELL_H // 2 + 4}" '
                f'font-family="monospace" font-size="12" '
                f'text-anchor="middle">{label}</text>'
            )
            if color_by == "region":
                lines.append(
                    f'<text x="{x + 4}" y="{y + 10}" '
                    f'font-family="monospace" font-size="8">'
                    f"{region.value}</text>"
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(
    spec: TriangleSpec, mode: str = "ascii", color_by: str = "none"
) -> str:
    """Dispatch on mode; both modes accept color_by none or region."""
    if color_by not in ("none", "region"):
        raise ValueError(f"color_by must be 'none' or 'region', got {color_by!r}")
    if mode == "ascii":
        return render_ascii(spec, color_by)
    if mode == "svg":
        return render_svg(spec, color_by)
    raise ValueError(f"mode must be 'ascii' or 'svg', got {mode!r}")
