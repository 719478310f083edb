"""Text and SVG drawings of a routed row.

Both renderers share one geometry: every node occupies one sub-column per
terminal slot plus a trailing gap sub-column, tracks are stacked above the
node row (track 0 nearest the nodes), and each wire is a horizontal segment
on its track with vertical stubs dropping to its two terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from cuberow.errors import RenderSizeError
from cuberow.netlist import Netlist, Placement, gray_code
from cuberow.routing import TrackAssignment

MAX_TEXT_COLUMNS = 512

_DIM_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)


@dataclass(frozen=True)
class RenderSpec:
    """Rendering knobs; cell sizes apply to SVG output only."""

    cell_width: int = 12
    cell_height: int = 12
    show_tracks: bool = True

    def __post_init__(self):
        if self.cell_width <= 0 or self.cell_height <= 0:
            raise RenderSizeError(
                f"cell size must be positive, got {self.cell_width}x{self.cell_height}"
            )


def _node_label(net: Netlist, col: int) -> str:
    return str(gray_code(col) if net.placement is Placement.GRAY else col)


def render_text(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """ASCII drawing: track rows over a terminal-tick row and node labels."""
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    width = n * step
    if width > MAX_TEXT_COLUMNS:
        raise RenderSizeError(
            f"text rendering needs {width} columns, cap is {MAX_TEXT_COLUMNS}"
        )
    ntracks = assignment.track_count if spec.show_tracks else 0
    grid = [[" "] * width for _ in range(ntracks)]

    def x_of(col: int, slot: int) -> int:
        return col * step + slot - 1

    if spec.show_tracks:
        # Horizontal spans first, then stubs; stubs crossing a foreign span
        # become '+' so the weave stays readable.
        for w in net.wires:
            r = ntracks - 1 - assignment.by_wire[w]
            xa, xb = x_of(w.left_col, w.left_slot), x_of(w.right_col, w.right_slot)
            for x in range(xa, xb + 1):
                grid[r][x] = "-"
        for w in net.wires:
            r = ntracks - 1 - assignment.by_wire[w]
            xa, xb = x_of(w.left_col, w.left_slot), x_of(w.right_col, w.right_slot)
            grid[r][xa] = "+"
            grid[r][xb] = "+"
            for rr in range(r + 1, ntracks):
                for x in (xa, xb):
                    grid[rr][x] = "+" if grid[rr][x] == "-" else "|"

    ticks = [" "] * width
    labels = [" "] * width
    for col in range(n):
        for slot in range(1, dims + 1):
            ticks[x_of(col, slot)] = str(slot % 10)
        label = _node_label(net, col)[:dims]
        for k, ch in enumerate(label):
            labels[col * step + k] = ch

    lines = ["".join(r).rstrip() for r in grid]
    lines.append("".join(ticks).rstrip())
    lines.append("".join(labels).rstrip())
    lines.append("")
    lines.append(f"tracks: {assignment.track_count}  channel density: {assignment.density}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return f"{value:g}"


def render_svg(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """Standalone SVG drawing of the routed row, colored by dimension."""
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    cw, ch = spec.cell_width, spec.cell_height
    margin = 2 * cw
    ntracks = assignment.track_count if spec.show_tracks else 0
    node_top = margin + (ntracks + 1) * ch
    width = 2 * margin + n * step * cw
    height = node_top + 2 * ch + margin

    # Ticks and wire ends share their coordinates' text.  Terminal ``slot``
    # of column ``col`` sits in sub-column ``col * step + slot - 1``.
    xs = cache(lambda sub: _fmt(margin + sub * cw + cw / 2))
    ys = cache(lambda track: _fmt(margin + (ntracks - 1 - track) * ch + ch / 2))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{n}-node row, {net.placement.value} placement, {net.mode.value} '
        f"terminals, {assignment.track_count} tracks</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    tick_end = node_top + ch // 3
    for col in range(n):
        x = margin + col * step * cw
        parts.append(
            f'<rect x="{x}" y="{node_top}" width="{dims * cw}" height="{2 * ch}" '
            'fill="#f2f2f2" stroke="black"/>'
        )
        parts += [
            f'<line x1="{sx}" y1="{node_top}" x2="{sx}" y2="{tick_end}" stroke="black"/>'
            for sx in map(xs, range(col * step, col * step + dims))
        ]
        parts.append(
            f'<text x="{_fmt(x + dims * cw / 2)}" y="{node_top + ch + ch // 2}" '
            'font-family="monospace" font-size="'
            f'{ch}" text-anchor="middle">{_node_label(net, col)}</text>'
        )

    if spec.show_tracks:
        by_wire = assignment.by_wire
        for w in net.wires:
            dim, left, right, left_slot, right_slot = w
            color = _DIM_COLORS[(dim - 1) % len(_DIM_COLORS)]
            y = ys(by_wire[w])
            xa = xs(left * step + left_slot - 1)
            xb = xs(right * step + right_slot - 1)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
                f'{xa},{node_top} {xa},{y} {xb},{y} {xb},{node_top}"/>'
            )

    # The empty last part gives the final newline without copying the text.
    parts += ("</svg>", "")
    return "\n".join(parts)
