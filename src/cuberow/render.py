"""Text and SVG drawings of a routed row.

Both renderers share one geometry: every node occupies one sub-column per
terminal slot plus a trailing gap sub-column, tracks are stacked above the
node row (track 0 nearest the nodes), and each wire is a horizontal segment
on its track with vertical stubs dropping to its two terminals.  That
geometry is stated once, by :func:`_drawn`.
"""

from __future__ import annotations

from dataclasses import dataclass

from cuberow.errors import LayoutError, RenderSizeError
from cuberow.netlist import Netlist, Placement, gray_code
from cuberow.routing import TrackAssignment, _tracks

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
        # Integers, since the drawing's coordinates are computed exactly in them.
        if not all(isinstance(size, int) and size > 0 for size in (self.cell_width, self.cell_height)):
            raise RenderSizeError(
                f"cell size must be positive integers, got {self.cell_width}x{self.cell_height}"
            )


def _node_label(net: Netlist, col: int) -> str:
    return str(gray_code(col) if net.placement is Placement.GRAY else col)


def _drawn(net: Netlist, assignment: TrackAssignment, spec: RenderSpec):
    """The number of track rows drawn, and a generator of the drawn wires.

    Each wire comes as ``(dim, row, xa, xb)``: its dimension, its track row
    counted from the top (track 0 is the row nearest the nodes), and the
    sub-columns of its two terminals; terminal ``slot`` of column ``col``
    sits in sub-column ``col * (dims + 1) + slot - 1``.  With tracks hidden
    there are no rows and no wires.
    """
    if not spec.show_tracks:
        return 0, ()
    rows, wires, step = assignment.track_count, net.wires, net.row.dims + 1
    return rows, (
        (
            w.dim,
            rows - 1 - track,
            w.left_col * step + w.left_slot - 1,
            w.right_col * step + w.right_slot - 1,
        )
        for w, track in zip(wires, _tracks(assignment, wires))
    )


def render_text(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """ASCII drawing: track rows over a terminal-tick row and node labels."""
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    width = n * step
    if width > MAX_TEXT_COLUMNS:
        raise RenderSizeError(
            f"text rendering needs {width} columns, cap is {MAX_TEXT_COLUMNS}"
        )
    rows, wires = _drawn(net, assignment, spec)
    wires = list(wires)  # walked twice
    stray = next((r for _, r, _, _ in wires if not 0 <= r < rows), None)
    if stray is not None:
        # A row drawn above or below the grid; a negative index would wrap.
        raise LayoutError(f"track {rows - 1 - stray} outside 0..{rows - 1}")
    grid = [[" "] * width for _ in range(rows)]

    # Horizontal spans first, then stubs; stubs crossing a foreign span
    # become '+' so the weave stays readable.
    for _, r, xa, xb in wires:
        for x in range(xa, xb + 1):
            grid[r][x] = "-"
    for _, r, xa, xb in wires:
        grid[r][xa] = "+"
        grid[r][xb] = "+"
        for rr in range(r + 1, rows):
            for x in (xa, xb):
                grid[rr][x] = "+" if grid[rr][x] == "-" else "|"

    # Each column's slots 1..dims, then its gap sub-column.
    ticks = ("".join(str(slot % 10) for slot in range(1, dims + 1)) + " ") * n
    labels = "".join(_node_label(net, col)[:dims].ljust(step) for col in range(n))

    lines = ["".join(r).rstrip() for r in grid]
    lines.append(ticks.rstrip())
    lines.append(labels.rstrip())
    lines.append("")
    lines.append(f"tracks: {assignment.track_count}  channel density: {assignment.density}")
    return "\n".join(lines) + "\n"


def _half(twice: int) -> str:
    """The exact decimal text of ``twice / 2``: an integer or one ending in .5."""
    whole, odd = divmod(abs(twice), 2)
    return ("-" if twice < 0 else "") + str(whole) + (".5" if odd else "")


def render_svg(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """Standalone SVG drawing of the routed row, colored by dimension.

    Cell centres fall on half pixels, so those coordinates are computed as
    integers equal to twice their value and printed exactly by :func:`_half`.
    """
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    cw, ch = spec.cell_width, spec.cell_height
    margin = 2 * cw
    rows, wires = _drawn(net, assignment, spec)
    node_top = margin + (rows + 1) * ch
    width = 2 * margin + n * step * cw
    height = node_top + 2 * ch + margin
    # Twice the centre of sub-column 0 and of track row 0.
    x0, y0 = 2 * margin + cw, 2 * margin + ch

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
        first = x0 + col * step * 2 * cw
        parts += [
            f'<line x1="{sx}" y1="{node_top}" x2="{sx}" y2="{tick_end}" stroke="black"/>'
            for sx in map(_half, range(first, first + dims * 2 * cw, 2 * cw))
        ]
        parts.append(
            f'<text x="{_half(2 * x + dims * cw)}" y="{node_top + ch + ch // 2}" '
            'font-family="monospace" font-size="'
            f'{ch}" text-anchor="middle">{_node_label(net, col)}</text>'
        )

    for dim, row, xa, xb in wires:
        color = _DIM_COLORS[(dim - 1) % len(_DIM_COLORS)]
        y = _half(y0 + row * 2 * ch)
        xa, xb = _half(x0 + xa * 2 * cw), _half(x0 + xb * 2 * cw)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
            f'{xa},{node_top} {xa},{y} {xb},{y} {xb},{node_top}"/>'
        )

    # The empty last part gives the final newline without copying the text.
    parts += ("</svg>", "")
    return "\n".join(parts)
