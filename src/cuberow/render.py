"""Text and SVG drawings of a routed row.

Both renderers share one geometry: every node occupies one sub-column per
terminal slot plus a trailing gap sub-column, tracks are stacked above the
node row (track 0 nearest the nodes), and each wire is a horizontal segment
on its track with vertical stubs dropping to its two terminals.  That
geometry is applied once, by :func:`_drawn`.  The assignment's reader
keeps every wire on a drawn track, and the netlist keeps it on the row.

SVG coordinates are exact at every cell size: a cell centre on a half
pixel is printed as an integer whole part and ".5", and whether it has
the half depends only on the parity of the cell size along its axis.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from cuberow.density import _checked_make
from cuberow.errors import LayoutError, RenderSizeError
from cuberow.netlist import Netlist, Placement, gray_code
from cuberow.routing import TrackAssignment, _tracks, channel_density, wire_intervals

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


class RenderSpec(namedtuple("RenderSpec", "cell_width cell_height show_tracks")):
    """Rendering knobs, a named tuple ``(cell_width, cell_height,
    show_tracks)``; cell sizes apply to SVG output only."""

    __slots__ = ()

    def __new__(cls, cell_width: int = 12, cell_height: int = 12, show_tracks: bool = True):
        # Plain integers, since the drawing's coordinates are computed exactly
        # in them and printed as they are: a bool would print as "True".
        if not all(type(size) is int and size > 0 for size in (cell_width, cell_height)):
            raise RenderSizeError(f"cell size must be positive integers, got {cell_width}x{cell_height}")
        # A bool, since any other value would pass for true or false.
        if type(show_tracks) is not bool:
            raise LayoutError(f"show_tracks must be a bool, got {show_tracks!r}")
        return tuple.__new__(cls, (cell_width, cell_height, show_tracks))

    _make = _checked_make


def _node_label(net: Netlist, col: int) -> str:
    return str(gray_code(col) if net.placement is Placement.GRAY else col)


def _drawn(net: Netlist, assignment: TrackAssignment, spec: RenderSpec, tracks: list[int]):
    """The number of track rows drawn, and a generator of the drawn wires.

    Each wire comes as ``(dim, row, xa, xb)``: its dimension, its track row
    counted from the top (track 0 is the row nearest the nodes), and the
    sub-columns of its two terminals; terminal ``slot`` of column ``col``
    sits in sub-column ``col * (dims + 1) + slot - 1``.  ``tracks`` holds
    each wire's track in the netlist's order, as :func:`_tracks` reads them
    from the assignment; every drawing reads them so, with tracks hidden
    too, and so refuses what :func:`_tracks` refuses, a track outside
    ``0..rows-1`` among them.  With tracks hidden there are no rows and no
    wires.  The netlist's wires lie on the row (see :class:`Netlist`), so
    the generator cannot raise.
    """
    rows, wires = assignment.track_count, net.wires
    if not spec.show_tracks:
        return 0, ()
    step = net.row.dims + 1
    drawn = (
        (dim, rows - 1 - track, left * step + left_slot - 1, right * step + right_slot - 1)
        for (dim, left, right, left_slot, right_slot), track in zip(wires, tracks)
    )
    return rows, drawn


def render_text(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """ASCII drawing: track rows over a terminal-tick row and node labels."""
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    width = n * step
    if width > MAX_TEXT_COLUMNS:
        raise RenderSizeError(
            f"text rendering needs {width} columns, cap is {MAX_TEXT_COLUMNS}"
        )
    rows, wires = _drawn(net, assignment, spec, _tracks(assignment, net.wires))
    # A grid row per track: a hand-made count is capped as the width is.
    if rows > MAX_TEXT_COLUMNS:
        raise RenderSizeError(f"text rendering needs {rows} track rows, cap is {MAX_TEXT_COLUMNS}")
    wires = list(wires)  # walked twice
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
    # The channel's own density, not the record's unchecked field.
    lines.append(f"tracks: {assignment.track_count}  channel density: {channel_density(wire_intervals(net))}")
    return "\n".join(lines) + "\n"


def render_svg(net: Netlist, assignment: TrackAssignment, spec: RenderSpec = RenderSpec()) -> str:
    """Standalone SVG drawing of the routed row, colored by dimension.

    Cell centres fall on half pixels.  Whether a coordinate has a half is the
    same across the drawing for each kind of coordinate: every x has one
    when the cell width is odd, every y when the cell height is, and every
    node label's x when ``dims`` times the cell width is.  So a coordinate
    is printed exactly as its whole part, an integer, and that suffix.
    """
    return "".join(_svg_lines(net, assignment, spec, _tracks(assignment, net.wires)))


def _svg_lines(net: Netlist, assignment: TrackAssignment, spec: RenderSpec, tracks: list[int]) -> Iterator[str]:
    """The lines of :func:`render_svg`'s drawing, each ending in its
    newline: the header, then the node columns, then the wires.  ``tracks``
    is as for :func:`_drawn`; every check runs before this returns."""
    n, dims = net.row.n, net.row.dims
    step = dims + 1
    cw, ch = spec.cell_width, spec.cell_height
    margin = 2 * cw
    rows, wires = _drawn(net, assignment, spec, tracks)
    node_top = margin + (rows + 1) * ch
    width = 2 * margin + n * step * cw
    height = node_top + 2 * ch + margin
    xs, ys, ls = (".5" if size % 2 else "" for size in (cw, ch, dims * cw))
    # The whole parts of the centres of sub-column 0 and of track row 0.
    x0, y0 = margin + cw // 2, margin + ch // 2

    def lines():
        yield (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<title>{n}-node row, {net.placement.value} placement, {net.mode.value} '
            f"terminals, {assignment.track_count} tracks</title>\n"
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
        )
        tick_end = node_top + ch // 3
        tick = f'<line x1="{{0}}{xs}" y1="{node_top}" x2="{{0}}{xs}" y2="{tick_end}" stroke="black"/>\n'.format
        for col in range(n):
            x = margin + col * step * cw
            yield (
                f'<rect x="{x}" y="{node_top}" width="{dims * cw}" height="{2 * ch}" '
                'fill="#f2f2f2" stroke="black"/>\n'
            )
            first = x0 + col * step * cw
            yield from map(tick, range(first, first + dims * cw, cw))
            yield (
                f'<text x="{x + dims * cw // 2}{ls}" y="{node_top + ch + ch // 2}" '
                'font-family="monospace" font-size="'
                f'{ch}" text-anchor="middle">{_node_label(net, col)}</text>\n'
            )
        # Each coordinate's text is made once and printed twice.
        for dim, row, xa, xb in wires:
            y, xa, xb = str(y0 + row * ch), str(x0 + xa * cw), str(x0 + xb * cw)
            color = _DIM_COLORS[(dim - 1) % len(_DIM_COLORS)]
            yield (
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
                f'{xa}{xs},{node_top} {xa}{xs},{y}{ys} {xb}{xs},{y}{ys} {xb}{xs},{node_top}"/>\n'
            )
        yield "</svg>\n"

    return lines()
