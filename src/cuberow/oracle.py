"""Brute-force ground truth for every density and track-count claim.

Everything here recomputes results by direct enumeration of the netlist's
wires, on purpose sharing nothing with the closed-form modules beyond the
netlist itself and the fine-cut coordinate conventions.  Tests compare the
two routes; agreement is the evidence, not either side alone.

The oracle is deliberately unclever.  Keep it that way.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate

from cuberow import kernels
from cuberow.errors import InvalidCutError, InvalidDimensionError, LayoutError, TooManyWiresError
from cuberow.netlist import Netlist, TerminalMode, fine_cut_count

# Largest instance the exhaustive track search takes; its cost grows
# exponentially in the wire count.
EXACT_SEARCH_WIRES = 24


def _check(what: str, value, low: int, top: int, error=InvalidCutError) -> None:
    # The oracle's own statement of its argument ranges.  A bool is an int,
    # but True would silently stand for 1, and a negative index would read
    # the table from its end.
    if type(value) is not int or not low <= value <= top:
        raise error(f"{what} must be an int in {low}..{top}, got {value!r}")


class CrossingTable(namedtuple("CrossingTable", "n dims counts")):
    """Crossing count at every fine cut of a routed row: a named tuple
    ``(n, dims, counts)``.

    ``counts[f]`` is the number of wires whose crossing range covers fine
    cut ``f``; gap and through-node cuts are addressed via the accessors,
    which refuse an argument that is not an int in range, a bool included,
    with :class:`InvalidCutError`.
    """

    __slots__ = ()

    def gap(self, cut: int) -> int:
        """Crossings at intercolumn position ``cut`` (0..n)."""
        _check("cut", cut, 0, self.n)
        return self.counts[cut * (self.dims + 1)]

    def node_cut(self, col: int, slot: int) -> int:
        """Crossings at the through-node cut right of ``slot`` (1..dims) on
        column ``col`` (0..n-1)."""
        _check("column", col, 0, self.n - 1)
        _check("terminal slot", slot, 1, self.dims)
        return self.counts[col * (self.dims + 1) + slot]

    def gap_profile(self) -> list[int]:
        """Intercolumn crossings for cuts 0..n, in order."""
        # counts has n * (dims + 1) + 1 entries, so this is cuts 0..n exactly.
        return list(self.counts[:: self.dims + 1])

    def interior_gap_max(self) -> int:
        """Largest intercolumn crossing count strictly inside the row."""
        return max(self.gap_profile()[1 : self.n], default=0)

    def gap_maximizers(self) -> list[int]:
        """Every interior intercolumn cut attaining :meth:`interior_gap_max`."""
        gaps = self.gap_profile()[1 : self.n]
        peak = max(gaps, default=0)
        return [cut for cut, count in enumerate(gaps, start=1) if count == peak]

    def fine_max(self) -> int:
        """Largest crossing count over every fine cut."""
        return max(self.counts, default=0)


def _fine_spans(net: Netlist) -> Iterator[tuple[int, int]]:
    """Every wire's fine span, in wire order.

    This is the oracle's own statement of what a wire blocks.  Free
    terminals: just the gaps strictly between the endpoint columns.  Pinned
    terminals: the wire is overhead from right of its left slot to left of
    its right slot.
    """
    step = net.row.dims + 1
    if net.mode is TerminalMode.FREE:
        return (((left + 1) * step, right * step) for _, left, right, _, _ in net.wires)
    return ((left * step + lslot, right * step + rslot - 1) for _, left, right, lslot, rslot in net.wires)


def crossing_profile(net: Netlist) -> CrossingTable:
    """Count, for every fine cut, the wires crossing it, one wire at a time.

    The netlist's wires are links of its row (see :class:`Netlist`), so
    every fine span lies on the row.
    """
    row = net.row
    counts = kernels.accumulate_spans(fine_cut_count(row), _fine_spans(net))
    return CrossingTable(row.n, row.dims, counts)


def brute_maximizers(net: Netlist) -> list[int]:
    """All interior intercolumn cuts attaining the profile maximum, by scan."""
    return crossing_profile(net).gap_maximizers()


def brute_link_count(net: Netlist, cut: int, dim: int) -> int:
    """Dimension-``dim`` wires crossing intercolumn ``cut``, by enumeration.

    A ``cut`` that is not an int in 0..n raises :class:`InvalidCutError`,
    and a ``dim`` that is not one in 1..dims :class:`InvalidDimensionError`,
    a bool included.
    """
    _check("cut", cut, 0, net.row.n)
    _check("dimension", dim, 1, net.row.dims, InvalidDimensionError)
    return sum(
        1 for w in net.wires if w.dim == dim and w.left_col < cut <= w.right_col
    )


def coverage_bound(intervals) -> int:
    """Largest number of intervals stacked on one cut, by endpoint sweep.

    Any assignment needs at least this many tracks.  For a netlist's own
    intervals it equals the :meth:`CrossingTable.fine_max` of its table.
    Intervals that are not a sequence, which the sweep reads twice, raise
    :class:`LayoutError`.
    """
    if not isinstance(intervals, Sequence):
        raise LayoutError(f"intervals must be a sequence such as a list, not {type(intervals).__name__}")
    events = sorted(
        [(iv.lo, 1) for iv in intervals] + [(iv.hi + 1, -1) for iv in intervals]
    )
    return max(accumulate(delta for _, delta in events), default=0)


def brute_track_count(intervals) -> int:
    """Exact minimum track count by exhaustive branch and bound.

    Assigns intervals in left-to-right order, trying every compatible
    existing track plus one fresh track, pruning branches that cannot beat
    the best complete assignment found so far.  No interval-graph shortcuts
    are taken; that independence is the point.  Instances above
    ``EXACT_SEARCH_WIRES`` wires raise :class:`TooManyWiresError`.
    """
    if len(intervals) > EXACT_SEARCH_WIRES:
        raise TooManyWiresError(
            f"{len(intervals)} wires exceed the exact-search cap of {EXACT_SEARCH_WIRES}"
        )
    order = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    best = len(order)  # one track per wire always works
    track_last: list[int] = []

    def place(index: int) -> None:
        nonlocal best
        if len(track_last) >= best:
            return
        if index == len(order):
            best = len(track_last)
            return
        iv = order[index]
        for track in range(len(track_last)):
            if track_last[track] < iv.lo:
                saved = track_last[track]
                track_last[track] = iv.hi
                place(index + 1)
                track_last[track] = saved
        track_last.append(iv.hi)
        place(index + 1)
        track_last.pop()

    if order:
        place(0)
        return best
    return 0
