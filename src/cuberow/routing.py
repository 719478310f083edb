"""Left-edge channel routing over the fine cutline coordinate system.

Every wire's crossing set is a contiguous range of fine cut indexes, so the
channel is an interval instance with no vertical constraints: the left-edge
greedy sweep packs the wires into exactly as many tracks as the channel
density, and :func:`verify_assignment` certifies both facts for any given
assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from cuberow.errors import IncompleteAssignmentError, LayoutError, NetlistFormatError
from cuberow.netlist import Netlist, TerminalMode, Wire, gap_cut_index, node_cut_index

__all__ = [
    "IntervalWire",
    "TrackAssignment",
    "RouteCertificate",
    "wire_intervals",
    "channel_density",
    "left_edge_route",
    "verify_assignment",
    "dump_assignment",
    "load_assignment",
]


@dataclass(frozen=True)
class IntervalWire:
    """A wire together with its inclusive range of crossed fine cuts."""

    wire: Wire
    lo: int
    hi: int

    def __post_init__(self):
        # Contiguity is a construction invariant, not a supported generality.
        if self.lo > self.hi:
            raise LayoutError(f"empty crossing range [{self.lo}, {self.hi}]")

    def overlaps(self, other: "IntervalWire") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class TrackAssignment:
    """Wire -> 0-based track index, with the realized track count."""

    by_wire: dict[Wire, int]
    track_count: int
    density: int


@dataclass(frozen=True)
class RouteCertificate:
    ok: bool
    reason: str = "ok"
    detail: str = ""
    offenders: tuple[Wire, ...] = field(default=())


def wire_intervals(net: Netlist) -> list[IntervalWire]:
    """Map each wire to the fine cuts it crosses.

    Free mode: only the intercolumn gaps strictly between the endpoints, so
    wires meeting at a node never conflict there.  Dimension-ordered mode:
    the range runs from just right of the wire's left terminal through the
    cut just left of its right terminal, covering the through-node cuts its
    overhead portion blocks at both endpoint nodes.
    """
    row = net.row
    out = []
    if net.mode is TerminalMode.FREE:
        for w in net.wires:
            lo = gap_cut_index(row, w.left_col + 1)
            hi = gap_cut_index(row, w.right_col)
            out.append(IntervalWire(w, lo, hi))
    else:
        for w in net.wires:
            lo = node_cut_index(row, w.left_col, w.left_slot)
            hi = node_cut_index(row, w.right_col, w.right_slot) - 1
            out.append(IntervalWire(w, lo, hi))
    return out


def channel_density(intervals: list[IntervalWire]) -> int:
    """Maximum number of intervals covering any single fine cut; 0 if empty."""
    events = []
    for iv in intervals:
        events.append((iv.lo, 1))
        events.append((iv.hi + 1, -1))
    events.sort()
    best = 0
    running = 0
    for _, delta in events:
        running += delta
        if running > best:
            best = running
    return best


def left_edge_route(intervals: list[IntervalWire]) -> TrackAssignment:
    """Greedy left-edge track assignment.

    Sweeps the intervals by left end (ties broken by right end, then by
    dimension and left column, for fully deterministic output) and drops
    each onto the lowest-indexed track that has gone quiet before the
    interval starts.  With contiguous crossing ranges and no vertical
    constraints this uses exactly ``channel_density`` tracks.
    """
    order = sorted(intervals, key=lambda iv: (iv.lo, iv.hi, iv.wire.dim, iv.wire.left_col))
    free_tracks: list[int] = []
    busy: list[tuple[int, int]] = []  # (hi, track)
    by_wire: dict[Wire, int] = {}
    next_track = 0
    for iv in order:
        while busy and busy[0][0] < iv.lo:
            _, track = heapq.heappop(busy)
            heapq.heappush(free_tracks, track)
        if free_tracks:
            track = heapq.heappop(free_tracks)
        else:
            track = next_track
            next_track += 1
        by_wire[iv.wire] = track
        heapq.heappush(busy, (iv.hi, track))
    return TrackAssignment(by_wire, next_track, channel_density(intervals))


def verify_assignment(intervals: list[IntervalWire], assignment: TrackAssignment) -> RouteCertificate:
    """Check an assignment against the channel's two obligations.

    Soundness: no two overlapping intervals share a track (first violating
    pair reported).  Tightness: the track count equals the channel density
    (gap reported otherwise).  A wire missing from the assignment raises
    :class:`IncompleteAssignmentError` instead of returning a certificate.
    """
    for iv in intervals:
        if iv.wire not in assignment.by_wire:
            raise IncompleteAssignmentError(f"no track assigned to wire {iv.wire}")

    per_track: dict[int, list[IntervalWire]] = {}
    for iv in intervals:
        track = assignment.by_wire[iv.wire]
        if not 0 <= track < assignment.track_count:
            return RouteCertificate(
                False,
                reason="track-range",
                detail=f"track {track} outside 0..{assignment.track_count - 1}",
                offenders=(iv.wire,),
            )
        per_track.setdefault(track, []).append(iv)

    for track in sorted(per_track):
        members = sorted(per_track[track], key=lambda iv: (iv.lo, iv.hi))
        for prev, cur in zip(members, members[1:]):
            if prev.hi >= cur.lo:
                return RouteCertificate(
                    False,
                    reason="overlap",
                    detail=f"track {track} holds overlapping spans "
                    f"[{prev.lo}, {prev.hi}] and [{cur.lo}, {cur.hi}]",
                    offenders=(prev.wire, cur.wire),
                )

    density = channel_density(intervals)
    if assignment.track_count != density:
        return RouteCertificate(
            False,
            reason="track-count",
            detail=f"{assignment.track_count} tracks used, channel density is {density}",
        )
    return RouteCertificate(True)


def dump_assignment(intervals: list[IntervalWire], assignment: TrackAssignment) -> str:
    """Text form, one canonical-order line per wire: ``dim left right track``."""
    rows = []
    for iv in sorted(intervals, key=lambda iv: (iv.wire.dim, iv.wire.left_col)):
        w = iv.wire
        rows.append(f"{w.dim} {w.left_col} {w.right_col} {assignment.by_wire[w]}")
    return "\n".join(rows) + ("\n" if rows else "")


def load_assignment(text: str) -> list[tuple[int, int, int, int]]:
    """Parse assignment text into (dim, left_col, right_col, track) tuples.

    A line without four fields, or with a field that is not a nonnegative
    integer, raises :class:`NetlistFormatError` naming the line.
    """
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise NetlistFormatError(f"bad assignment line {line!r}, want 4 fields")
        try:
            values = tuple(map(int, fields))
        except ValueError:
            raise NetlistFormatError(f"non-integer field in assignment line {line!r}") from None
        if min(values) < 0:
            raise NetlistFormatError(f"negative value in assignment line {line!r}")
        out.append(values)
    return out
