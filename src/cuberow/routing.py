"""Left-edge channel routing over the fine cutline coordinate system.

Every wire's crossing set is a contiguous range of fine cut indexes, so the
channel is an interval instance with no vertical constraints: the left-edge
greedy sweep packs the wires into exactly as many tracks as the channel
density, and :func:`verify_assignment` certifies both facts for any given
assignment.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import partial
from heapq import heappop, heappush
from itertools import count, repeat
from operator import add, itemgetter, mul, sub

from cuberow.density import _checked_make
from cuberow.errors import IncompleteAssignmentError, LayoutError
from cuberow.netlist import (
    Netlist,
    TerminalMode,
    Wire,
    _left_col,
    _left_slot,
    _right_col,
    _right_slot,
    _rows,
    gap_cut_index,
)

_wires = itemgetter(0)
_lows = itemgetter(1)
_highs = itemgetter(2)


_IntervalFields = namedtuple("_IntervalFields", "wire lo hi")


class IntervalWire(_IntervalFields):
    """A wire together with its inclusive range of crossed fine cuts.

    A named tuple ``(wire, lo, hi)``: intervals sort into the canonical
    order of their wires.  An ``lo`` or ``hi`` that is not a plain int, a
    bool included, or an empty range raises :class:`LayoutError`.
    :meth:`overlaps` is public API, kept for callers that test a pair of
    intervals, though the router and the certificate do not call it.
    """

    __slots__ = ()

    def __new__(cls, wire: Wire, lo: int, hi: int):
        if type(lo) is not int or type(hi) is not int:
            raise LayoutError(f"crossing range ends must be plain ints, got ({lo!r}, {hi!r})")
        # Contiguity is a construction invariant, not a supported generality.
        if lo > hi:
            raise LayoutError(f"empty crossing range [{lo}, {hi}]")
        return tuple.__new__(cls, (wire, lo, hi))

    _make = _checked_make

    def overlaps(self, other: "IntervalWire") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


# Builds an IntervalWire from a tuple of its fields without the range check,
# for callers that have already made sure lo <= hi.
_new_interval = partial(tuple.__new__, IntervalWire)


class TrackAssignment(namedtuple("TrackAssignment", "by_wire track_count density")):
    """Wire -> 0-based track index, with the realized track count: a named
    tuple ``(by_wire, track_count, density)``, ``by_wire`` a dict keyed by
    :class:`Wire`."""

    __slots__ = ()


class RouteCertificate(
    namedtuple("RouteCertificate", "ok reason detail offenders", defaults=("ok", "", ()))
):
    """The verdict of :func:`verify_assignment`: a named tuple ``(ok, reason,
    detail, offenders)``, whose last three default to ``"ok"``, ``""`` and
    ``()``."""

    __slots__ = ()


def _sequence(intervals) -> None:
    """Refuse intervals that are not a sequence, which a reader that takes them twice would find used up."""
    if not isinstance(intervals, Sequence):
        raise LayoutError(f"intervals must be a sequence such as a list, not {type(intervals).__name__}")


def _tracks(assignment: TrackAssignment, wires) -> list[int]:
    """Each wire's track, in the order given.  A wire missing from the
    assignment raises :class:`IncompleteAssignmentError`, and a track, a
    track count or a density that is not a plain int, a bool included, a
    negative track count, or a track outside ``0..track_count-1``, raises
    :class:`LayoutError`: the first such wire or track in the order given."""
    track_count = assignment.track_count
    if type(track_count) is not int:
        raise LayoutError(f"track count {track_count!r} is not an int")
    if track_count < 0:
        raise LayoutError(f"track count {track_count} is negative")
    if type(assignment.density) is not int:
        raise LayoutError(f"channel density {assignment.density!r} is not an int")
    try:
        tracks = list(map(assignment.by_wire.__getitem__, wires))
    except KeyError as exc:
        raise IncompleteAssignmentError(f"no track assigned to wire {exc.args[0]}") from None
    if not {int}.issuperset(map(type, tracks)):
        track = next(t for t in tracks if type(t) is not int)
        raise LayoutError(f"track {track!r} is not an int")
    if tracks and not (0 <= min(tracks) and max(tracks) < track_count):
        track = next(t for t in tracks if not 0 <= t < track_count)
        raise LayoutError(f"track {track} outside 0..{track_count - 1}")
    return tracks


def wire_intervals(net: Netlist) -> list[IntervalWire]:
    """Map each wire to the fine cuts it crosses, in the netlist's order.

    Free mode: only the intercolumn gaps strictly between the endpoints, so
    wires meeting at a node never conflict there.  Dimension-ordered mode:
    the range runs from just right of the wire's left terminal through the
    cut just left of its right terminal, covering the through-node cuts its
    overhead portion blocks at both endpoint nodes.

    The netlist's wires are links of its row (see :class:`Netlist`), so
    every range is non-empty and lies on the row's fine cuts.
    """
    # Fine index of gap ``cut`` is cut * step, of slot ``s`` on column
    # ``col`` is col * step + s (see cuberow.netlist).
    step = gap_cut_index(net.row, 1)
    wires = net.wires
    lefts = map(mul, map(_left_col, wires), repeat(step))
    rights = map(mul, map(_right_col, wires), repeat(step))
    if net.mode is TerminalMode.FREE:
        lows, highs = map(add, lefts, repeat(step)), rights
    else:
        lows = map(add, lefts, map(_left_slot, wires))
        highs = map(add, rights, map(sub, map(_right_slot, wires), repeat(1)))
    return list(map(_new_interval, zip(wires, lows, highs)))


def channel_density(intervals: Sequence[IntervalWire]) -> int:
    """Maximum number of intervals covering any single fine cut; 0 if empty."""
    _sequence(intervals)
    # Coverage peaks at some left end.  At the k-th smallest left end (k from
    # 1) it is k minus the intervals that have already ended before it.
    lows = sorted(map(_lows, intervals))
    highs = sorted(map(_highs, intervals))
    best = done = 0
    for k, lo in enumerate(lows, 1):
        while highs[done] < lo:  # an IntervalWire has lo <= hi: done stays below k, inside highs
            done += 1
        if k - done > best:
            best = k - done
    return best


def left_edge_route(intervals: Sequence[IntervalWire]) -> TrackAssignment:
    """Greedy left-edge track assignment.

    Sweeps the intervals by left end, ties broken by right end and then by
    dimension and left column, in any input order alike, and drops each
    onto the lowest-indexed track that has gone quiet before the interval
    starts.  With contiguous crossing ranges and no vertical constraints
    this uses exactly ``channel_density`` tracks.
    """
    _sequence(intervals)
    lows = list(map(_lows, intervals))
    highs = list(map(_highs, intervals))
    # Positions in canonical order, whatever the input's, then stably by right end (``ends[done]``
    # is the next to finish), then by left end: the sweep order (lo, hi, canonical).  An interval
    # ending before ``lo`` started before it; ``opened``'s next value is the count of new tracks.
    ends = sorted(range(len(lows)), key=intervals.__getitem__)
    ends.sort(key=highs.__getitem__)
    swept = sorted(ends, key=lows.__getitem__)
    tracks, free_tracks, opened, done = [0] * len(lows), [], count(), 0
    for lo, i in zip(map(lows.__getitem__, swept), swept):
        while highs[ends[done]] < lo:
            heappush(free_tracks, tracks[ends[done]])
            done += 1
        tracks[i] = heappop(free_tracks) if free_tracks else next(opened)
    del lows, highs, ends, swept  # freed before the dict is made, which they would outlast
    return TrackAssignment(dict(zip(map(_wires, intervals), tracks)), next(opened), channel_density(intervals))


def verify_assignment(intervals: Sequence[IntervalWire], assignment: TrackAssignment) -> RouteCertificate:
    """Check an assignment against the channel's two obligations.

    Soundness: no two overlapping intervals share a track.  One sweep of
    the intervals in ``(lo, hi)`` order, ties in input order, decides it
    and names the pair: on each track it compares each interval with the
    one before it there, and the first overlapping pair of the lowest track
    that has one is reported.  Tightness: the track count equals the channel density (gap
    reported otherwise).  A record that :func:`_tracks` refuses, a wire
    without a track or a track out of range among them, raises instead of
    returning a certificate.
    """
    _sequence(intervals)
    _tracks(assignment, map(_wires, intervals))  # dropped before the sorts, which set the peak

    # Two stable sorts of the records put them in (lo, hi, input order)
    # with no key tuple per interval.  The records kept are one per track in
    # use, whatever the track numbers: its latest interval, and its first
    # overlapping pair.
    swept = sorted(intervals, key=_highs)
    swept.sort(key=_lows)
    by_wire = assignment.by_wire
    latest: dict[int, IntervalWire] = {}
    first: dict[int, tuple[IntervalWire, IntervalWire]] = {}
    for iv in swept:
        track = by_wire[iv.wire]
        prev = latest.get(track)
        if prev is not None and prev.hi >= iv.lo:
            first.setdefault(track, (prev, iv))
        latest[track] = iv
    del swept, latest
    if first:
        track = min(first)
        prev, cur = first[track]
        return RouteCertificate(
            False,
            reason="overlap",
            detail=f"track {track} holds overlapping spans "
            f"[{prev.lo}, {prev.hi}] and [{cur.lo}, {cur.hi}]",
            offenders=(prev.wire, cur.wire),
        )

    density, track_count = channel_density(intervals), assignment.track_count
    if track_count != density:
        return RouteCertificate(
            False,
            reason="track-count",
            detail=f"{track_count} tracks used, channel density is {density}",
        )
    return RouteCertificate(True)


def _assignment_lines(wires, tracks) -> Iterator[str]:
    """The lines of the assignment text, each ending in its newline, for
    ``wires`` in canonical order and each one's track."""
    return (f"{w.dim} {w.left_col} {w.right_col} {t}\n" for w, t in zip(wires, tracks))


def dump_assignment(intervals: list[IntervalWire], assignment: TrackAssignment) -> str:
    """Text form, one canonical-order line per wire: ``dim left right track``."""
    wires = list(map(_wires, sorted(intervals)))
    return "".join(_assignment_lines(wires, _tracks(assignment, wires)))


def load_assignment(text: str) -> list[tuple[int, int, int, int]]:
    """Parse assignment text into (dim, left_col, right_col, track) tuples.

    A line without four fields, or with a field that is not a run of ASCII
    digits or is too long to parse, raises :class:`NetlistFormatError`
    naming the line.
    """
    return list(_rows(text, 0, filter(str.strip, text.splitlines()), "assignment", 4))
