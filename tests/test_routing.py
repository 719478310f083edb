"""Interval extraction, channel density, the left-edge router, and the
assignment verifier."""

import gc
import heapq
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import count
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cuberow
from cuberow.density import HypercubeRow, max_cut_density
from cuberow.errors import IncompleteAssignmentError, LayoutError, NetlistFormatError
from cuberow.netlist import Placement, TerminalMode, Wire, build_netlist, dump_netlist, load_netlist
from cuberow.oracle import brute_track_count, coverage_bound
from cuberow.routing import (
    IntervalWire,
    RouteCertificate,
    TrackAssignment,
    channel_density,
    dump_assignment,
    left_edge_route,
    load_assignment,
    verify_assignment,
    wire_intervals,
)


def _intervals(n, placement=Placement.NORMAL, mode=TerminalMode.FREE):
    return wire_intervals(build_netlist(HypercubeRow(n), placement, mode))


def _find(intervals, dim, left_col):
    for iv in intervals:
        if iv.wire.dim == dim and iv.wire.left_col == left_col:
            return iv
    raise AssertionError(f"no wire dim={dim} left={left_col}")


class TestWireIntervals:
    def test_two_node_row_covers_single_gap(self):
        (iv,) = _intervals(2)
        assert (iv.lo, iv.hi) == (2, 2)  # the one interior gap, fine index 1*(1+1)

    def test_free_mode_span(self):
        iv = _find(_intervals(8), 3, 0)
        assert (iv.lo, iv.hi) == (4, 16)  # gaps 1 through 4 in fine coordinates

    def test_dim_ordered_span(self):
        iv = _find(_intervals(8, mode=TerminalMode.DIM_ORDERED), 1, 4)
        assert (iv.lo, iv.hi) == (17, 20)  # slot 1 of column 4 .. gap before column 5

    def test_free_endpoints_do_not_conflict_at_shared_node(self):
        ivs = _intervals(8)
        left = _find(ivs, 3, 0)  # columns 0..4
        right = _find(ivs, 1, 4)  # columns 4..5
        assert not left.overlaps(right)

    def test_dim_ordered_incoming_blocks_smaller_outgoing(self):
        ivs = _intervals(8, mode=TerminalMode.DIM_ORDERED)
        incoming = _find(ivs, 3, 0)  # drops into slot 3 of column 4
        outgoing = _find(ivs, 1, 4)  # rises from slot 1 of column 4
        assert incoming.overlaps(outgoing)

    def test_rejects_reversed_range(self):
        with pytest.raises(LayoutError):
            IntervalWire(Wire(1, 0, 1, 1, 1), 5, 4)

    def test_rejects_reversed_range_on_every_path(self):
        w = Wire(1, 0, 1, 1, 1)
        with pytest.raises(LayoutError):
            IntervalWire(wire=w, lo=5, hi=4)
        with pytest.raises(LayoutError):
            IntervalWire._make((w, 5, 4))
        with pytest.raises(LayoutError):
            IntervalWire(w, 4, 5)._replace(lo=6)

    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_intervals_follow_the_netlist_order(self, mode):
        net = build_netlist(HypercubeRow(64), Placement.GRAY, mode)
        ivs = wire_intervals(net)
        assert [iv.wire for iv in ivs] == list(net.wires)
        assert sorted(ivs) == ivs


class TestIntervalRecord:
    def test_fields(self):
        w = Wire(1, 0, 1, 1, 1)
        iv = IntervalWire(w, -2, 3)
        assert iv._fields == ("wire", "lo", "hi")
        assert (iv.wire, iv.lo, iv.hi) == (w, -2, 3)
        assert iv == (w, -2, 3) and iv == ((1, 0, 1, 1, 1), -2, 3)

    def test_immutable(self):
        iv = IntervalWire(Wire(1, 0, 1, 1, 1), 0, 3)
        for name in ("wire", "lo", "hi", "extra"):
            with pytest.raises(AttributeError):
                setattr(iv, name, 9)

    def test_hashable_dict_key(self):
        a = IntervalWire(Wire(1, 0, 1, 1, 1), 0, 3)
        b = IntervalWire(Wire(1, 0, 1, 1, 1), 0, 3)
        assert a is not b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b, a._replace(hi=4)}) == 2

    def test_overlaps_is_inclusive(self):
        w = Wire(1, 0, 1, 1, 1)
        assert IntervalWire(w, 0, 3).overlaps(IntervalWire(w, 3, 5))
        assert not IntervalWire(w, 0, 2).overlaps(IntervalWire(w, 3, 5))
        assert IntervalWire(w, -1, -1).overlaps(IntervalWire(w, -4, 8))

    @pytest.mark.parametrize("bad", ["3", 3.0, True, None], ids=["str", "float", "bool", "none"])
    @pytest.mark.parametrize("field", ["lo", "hi"])
    @pytest.mark.parametrize(
        "reader",
        [
            channel_density,
            left_edge_route,
            lambda intervals: verify_assignment(intervals, left_edge_route(intervals)),
            lambda intervals: dump_assignment(intervals, left_edge_route(intervals)),
        ],
        ids=["channel_density", "left_edge_route", "verify_assignment", "dump_assignment"],
    )
    def test_no_reader_gets_a_range_end_that_is_not_an_int(self, reader, field, bad):
        # Unchecked, IntervalWire(w, 0, "3") raised a bare TypeError, and a
        # bool end passed as 0 or 1.  Every way of making the record refuses
        # it, so no reader of intervals is handed one.
        iv = _intervals(2)[0]
        lo, hi = (bad, iv.hi) if field == "lo" else (iv.lo, bad)
        message = f"^crossing range ends must be plain ints, got {re.escape(repr((lo, hi)))}$"
        for make in (
            lambda: IntervalWire(iv.wire, lo, hi),
            lambda: IntervalWire._make((iv.wire, lo, hi)),
            lambda: iv._replace(**{field: bad}),
        ):
            with pytest.raises(LayoutError, match=message):
                reader([make()])


class TestChannelDensity:
    def test_empty(self):
        assert channel_density([]) == 0

    def test_frozen_examples(self):
        assert channel_density(_intervals(8)) == 5
        assert channel_density(_intervals(8, mode=TerminalMode.DIM_ORDERED)) == 6

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_free_density_equals_peak_cut_density(self, d, placement):
        row = HypercubeRow(2**d)
        assert channel_density(_intervals(row.n, placement)) == max_cut_density(row)

    def test_agrees_with_oracle_sweep(self):
        for n in (2, 4, 8, 16, 32):
            for mode in TerminalMode:
                ivs = _intervals(n, mode=mode)
                assert channel_density(ivs) == coverage_bound(ivs)

    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_refuses_intervals_that_are_not_a_sequence(self, mode):
        # An iterator would be used up by the first of the two sorts.
        ivs = _intervals(8, Placement.GRAY, mode)
        assert channel_density(tuple(ivs)) == channel_density(ivs)
        with pytest.raises(LayoutError, match="intervals must be a sequence such as a list, not list_iterator"):
            channel_density(iter(ivs))


class TestLeftEdgeRoute:
    def test_single_wire(self):
        ivs = _intervals(2)
        assignment = left_edge_route(ivs)
        assert assignment.track_count == 1
        assert assignment.by_wire[ivs[0].wire] == 0

    def test_frozen_track_counts(self):
        assert left_edge_route(_intervals(8)).track_count == 5
        assert left_edge_route(_intervals(8, mode=TerminalMode.DIM_ORDERED)).track_count == 6

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_track_count_equals_density(self, d, placement, mode):
        ivs = _intervals(2**d, placement, mode)
        assignment = left_edge_route(ivs)
        assert assignment.track_count == assignment.density == channel_density(ivs)
        assert verify_assignment(ivs, assignment).ok

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_known_track_counts_to_1024_nodes(self, d, placement):
        row = HypercubeRow(2**d)
        peak = max_cut_density(row)
        free = left_edge_route(_intervals(row.n, placement, TerminalMode.FREE))
        assert free.track_count == peak
        ordered = left_edge_route(_intervals(row.n, placement, TerminalMode.DIM_ORDERED))
        assert ordered.track_count == (1 if row.n == 2 else peak + 1)

    def test_input_order_does_not_matter(self):
        base = _intervals(16, mode=TerminalMode.DIM_ORDERED)
        reference = left_edge_route(base)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(base)
            rng.shuffle(shuffled)
            assert left_edge_route(shuffled).by_wire == reference.by_wire

    def test_repeated_runs_identical(self):
        ivs = _intervals(32)
        assert left_edge_route(ivs) == left_edge_route(ivs)

    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_refuses_intervals_that_are_not_a_sequence(self, mode):
        # The router reads its intervals more than once: a reversed iterator
        # routed 9 of 12 wires, and a map none, with no error.
        ivs = _intervals(8, Placement.GRAY, mode)
        assert left_edge_route(tuple(ivs[::-1])) == left_edge_route(ivs)
        for one_shot in (reversed(ivs), map(IntervalWire._make, ivs), iter(ivs)):
            with pytest.raises(LayoutError, match=f"not {type(one_shot).__name__}$"):
                left_edge_route(one_shot)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_instances_route_at_density(self, data):
        count = data.draw(st.integers(0, 12))
        intervals = []
        for k in range(count):
            lo = data.draw(st.integers(0, 40))
            hi = lo + data.draw(st.integers(0, 15))
            intervals.append(IntervalWire(Wire(1, k, k + 1, 1, 1), lo, hi))
        assignment = left_edge_route(intervals)
        density = channel_density(intervals)
        assert assignment.track_count == density
        assert assignment.track_count == brute_track_count(intervals)
        if intervals:
            assert verify_assignment(intervals, assignment).ok


def _reference_route(intervals):
    """The left-edge sweep as first written: wires ordered by the key
    (lo, hi, dim, left_col), each dropped on the lowest quiet track."""
    order = sorted(intervals, key=lambda iv: (iv.lo, iv.hi, iv.wire.dim, iv.wire.left_col))
    free_tracks, busy, by_wire = [], [], {}
    next_track = 0
    for iv in order:
        while busy and busy[0][0] < iv.lo:
            heapq.heappush(free_tracks, heapq.heappop(busy)[1])
        if free_tracks:
            track = heapq.heappop(free_tracks)
        else:
            track, next_track = next_track, next_track + 1
        by_wire[iv.wire] = track
        heapq.heappush(busy, (iv.hi, track))
    return by_wire


@st.composite
def _interval_sets(draw):
    """Intervals on distinct wires, with spans drawn from a narrow window so
    that tied ends, touching ends, negative ends and repeated spans are
    common."""
    keys = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30)), max_size=40, unique=True))
    spans = []
    intervals = []
    for dim, left in keys:
        if spans and draw(st.booleans()):
            lo, hi = draw(st.sampled_from(spans))
        else:
            lo = draw(st.integers(-6, 12))
            hi = lo + draw(st.integers(0, 5))
        spans.append((lo, hi))
        right = left + draw(st.integers(1, 3))
        slot = draw(st.integers(1, 4))
        intervals.append(IntervalWire(Wire(dim, left, right, slot, slot), lo, hi))
    return intervals


class TestSweepAgainstReference:
    @given(_interval_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_same_tracks_as_reference_sweep(self, intervals, rng):
        rng.shuffle(intervals)
        assignment = left_edge_route(intervals)
        assert assignment.by_wire == _reference_route(intervals)
        assert assignment.track_count == len(set(assignment.by_wire.values()))
        assert verify_assignment(intervals, assignment).ok

    @given(_interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_channel_density_equals_coverage_bound(self, intervals):
        assert channel_density(intervals) == coverage_bound(intervals)

    def test_ties_follow_dim_then_left_column(self):
        # Same span everywhere: the sweep order is the wires' canonical order.
        wires = [Wire(2, 0, 2, 2, 2), Wire(1, 5, 6, 1, 1), Wire(1, 3, 4, 1, 1), Wire(2, 1, 3, 2, 2)]
        intervals = [IntervalWire(w, -3, -3) for w in wires]
        by_wire = left_edge_route(intervals).by_wire
        assert [by_wire[w] for w in sorted(wires)] == [0, 1, 2, 3]
        assert by_wire == _reference_route(intervals)

    def test_tied_spans_route_alike_in_any_input_order(self):
        # The router ranks the input's positions in canonical wire order
        # before its sweep, so that order, not the input's, breaks (lo, hi) ties.
        wires = [Wire(1, 0, 1, 1, 1), Wire(1, 2, 3, 1, 1), Wire(2, 0, 2, 2, 2), Wire(2, 1, 3, 2, 2), Wire(3, 0, 4, 3, 3)]
        spans = [(0, 4), (2, 6), (0, 4), (2, 6), (5, 9)]
        intervals = [IntervalWire(w, lo, hi) for w, (lo, hi) in zip(wires, spans)]
        in_order = left_edge_route(intervals)
        assert in_order.by_wire == _reference_route(intervals)
        assert [in_order.by_wire[w] for w in wires] == [0, 2, 1, 3, 0]
        rng = random.Random(11)
        orders = [intervals[::-1]] + [rng.sample(intervals, len(intervals)) for _ in range(5)]
        for order in orders:
            assert left_edge_route(order) == in_order

    @pytest.mark.parametrize("mode", list(TerminalMode))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_reversed_netlist_intervals_route_as_in_order(self, placement, mode):
        for k in range(1, 11):
            intervals = _intervals(2**k, placement, mode)
            routed = left_edge_route(intervals[::-1])
            assert routed == left_edge_route(intervals)
            assert routed.by_wire == _reference_route(intervals)


class TestVerifyAssignment:
    def test_ok_certificate(self):
        ivs = _intervals(8)
        cert = verify_assignment(ivs, left_edge_route(ivs))
        assert cert.ok and cert.reason == "ok"

    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_refuses_intervals_that_are_not_a_sequence(self, mode):
        # An iterator used up by the track lookup left an empty channel: a
        # false track-count verdict, "channel density is 0".
        ivs = _intervals(8, Placement.GRAY, mode)
        assignment = left_edge_route(ivs)
        assert verify_assignment(tuple(ivs), assignment).ok
        with pytest.raises(LayoutError, match="intervals must be a sequence such as a list, not list_iterator"):
            verify_assignment(iter(ivs), assignment)

    def test_detects_forced_overlap(self):
        ivs = _intervals(4)
        overlapping = [iv for iv in ivs if iv.wire.dim == 2]
        assert overlapping[0].overlaps(overlapping[1])
        by_wire = {iv.wire: 0 for iv in ivs}
        cert = verify_assignment(ivs, TrackAssignment(by_wire, 1, channel_density(ivs)))
        assert not cert.ok
        assert cert.reason == "overlap"
        assert len(cert.offenders) == 2

    def test_reports_wasted_track(self):
        ivs = _intervals(8)
        good = left_edge_route(ivs)
        lifted = dict(good.by_wire)
        lifted[ivs[0].wire] = good.track_count  # park one wire on a fresh track
        cert = verify_assignment(ivs, TrackAssignment(lifted, good.track_count + 1, good.density))
        assert not cert.ok
        assert cert.reason == "track-count"

    def test_reports_first_overlap_whatever_the_input_order(self):
        w = [Wire(1, k, k + 1, 1, 1) for k in range(5)]
        ivs = [
            IntervalWire(w[0], 0, 4),
            IntervalWire(w[1], 6, 9),
            IntervalWire(w[2], 2, 3),
            IntervalWire(w[3], 5, 7),
            IntervalWire(w[4], 5, 7),
        ]
        tracks = {w[0]: 1, w[1]: 0, w[2]: 1, w[3]: 0, w[4]: 0}
        assignment = TrackAssignment(tracks, 2, channel_density(ivs))
        cert = verify_assignment(ivs, assignment)
        assert (cert.reason, cert.offenders) == ("overlap", (w[3], w[4]))
        assert cert.detail == "track 0 holds overlapping spans [5, 7] and [5, 7]"
        reordered = verify_assignment([ivs[k] for k in (2, 4, 1, 0, 3)], assignment)
        assert (reordered.reason, reordered.offenders) == ("overlap", (w[4], w[3]))

    def test_reports_first_out_of_range_track(self):
        ivs = _intervals(8)
        good = left_edge_route(ivs)
        bad = dict(good.by_wire)
        bad[ivs[3].wire] = -1
        bad[ivs[5].wire] = good.track_count
        # A malformed record is refused, as a missing or non-int track is,
        # not judged: the first bad track in input order is named.
        with pytest.raises(LayoutError, match=f"^track -1 outside 0..{good.track_count - 1}$"):
            verify_assignment(ivs, TrackAssignment(bad, good.track_count, good.density))

    def test_missing_wire_raises(self):
        ivs = _intervals(4)
        partial = left_edge_route(ivs[1:])
        with pytest.raises(IncompleteAssignmentError):
            verify_assignment(ivs, partial)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_corruption_always_detected(self, data):
        d = data.draw(st.integers(2, 5))
        ivs = _intervals(2**d, mode=data.draw(st.sampled_from(list(TerminalMode))))
        good = left_edge_route(ivs)
        victim = data.draw(st.sampled_from(ivs))
        blockers = [
            iv for iv in ivs if iv.wire != victim.wire and iv.overlaps(victim)
        ]
        if not blockers:  # two-node rows have a single wire, nothing to hit
            return
        target = data.draw(st.sampled_from(blockers))
        corrupted = dict(good.by_wire)
        corrupted[victim.wire] = good.by_wire[target.wire]
        cert = verify_assignment(ivs, TrackAssignment(corrupted, good.track_count, good.density))
        assert not cert.ok


def _reference_verify(intervals, assignment):
    """The certificate as first written: a negative track count, then the
    first wire in input order with no track, a track that is not an int or
    a track out of range raised, then every interval sorted as (track, lo,
    hi, index) and an overlap looked for between neighbours, then the
    density."""
    if assignment.track_count < 0:
        raise LayoutError(f"track count {assignment.track_count} is negative")
    missing = [iv.wire for iv in intervals if iv.wire not in assignment.by_wire]
    if missing:
        raise IncompleteAssignmentError(f"no track assigned to wire {missing[0]}")
    tracks = [assignment.by_wire[iv.wire] for iv in intervals]
    odd = [track for track in tracks if type(track) is not int]
    if odd:
        raise LayoutError(f"track {odd[0]!r} is not an int")
    track_count = assignment.track_count
    for track in tracks:
        if not 0 <= track < track_count:
            raise LayoutError(f"track {track} outside 0..{track_count - 1}")
    members = sorted(zip(tracks, (iv.lo for iv in intervals), (iv.hi for iv in intervals), count()))
    for (track, _, hi, prev), (next_track, lo, _, cur) in zip(members, members[1:]):
        if track == next_track and hi >= lo:
            a, b = intervals[prev], intervals[cur]
            detail = f"track {track} holds overlapping spans [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}]"
            return RouteCertificate(False, "overlap", detail, (a.wire, b.wire))
    density = channel_density(intervals)
    if track_count != density:
        return RouteCertificate(False, "track-count", f"{track_count} tracks used, channel density is {density}")
    return RouteCertificate(True)


@st.composite
def _assignments(draw):
    """Shuffled intervals with ties, touching ends and nesting, and an
    assignment of them: the left-edge one, or tracks drawn from a few
    small values, -1 and past the track count included, so that overlaps,
    tracks out of range and wasted tracks are all common."""
    intervals = draw(_interval_sets())
    draw(st.randoms(use_true_random=False)).shuffle(intervals)
    if draw(st.booleans()):
        routed = left_edge_route(intervals)
        by_wire = routed.by_wire
        track_count = routed.track_count + draw(st.sampled_from([0, 0, 1, -1]))
    else:
        track_count = draw(st.integers(0, 4))
        by_wire = {iv.wire: draw(st.integers(-1, track_count)) for iv in intervals}
    return intervals, TrackAssignment(by_wire, track_count, channel_density(intervals))


@st.composite
def _two_faults(draw):
    """Shuffled intervals, routed by left edge, with two of them given the
    same kind of fault: no track, a track that is not an int, a track out
    of range, or the track of another interval they overlap."""
    intervals = draw(_interval_sets().filter(lambda ivs: len(ivs) >= 2))
    draw(st.randoms(use_true_random=False)).shuffle(intervals)
    routed = left_edge_route(intervals)
    by_wire, track_count = dict(routed.by_wire), routed.track_count
    victims = draw(st.lists(st.sampled_from(intervals), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["missing", "not-int", "range", "overlap"]))
    if kind == "missing":
        for iv in victims:
            del by_wire[iv.wire]
    elif kind == "not-int":
        odd = draw(st.lists(st.sampled_from(["1", 1.0, True, None]), min_size=2, max_size=2, unique=True))
        by_wire.update(zip((iv.wire for iv in victims), odd))
    elif kind == "range":
        outside = st.sampled_from([-2, -1, track_count, track_count + 1])
        bad = draw(st.lists(outside, min_size=2, max_size=2, unique=True))
        by_wire.update(zip((iv.wire for iv in victims), bad))
    else:
        for iv in victims:
            others = [other for other in intervals if other is not iv and other.overlaps(iv)]
            assume(others)
            by_wire[iv.wire] = by_wire[draw(st.sampled_from(others)).wire]
    return intervals, TrackAssignment(by_wire, track_count, channel_density(intervals))


def _verdict(verify, intervals, assignment):
    """The certificate, or the type and message of the error raised."""
    try:
        return verify(intervals, assignment)
    except LayoutError as exc:
        return type(exc), str(exc)


# Runs verify_assignment under an address-space cap: the intervals and the
# assignment come on stdin as JSON, and the certificate goes to stdout.
_CAPPED_VERIFY = """
import json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cuberow.netlist import Wire
from cuberow.routing import IntervalWire, TrackAssignment, verify_assignment
spans, tracks, track_count = json.load(sys.stdin)
intervals = [IntervalWire(Wire(*wire), lo, hi) for wire, lo, hi in spans]
by_wire = {iv.wire: track for iv, track in zip(intervals, tracks)}
cert = verify_assignment(intervals, TrackAssignment(by_wire, track_count, 0))
print(json.dumps(cert))
"""


class TestCertificateAgainstReference:
    @given(_assignments())
    @settings(max_examples=300, deadline=None)
    def test_same_certificate_as_reference(self, case):
        # Tracks of -1 and of the track count are drawn, so the verdict may
        # be the error raised.
        intervals, assignment = case
        assert _verdict(verify_assignment, intervals, assignment) == _verdict(_reference_verify, intervals, assignment)

    @given(_two_faults())
    @settings(max_examples=300, deadline=None)
    def test_the_first_fault_in_input_order_is_named(self, case):
        # The sweep meets the intervals in (lo, hi) order; whichever of two
        # faults comes first there, the report names the one the reference
        # names, the first in input order.
        intervals, assignment = case
        verdict = _verdict(verify_assignment, intervals, assignment)
        assert verdict == _verdict(_reference_verify, intervals, assignment)
        assert not isinstance(verdict, RouteCertificate) or not verdict.ok

    def test_nested_and_tied_spans_on_one_track(self):
        # [0, 9] holds [2, 3] and [5, 6]: the sweep sees the clash at 2, the
        # report names the first neighbours on the track, [0, 9] and [2, 3].
        w = [Wire(1, k, k + 1, 1, 1) for k in range(4)]
        spans = [(w[2], 5, 6), (w[1], 2, 3), (w[0], 0, 9), (w[3], 5, 6)]
        intervals = [IntervalWire(*span) for span in spans]
        assignment = TrackAssignment({w[0]: 0, w[1]: 0, w[2]: 0, w[3]: 1}, 2, 2)
        cert = verify_assignment(intervals, assignment)
        assert cert == _reference_verify(intervals, assignment)
        assert cert.offenders == (w[0], w[1])

    def test_equal_left_ends_are_named_by_right_end(self):
        # One track holds [0, 5] before [0, 3] in input order: the reference
        # takes a track's neighbours in (lo, hi) order, so it names [0, 3]
        # then [0, 5], and so must the sweep.
        w = [Wire(1, k, k + 1, 1, 1) for k in range(3)]
        intervals = [IntervalWire(w[0], 0, 5), IntervalWire(w[1], 7, 8), IntervalWire(w[2], 0, 3)]
        assignment = TrackAssignment({w[0]: 0, w[1]: 0, w[2]: 0}, 1, 2)
        cert = verify_assignment(intervals, assignment)
        assert cert == _reference_verify(intervals, assignment)
        assert cert.offenders == (w[2], w[0])
        assert cert.detail == "track 0 holds overlapping spans [0, 3] and [0, 5]"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_many_equal_left_ends(self, data):
        # Left ends from three values and tracks from three, shuffled, so
        # that most tracks hold several intervals of one left end, which a
        # sweep ordered by left end alone would name in input order.
        size = data.draw(st.integers(2, 24))
        wires = [Wire(1, k, k + 1, 1, 1) for k in range(size)]
        lows = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        highs = data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        intervals = [IntervalWire(w, lo, lo + extra) for w, lo, extra in zip(wires, lows, highs)]
        data.draw(st.randoms(use_true_random=False)).shuffle(intervals)
        by_wire = {w: data.draw(st.integers(0, 2)) for w in wires}
        assignment = TrackAssignment(by_wire, 3, channel_density(intervals))
        assert verify_assignment(intervals, assignment) == _reference_verify(intervals, assignment)

    def test_no_record_is_sized_from_a_track_number(self):
        # One wire on track 10**12 - 1 of 10**12: a per-track table sized
        # from either number would need terabytes, and the child has 256 MB.
        wire = Wire(1, 0, 1, 1, 1)
        intervals = [IntervalWire(wire, 2, 2)]
        assignment = TrackAssignment({wire: 10**12 - 1}, 10**12, 0)
        want = _reference_verify(intervals, assignment)
        assert want.reason == "track-count"
        source = str(Path(cuberow.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", _CAPPED_VERIFY, str(256 << 20)],
            input=json.dumps([[[list(wire), 2, 2]], [10**12 - 1], 10**12]),
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == json.loads(json.dumps(want))


class TestReadPathMemory:
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_certificate_peak_per_interval(self, mode):
        # The sorted (track, lo, hi, index) tuples peaked at 107-135 B per
        # interval at this size, and a sweep of sorted indexes, with a list
        # of left ends, at about 71 B.  A sweep of the sorted records that
        # held the input-order tracks too peaked at about 32 B; the one
        # sweep frees them before its sorts, at about 24 B.  Bound: 48 B per
        # interval.  A peak moves with where full collections fall, so one
        # runs first.
        intervals = _intervals(1024, Placement.GRAY, mode)
        assignment = left_edge_route(intervals)
        gc.collect()
        tracemalloc.start()
        try:
            cert = verify_assignment(intervals, assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.ok
        assert peak < 48 * len(intervals)

    @pytest.mark.parametrize("mode", list(TerminalMode))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_router_peak_per_interval(self, placement, mode):
        # Sorting the records by a (lo, hi, wire) key tuple each peaked at
        # 94.0-94.2 B per interval at this size in all four pairs.  Sorting
        # input positions by their records, then stably by right end, then
        # by left end, peaks at 74.3-74.6 B, as did the ends' two sorts when
        # canonical input skipped the first; nesting the first two sorts as
        # sorted(sorted(...)), at 78.5-78.7 B.  Bound: 84 B per interval,
        # the assignment made included.
        intervals = _intervals(1024, placement, mode)
        gc.collect()
        tracemalloc.start()
        try:
            assignment = left_edge_route(intervals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert assignment.track_count == assignment.density
        assert peak < 84 * len(intervals)

    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_loaded_rows_share_one_int_per_value(self, mode):
        # Each column number is one int object across the loaded wires and
        # across the assignment rows: at most n each, where an int per
        # field read made 7,927 and 9,000-10,500 of them.
        n = 1024
        net = build_netlist(HypercubeRow(n), Placement.GRAY, mode)
        intervals = wire_intervals(net)
        loaded = load_netlist(dump_netlist(net))
        rows = load_assignment(dump_assignment(intervals, left_edge_route(intervals)))
        assert loaded == net
        assert len({id(field) for wire in loaded.wires for field in wire}) <= n
        assert len({id(field) for row in rows for field in row}) <= n


    def test_a_value_is_one_int_however_it_is_written(self):
        # Ints above 256 are not cached by the interpreter, so only the
        # reader can make these one object.
        rows = load_assignment("1 300 301 0\n2 0300 302 0\n3 299 00301 0\n")
        assert rows == [(1, 300, 301, 0), (2, 300, 302, 0), (3, 299, 301, 0)]
        assert rows[0][1] is rows[1][1] and rows[0][2] is rows[2][2]


class TestAssignmentText:
    def test_dump_shape(self):
        ivs = _intervals(2)
        text = dump_assignment(ivs, left_edge_route(ivs))
        assert text == "1 0 1 0\n"

    def test_round_trip(self):
        ivs = _intervals(8, mode=TerminalMode.DIM_ORDERED)
        assignment = left_edge_route(ivs)
        rows = load_assignment(dump_assignment(ivs, assignment))
        assert len(rows) == len(ivs)
        by_key = {(iv.wire.dim, iv.wire.left_col): iv.wire for iv in ivs}
        for dim, left, right, track in rows:
            wire = by_key[(dim, left)]
            assert wire.right_col == right
            assert assignment.by_wire[wire] == track

    @given(_assignments())
    @settings(max_examples=200, deadline=None)
    def test_what_dump_writes_load_reads_back(self, case):
        # Unchecked, a track of -1 was written as it stood, and the reader
        # refused the text.  A record out of range, or with a negative
        # track count, is refused before any text is made.
        intervals, assignment = case
        try:
            text = dump_assignment(intervals, assignment)
        except LayoutError as exc:
            assert re.fullmatch(r"track -?\d+ outside 0\.\.-?\d+|track count -\d+ is negative", str(exc))
            return
        wires = sorted(iv.wire for iv in intervals)
        assert load_assignment(text) == [(w.dim, w.left_col, w.right_col, assignment.by_wire[w]) for w in wires]

    def test_rejects_bad_line(self):
        with pytest.raises(LayoutError):
            load_assignment("1 2 3\n")

    def test_rejects_non_integer_field(self):
        with pytest.raises(NetlistFormatError, match="'1 0 x 2'"):
            load_assignment("1 0 1 0\n1 0 x 2\n")

    @pytest.mark.parametrize("line", ["+1 \u0660 1 0", "1 0_0 1 0", "1 0 1 +0", "1 0 1 \u0660"])
    def test_rejects_fields_that_are_not_ascii_digits(self, line):
        # int() alone takes each of these fields.
        with pytest.raises(NetlistFormatError, match=re.escape(repr(line))):
            load_assignment(f"1 0 1 0\n{line}\n")

    def test_rejects_a_field_too_long_to_parse(self):
        # Digits only, so it passes the field check, but int() refuses more
        # than 4300 digits by default.
        line = "1 0 1 " + "0" * 5000 + "1"
        with pytest.raises(NetlistFormatError, match="too long to parse") as error:
            load_assignment(f"1 0 1 0\n{line}\n")
        assert repr(line) in str(error.value)

    def test_zero_padded_fields_load(self):
        assert load_assignment("01 000 1 007\n") == [(1, 0, 1, 7)]

    def test_rejects_negative_value(self):
        with pytest.raises(NetlistFormatError, match="'9 9 9 -4'"):
            load_assignment("9 9 9 -4\n")
