"""The brute-force oracle itself, checked against an even dumber per-cut
count and its own stated self-consistency rules."""

import tracemalloc
from functools import partial

import pytest

from cuberow.density import HypercubeRow
from cuberow.errors import InvalidCutError, InvalidDimensionError, LayoutError, TooManyWiresError
from cuberow.netlist import Placement, TerminalMode, build_netlist, fine_cut_count, total_wirelength
from cuberow.oracle import (
    brute_link_count,
    brute_maximizers,
    brute_track_count,
    coverage_bound,
    crossing_profile,
)
from cuberow.routing import IntervalWire, wire_intervals
from cuberow.netlist import Wire


def naive_fine_counts(net):
    """Quadratic re-count straight from the crossing rule, cut by cut.

    A gap cut is crossed by wires strictly spanning it.  A cut right of a
    terminal slot is crossed by wires passing over the node, wires leaving
    rightward from a slot at or left of it, and wires arriving from the left
    into a slot right of it.
    """
    row = net.row
    step = row.dims + 1
    counts = []
    for fine in range(row.n * step + 1):
        col, slot = divmod(fine, step)
        total = 0
        for w in net.wires:
            if slot == 0:
                crosses = w.left_col < col <= w.right_col
            elif net.mode is TerminalMode.FREE:
                crosses = w.left_col < col < w.right_col
            elif w.left_col < col < w.right_col:
                crosses = True
            elif w.left_col == col:
                crosses = w.left_slot <= slot
            elif w.right_col == col:
                crosses = w.right_slot > slot
            else:
                crosses = False
            total += crosses
        counts.append(total)
    return counts


class TestCrossingProfile:
    def test_frozen_gap_profiles(self):
        net = build_netlist(HypercubeRow(8))
        assert crossing_profile(net).gap_profile() == [0, 3, 4, 5, 4, 5, 4, 3, 0]
        net2 = build_netlist(HypercubeRow(2))
        assert crossing_profile(net2).gap_profile() == [0, 1, 0]

    def test_gray_profile_matches_normal_peak(self):
        gray = build_netlist(HypercubeRow(8), Placement.GRAY)
        table = crossing_profile(gray)
        assert table.interior_gap_max() == 5
        assert table.gap_profile() == [0, 3, 4, 5, 4, 5, 4, 3, 0]

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_matches_naive_per_cut_count(self, n, placement, mode):
        net = build_netlist(HypercubeRow(n), placement, mode)
        assert list(crossing_profile(net).counts) == naive_fine_counts(net)

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    @pytest.mark.parametrize("placement", list(Placement))
    def test_gap_sum_equals_total_wirelength(self, n, placement):
        net = build_netlist(HypercubeRow(n), placement)
        table = crossing_profile(net)
        assert sum(table.gap_profile()) == total_wirelength(net)

    def test_accessors_agree(self):
        net = build_netlist(HypercubeRow(8), mode=TerminalMode.DIM_ORDERED)
        table = crossing_profile(net)
        step = table.dims + 1
        for cut in range(9):
            assert table.gap(cut) == table.counts[cut * step]
        assert table.node_cut(4, 2) == table.counts[4 * step + 2] == 6


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "call, args, error",
        [
            ("brute_link_count", (99, 1), InvalidCutError),
            ("brute_link_count", (-1, 1), InvalidCutError),
            ("brute_link_count", (True, 1), InvalidCutError),
            ("brute_link_count", (2, 9), InvalidDimensionError),
            ("brute_link_count", (2, 0), InvalidDimensionError),
            ("brute_link_count", (2, 1.0), InvalidDimensionError),
            ("gap", (-1,), InvalidCutError),
            ("gap", (9,), InvalidCutError),
            ("gap", (True,), InvalidCutError),
            ("gap", (2.0,), InvalidCutError),
            ("node_cut", (0, 4), InvalidCutError),
            ("node_cut", (0, 0), InvalidCutError),
            ("node_cut", (-1, 1), InvalidCutError),
            ("node_cut", (8, 1), InvalidCutError),
            ("node_cut", (False, 1), InvalidCutError),
        ],
    )
    def test_out_of_range_argument_is_refused(self, call, args, error):
        # On an 8-node row each of these answered a count, 0 off the row,
        # cut 1 for True or a cell read from the table's other end, or
        # raised a bare IndexError or TypeError.
        net = build_netlist(HypercubeRow(8), mode=TerminalMode.DIM_ORDERED)
        if call == "brute_link_count":
            accessor = partial(brute_link_count, net)
        else:
            accessor = getattr(crossing_profile(net), call)
        with pytest.raises(error):
            accessor(*args)


class TestTableMemory:
    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_counts_share_one_int_per_value(self, placement, mode):
        # At 1024 nodes an int per fine cut made 9,946 objects for the 357
        # distinct counts of a free row; the counts now share one per value.
        counts = crossing_profile(build_netlist(HypercubeRow(1024), placement, mode)).counts
        assert len({id(count) for count in counts}) == len(set(counts))

    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_table_holds_under_16_bytes_per_fine_cut(self, placement, mode):
        # A pointer per fine cut and an int per distinct count: 8.7-9.2 B
        # per fine cut at 1024 nodes, where an int per cut held 36 B.
        row = HypercubeRow(1024)
        net = build_netlist(row, placement, mode)
        tracemalloc.start()
        try:
            table = crossing_profile(net)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table.counts) == fine_cut_count(row)
        assert held < 16 * fine_cut_count(row)


class TestBruteMaximizers:
    def test_frozen_examples(self):
        assert brute_maximizers(build_netlist(HypercubeRow(8))) == [3, 5]
        assert brute_maximizers(build_netlist(HypercubeRow(4))) == [1, 2, 3]
        assert brute_maximizers(build_netlist(HypercubeRow(2))) == [1]

    def test_table_scan_on_the_smallest_rows(self):
        pair = crossing_profile(build_netlist(HypercubeRow(2)))
        assert pair.gap_maximizers() == [1] and pair.interior_gap_max() == 1


class TestBruteLinkCount:
    def test_spot_values(self):
        net = build_netlist(HypercubeRow(8))
        assert brute_link_count(net, 4, 3) == 4
        assert brute_link_count(net, 5, 3) == 3
        assert brute_link_count(net, 0, 1) == 0


class TestBruteTrackCount:
    def test_frozen_examples(self):
        assert brute_track_count(wire_intervals(build_netlist(HypercubeRow(4)))) == 2
        assert brute_track_count(wire_intervals(build_netlist(HypercubeRow(8)))) == 5
        single = wire_intervals(build_netlist(HypercubeRow(2)))
        assert brute_track_count(single) == 1

    def test_dim_ordered_instance(self):
        ivs = wire_intervals(
            build_netlist(HypercubeRow(8), mode=TerminalMode.DIM_ORDERED)
        )
        assert brute_track_count(ivs) == 6

    def test_empty(self):
        assert brute_track_count([]) == 0

    def test_size_cap(self):
        ivs = wire_intervals(build_netlist(HypercubeRow(16)))  # 32 wires
        with pytest.raises(TooManyWiresError):
            brute_track_count(ivs)

    def test_chain_packs_onto_one_track(self):
        chain = [
            IntervalWire(Wire(1, k, k + 1, 1, 1), 3 * k, 3 * k + 2) for k in range(5)
        ]
        assert brute_track_count(chain) == 1

    def test_nested_stack_needs_one_track_each(self):
        nested = [
            IntervalWire(Wire(1, k, k + 1, 1, 1), 10 - k, 10 + k) for k in range(4)
        ]
        assert brute_track_count(nested) == 4


class TestCoverageBound:
    def test_matches_profile_max(self):
        for n in (2, 4, 8, 16):
            for mode in TerminalMode:
                net = build_netlist(HypercubeRow(n), mode=mode)
                ivs = wire_intervals(net)
                assert coverage_bound(ivs) == crossing_profile(net).fine_max()

    def test_empty(self):
        assert coverage_bound([]) == 0

    def test_refuses_intervals_that_are_not_a_sequence(self):
        # The sweep reads its intervals twice: an iterator gave 12 here,
        # where the bound is 5.
        ivs = wire_intervals(build_netlist(HypercubeRow(8), Placement.GRAY))
        assert coverage_bound(tuple(ivs)) == coverage_bound(ivs) == 5
        with pytest.raises(LayoutError, match="intervals must be a sequence such as a list, not list_iterator"):
            coverage_bound(iter(ivs))
