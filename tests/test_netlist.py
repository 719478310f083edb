"""Netlist construction, wirelength metrics, terminal-slot densities, and the
text serialization format."""

import json
import os
import random
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuberow
from cuberow import kernels, netlist
from cuberow.density import (
    HypercubeRow,
    cut_density,
    cut_density_profile,
    leftmost_max_cut,
    max_cut_density,
    max_density_cuts,
)
from cuberow.errors import InvalidCutError, LayoutError, NetlistFormatError, UnknownChoiceError
from cuberow.kernels import _excess_above
from cuberow.netlist import (
    Netlist,
    Placement,
    TerminalMode,
    Wire,
    build_netlist,
    dump_netlist,
    gray_code,
    gray_rank,
    load_netlist,
    max_terminal_cut_density,
    max_wirelength,
    terminal_cut_densities,
    terminal_cut_density,
    total_wirelength,
)
from cuberow.oracle import crossing_profile
from cuberow.render import render_svg
from cuberow.routing import dump_assignment, left_edge_route, load_assignment, verify_assignment, wire_intervals


class TestGrayCode:
    def test_first_values(self):
        assert [gray_code(j) for j in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_adjacent_entries_differ_in_one_bit(self):
        for j in range(255):
            delta = gray_code(j) ^ gray_code(j + 1)
            assert delta and delta & (delta - 1) == 0

    @given(st.integers(0, 2**20))
    def test_rank_inverts_code(self, j):
        assert gray_rank(gray_code(j)) == j
        assert gray_code(gray_rank(j)) == j


class TestBuildNetlist:
    def test_two_nodes(self):
        net = build_netlist(HypercubeRow(2))
        assert net.wires == (Wire(1, 0, 1, 1, 1),)

    def test_n8_normal_dimension_three(self):
        net = build_netlist(HypercubeRow(8))
        cols = [(w.left_col, w.right_col) for w in net.wires if w.dim == 3]
        assert cols == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_n8_gray_wires(self):
        net = build_netlist(HypercubeRow(8), Placement.GRAY)
        triples = [(w.dim, w.left_col, w.right_col) for w in net.wires]
        assert triples == [
            (1, 0, 1), (1, 2, 3), (1, 4, 5), (1, 6, 7),
            (2, 0, 3), (2, 1, 2), (2, 4, 7), (2, 5, 6),
            (3, 0, 7), (3, 1, 6), (3, 2, 5), (3, 3, 4),
        ]

    def test_n8_gray_longest_wire_spans_whole_row(self):
        # the link between nodes 0 and 4 lands on columns 0 and 7
        net = build_netlist(HypercubeRow(8), Placement.GRAY)
        assert (3, 0, 7) in [(w.dim, w.left_col, w.right_col) for w in net.wires]
        assert gray_code(0) == 0 and gray_code(7) == 4

    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_size_invariants(self, d, placement):
        row = HypercubeRow(2**d)
        net = build_netlist(row, placement)
        assert len(net.wires) == (row.n // 2) * row.dims
        for dim in range(1, row.dims + 1):
            assert sum(1 for w in net.wires if w.dim == dim) == row.n // 2

    @pytest.mark.parametrize("placement", list(Placement))
    def test_wires_are_distinct_node_pairs(self, placement):
        net = build_netlist(HypercubeRow(64), placement)
        pairs = {(w.left_col, w.right_col) for w in net.wires}
        assert len(pairs) == len(net.wires)

    def test_normal_spans_are_powers_of_two(self):
        net = build_netlist(HypercubeRow(32))
        for w in net.wires:
            assert w.span == 1 << (w.dim - 1)
            assert w.left_slot == w.right_slot == w.dim

    def test_wire_rejects_reversed_columns(self):
        with pytest.raises(LayoutError):
            Wire(1, 3, 3, 1, 1)

    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_wires_are_in_canonical_tuple_order(self, placement, mode):
        for d in range(1, 9):
            wires = build_netlist(HypercubeRow(2**d), placement, mode).wires
            assert sorted(wires) == list(wires)
            assert [(w.dim, w.left_col) for w in wires] == sorted((w.dim, w.left_col) for w in wires)

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize(
        "mode, rotate",
        [(TerminalMode.FREE, False), (TerminalMode.DIM_ORDERED, False), (TerminalMode.DIM_ORDERED, True)],
    )
    def test_wires_are_the_hypercube_links(self, d, placement, mode, rotate):
        # From the definition: column c holds node gray_code(c) in a gray row,
        # and the dimension-k link joins nodes u and u XOR 2^(k-1).
        n = 2**d
        node_at = gray_code if placement is Placement.GRAY else (lambda col: col)
        col_of = {node_at(col): col for col in range(n)}
        slot_order = tuple(range(2, d + 1)) + (1,) if rotate else tuple(range(1, d + 1))
        links = set()
        for k in range(1, d + 1):
            slot = slot_order[k - 1]
            for u in range(n):
                a, b = col_of[u], col_of[u ^ 1 << (k - 1)]
                links.add((k, min(a, b), max(a, b), slot, slot))
        net = build_netlist(HypercubeRow(n), placement, mode, slot_order if rotate else None)
        assert len(net.wires) == len(links) and set(net.wires) == links
        assert all(type(w) is Wire for w in net.wires)
        assert all(type(w) is Wire for w in load_netlist(dump_netlist(net)).wires)

    def test_slot_order_permutes_slots(self):
        net = build_netlist(
            HypercubeRow(8),
            mode=TerminalMode.DIM_ORDERED,
            slot_order=(3, 1, 2),
        )
        for w in net.wires:
            assert w.left_slot == w.right_slot == (3, 1, 2)[w.dim - 1]

    def test_slot_order_validation(self):
        row = HypercubeRow(8)
        with pytest.raises(LayoutError):
            build_netlist(row, mode=TerminalMode.FREE, slot_order=(1, 2, 3))
        with pytest.raises(LayoutError):
            build_netlist(row, mode=TerminalMode.DIM_ORDERED, slot_order=(1, 1, 3))
        # A bool or a float sorts as its int, and would be drawn as a slot.
        for order in [(True, 2), (1.0, 2)]:
            with pytest.raises(LayoutError, match=r"slot_order must permute 1\.\.2"):
                build_netlist(HypercubeRow(4), mode=TerminalMode.DIM_ORDERED, slot_order=order)

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_values_stand_for_their_members(self, n, placement, mode):
        # A str enum's value equals its member but is not it; "free" must not
        # be routed as dim-ordered, nor "gray" built as a normal row.
        row = HypercubeRow(n)
        by_member = build_netlist(row, placement, mode)
        by_value = build_netlist(row, placement.value, mode.value)
        assert by_value.placement is placement and by_value.mode is mode
        assert by_value.wires == by_member.wires
        assert dump_netlist(by_value) == dump_netlist(by_member)
        assert wire_intervals(by_value) == wire_intervals(by_member)

    @pytest.mark.parametrize(
        "placement, mode, named",
        [("grey", "free", "'grey'"), ("normal", "dim_ordered", "'dim_ordered'"), (None, "free", "None")],
    )
    def test_unknown_values_are_named(self, placement, mode, named):
        with pytest.raises(UnknownChoiceError, match=f"^{named} is not a valid "):
            build_netlist(HypercubeRow(8), placement, mode)
        wires = build_netlist(HypercubeRow(8)).wires
        with pytest.raises(UnknownChoiceError, match=f"^{named} is not a valid "):
            Netlist(HypercubeRow(8), placement, mode, wires)

    def test_a_netlist_made_by_hand_takes_values(self):
        # Values must be read as their members: "free" routed as dim-ordered
        # would take 6 tracks, and a str placement has no .value to dump.
        row = HypercubeRow(8)
        built = build_netlist(row)
        by_hand = Netlist(row, "normal", "free", built.wires)
        assert by_hand == built
        assert by_hand.placement is Placement.NORMAL and by_hand.mode is TerminalMode.FREE
        assert left_edge_route(wire_intervals(by_hand)).track_count == 5
        assert dump_netlist(by_hand) == dump_netlist(built)


class TestWireRecord:
    def test_fields_in_canonical_order(self):
        w = Wire(2, 1, 3, 4, 5)
        assert w._fields == ("dim", "left_col", "right_col", "left_slot", "right_slot")
        assert (w.dim, w.left_col, w.right_col, w.left_slot, w.right_slot) == (2, 1, 3, 4, 5)
        assert tuple(w) == (2, 1, 3, 4, 5) and w == (2, 1, 3, 4, 5)
        assert w.span == 2

    def test_immutable(self):
        w = Wire(1, 0, 1, 1, 1)
        for name in ("dim", "left_col", "right_col", "left_slot", "right_slot", "span", "extra"):
            with pytest.raises(AttributeError):
                setattr(w, name, 9)
        assert not hasattr(w, "__dict__")

    def test_hashable_dict_key(self):
        a, b = Wire(1, 0, 1, 1, 1), Wire(1, 0, 1, 1, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        table = {a: 3}
        assert table[b] == 3
        assert len({a, b, Wire(1, 2, 3, 1, 1)}) == 2

    @pytest.mark.parametrize("left, right", [(3, 3), (4, 3), (0, -1)])
    def test_rejects_reversed_columns_on_every_path(self, left, right):
        with pytest.raises(LayoutError):
            Wire(1, left, right, 1, 1)
        with pytest.raises(LayoutError):
            Wire(dim=1, left_col=left, right_col=right, left_slot=1, right_slot=1)
        with pytest.raises(LayoutError):
            Wire._make((1, left, right, 1, 1))
        with pytest.raises(LayoutError):
            Wire(1, 0, 9, 1, 1)._replace(left_col=left, right_col=right)

    def test_replace_keeps_the_record_type(self):
        w = Wire(1, 0, 1, 1, 1)._replace(right_col=5)
        assert type(w) is Wire and w == (1, 0, 5, 1, 1)

    @pytest.mark.parametrize("value", [True, 2.0, "1", None], ids=["bool", "float", "str", "none"])
    @pytest.mark.parametrize("field", Wire._fields)
    def test_rejects_a_field_that_is_not_a_plain_int_on_every_path(self, field, value):
        # Unchecked, a bool wire was routed and dumped as "True", and a None
        # column raised a bare TypeError.
        fields = dict(zip(Wire._fields, (1, 0, 1, 1, 1)), **{field: value})
        with pytest.raises(LayoutError, match="^wire fields must be plain ints, got "):
            Wire(**fields)
        with pytest.raises(LayoutError, match="^wire fields must be plain ints, got "):
            Wire(1, 0, 1, 1, 1)._replace(**{field: value})


def _case(wire, mode=TerminalMode.FREE, n=4, placement=Placement.NORMAL, others=()):
    # A contract case: a netlist holding ``wire`` after ``others``.
    return placement, mode, n, (*others, wire)


# Links of a 4-node row listed before the wire under test.
_LINK, _LINKS = (Wire(1, 0, 1, 1, 1),), (Wire(1, 0, 1, 1, 1), Wire(2, 1, 3, 2, 2))
_SLOT = (
    "slot outside 1..{dims} in wire '{w.dim} {w.left_col} {w.left_slot} {w.right_col} {w.right_slot}'"
    " (dim left_col left_slot right_col right_slot)"
)


class TestNetlistContract:
    """The rules every netlist keeps, whether built, loaded or made by hand;
    no consumer checks them again.  The first nineteen cases are the wires off
    the row that the oracle, the router and the renderers once refused."""

    @pytest.mark.parametrize(
        "placement, mode, n, wires, message",
        [
            # Fine spans off a 4-node row's fine cuts 0..12.
            (*_case(Wire(1, -1, 1, 1, 1), TerminalMode.DIM_ORDERED, others=_LINK), "bad column pair (-1, 1)"),
            (*_case(Wire(1, 0, 9, 1, 1), TerminalMode.DIM_ORDERED, others=_LINK), "bad column pair (0, 9)"),
            (*_case(Wire(1, 0, 1, 5, 1), TerminalMode.DIM_ORDERED, others=_LINK), _SLOT),
            (*_case(Wire(1, 2, 5, 1, 1), others=_LINK), "bad column pair (2, 5)"),
            # Terminals off the row whose fine spans lie on it.
            (*_case(Wire(1, -1, 1, 1, 1), others=_LINK), "bad column pair (-1, 1)"),
            (*_case(Wire(1, 1, 2, 0, 1), TerminalMode.DIM_ORDERED, others=_LINK), _SLOT),
            (*_case(Wire(1, 2, 4, 1, 1), others=_LINK), "bad column pair (2, 4)"),
            (*_case(Wire(1, 0, 1, 3, 1), TerminalMode.DIM_ORDERED, others=_LINK), _SLOT),
            # Empty crossing ranges, from slots past the row's dimensions.
            (*_case(Wire(1, 0, 1, 5, 0), TerminalMode.DIM_ORDERED, n=2), _SLOT),
            (*_case(Wire(1, 2, 3, 8, 0), TerminalMode.DIM_ORDERED, others=_LINK), _SLOT),
            # Routed, certified and dumped before the router's range rule.
            (*_case(Wire(1, -1, 1, 1, 1), TerminalMode.DIM_ORDERED, others=_LINK), "bad column pair (-1, 1)"),
            (*_case(Wire(1, -1, 1, 1, 1), others=_LINK), "bad column pair (-1, 1)"),
            (*_case(Wire(1, 0, 4, 1, 1), TerminalMode.DIM_ORDERED, others=_LINK), "bad column pair (0, 4)"),
            (*_case(Wire(1, 0, 1, 1, 3), TerminalMode.DIM_ORDERED, others=_LINK), _SLOT),
            (*_case(Wire(1, 0, 1, 0, 1), others=_LINK), _SLOT),
            # Drawn off the picture before the renderers' range rule.
            (*_case(Wire(1, 0, 1, 0, 1)), _SLOT),
            (*_case(Wire(1, 0, 1, 1, 3)), _SLOT),
            (*_case(Wire(1, -1, 1, 1, 1)), "bad column pair (-1, 1)"),
            (*_case(Wire(1, 0, 4, 1, 1)), "bad column pair (0, 4)"),
            # Silently routed and certified by every consumer.
            (*_case(Wire(9, 0, 1, 1, 1)), "dimension 9 outside 1..2"),
            (*_case(Wire(2, 0, 1, 1, 1)), "columns 0 and 1 do not hold a dimension-2 pair"),
            (*_case(Wire(2, 0, 2, 2, 2), placement=Placement.GRAY), "columns 0 and 2 do not hold a dimension-2 pair"),
            (*_case(Wire(1, 0, 1, 1, 1), others=_LINKS), "dimension-1 link at column 0 listed twice"),
            (
                *_case(Wire(2, 0, 2, 1, 2), TerminalMode.DIM_ORDERED, others=_LINKS),
                "terminal slot 1 of column 0 carries two wires",
            ),
        ],
        ids=[
            "span-negative-column", "span-column-past-the-row", "span-slot-past-its-partner",
            "span-free-past-the-row", "on-span-negative-column", "on-span-slot-0",
            "on-span-column-past-the-row", "on-span-slot-past-dims", "empty-range-two-nodes",
            "empty-range-four-nodes", "route-negative-column", "route-free-negative-column",
            "route-column-past-the-row", "route-slot-past-dims", "route-slot-0", "draw-slot-0",
            "draw-slot-past-dims", "draw-negative-column", "draw-column-past-the-row",
            "dimension-past-the-row", "not-a-link", "not-a-gray-link", "link-listed-twice",
            "slot-carries-two-wires",
        ],
    )
    def test_refuses_a_bad_wire(self, placement, mode, n, wires, message):
        row = HypercubeRow(n)
        message = message.format(dims=row.dims, w=wires[-1])
        with pytest.raises(NetlistFormatError, match=f"^{re.escape(message)}$"):
            Netlist(row, placement, mode, wires)

    def test_every_construction_path_checks(self):
        built = build_netlist(HypercubeRow(4))
        wires = (*built.wires[:-1], Wire(2, 1, 3, 2, 3))
        off_row = re.escape(_SLOT.format(dims=2, w=wires[-1]))
        for make, message in (
            (lambda: Netlist(*built[:3], wires), off_row),
            (lambda: Netlist._make((*built[:3], wires)), off_row),
            (lambda: built._replace(wires=wires), off_row),
            # Column 1's slot 1 holds the end of the dimension-1 wire 0-1.
            (
                lambda: built._replace(mode="dim-ordered", wires=(*wires[:-1], Wire(2, 1, 3, 1, 2))),
                "^terminal slot 1 of column 1 carries two wires$",
            ),
        ):
            with pytest.raises(NetlistFormatError, match=message):
                make()

    def test_a_subset_of_the_links_is_a_netlist(self):
        built = build_netlist(HypercubeRow(8), Placement.GRAY, TerminalMode.DIM_ORDERED)
        net = Netlist(*built[:3], built.wires[::3])
        assert net.wires == built.wires[::3]
        assert left_edge_route(wire_intervals(net)).track_count == crossing_profile(net).fine_max()

    def test_plain_tuples_become_wires(self):
        net = Netlist(HypercubeRow(2), "normal", "free", [(1, 0, 1, 1, 1)])
        assert net.wires == (Wire(1, 0, 1, 1, 1),) and type(net.wires[0]) is Wire
        with pytest.raises(LayoutError, match="^wire fields must be plain ints"):
            Netlist(HypercubeRow(2), "normal", "free", [(True, 0, 1, 1, 1)])

    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    def test_built_netlists_keep_it(self, placement, mode):
        # build_netlist skips the check, as its wires are links by construction.
        for d in range(1, 9):
            built = build_netlist(HypercubeRow(2**d), placement, mode)
            assert Netlist(*built) == built

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_mutated_wire_is_refused_or_kept_by_every_consumer(self, data):
        n = data.draw(st.sampled_from([2, 4, 8, 16]), label="n")
        placement = data.draw(st.sampled_from(list(Placement)), label="placement")
        mode = data.draw(st.sampled_from(list(TerminalMode)), label="mode")
        row = HypercubeRow(n)
        built = build_netlist(row, placement, mode)
        index = data.draw(st.integers(0, len(built.wires) - 1), label="wire")
        field = data.draw(st.sampled_from(Wire._fields), label="field")
        value = data.draw(st.sampled_from([-1, 0, n, row.dims + 1, True, 2.0, "1", None]), label="value")
        wires = list(built.wires)
        try:
            wires[index] = Wire(**dict(built.wires[index]._asdict(), **{field: value}))
            net = Netlist(row, placement, mode, wires)
        except LayoutError:
            return
        # Still a valid link set: the text loader takes it back, and every
        # consumer runs and agrees with the oracle.
        assert load_netlist(dump_netlist(net)) == net
        intervals = wire_intervals(net)
        assignment = left_edge_route(intervals)
        assert verify_assignment(intervals, assignment).ok
        assert dump_assignment(intervals, assignment)
        assert render_svg(net, assignment)
        assert assignment.track_count == crossing_profile(net).fine_max()


class TestWirelength:
    def test_frozen_examples(self):
        row = HypercubeRow(8)
        assert total_wirelength(build_netlist(row)) == 28
        assert total_wirelength(build_netlist(row, Placement.GRAY)) == 28
        assert max_wirelength(build_netlist(row)) == 4
        assert max_wirelength(build_netlist(row, Placement.GRAY)) == 7
        for placement in Placement:
            net2 = build_netlist(HypercubeRow(2), placement)
            assert total_wirelength(net2) == max_wirelength(net2) == 1

    @pytest.mark.parametrize("d", range(1, 11))
    def test_total_equal_across_placements(self, d):
        row = HypercubeRow(2**d)
        expected = (row.n // 2) * (row.n - 1)
        assert total_wirelength(build_netlist(row)) == expected
        assert total_wirelength(build_netlist(row, Placement.GRAY)) == expected

    @pytest.mark.parametrize("d", range(1, 11))
    def test_span_extremes(self, d):
        row = HypercubeRow(2**d)
        assert max_wirelength(build_netlist(row)) == row.n // 2
        assert max_wirelength(build_netlist(row, Placement.GRAY)) == row.n - 1


class TestTerminalDensity:
    def test_frozen_examples(self):
        row = HypercubeRow(8)
        assert terminal_cut_density(row, 5, 2) == 6
        assert terminal_cut_density(row, 3, 3) == 5
        assert terminal_cut_density(row, 4, 1) == 4

    def test_errors(self):
        row = HypercubeRow(8)
        for cut, slot in ((0, 1), (9, 1), (1, 0), (1, 4)):
            with pytest.raises(InvalidCutError):
                terminal_cut_density(row, cut, slot)
        for cut in (0, 9):
            with pytest.raises(InvalidCutError):
                terminal_cut_densities(row, cut)
        # A bool would stand for 1, and a float or str must not escape as a
        # bare TypeError.
        for bad in (True, 1.0, "1"):
            for cut, slot in ((bad, 1), (1, bad)):
                with pytest.raises(InvalidCutError, match="must be an int"):
                    terminal_cut_density(row, cut, slot)
            with pytest.raises(InvalidCutError, match="must be an int"):
                terminal_cut_densities(row, bad)

    def test_alternating_row_sizes(self):
        # Each request for the other size replaces the cached gap profile.
        small, large = HypercubeRow(8), HypercubeRow(16)
        expected = {
            row: [
                [cut_density(row, cut) + _excess_above(cut - 1, row.dims, slot)
                 for slot in range(1, row.dims + 1)]
                for cut in range(1, row.n + 1)
            ]
            for row in (small, large)
        }
        for cut in range(1, small.n + 1):
            for row in (small, large, small):
                assert terminal_cut_densities(row, cut) == expected[row][cut - 1]
                assert terminal_cut_density(row, cut, 1) == expected[row][cut - 1][0]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_last_slot_recovers_gap_density(self, d):
        row = HypercubeRow(2**d)
        for cut in range(1, row.n + 1):
            assert terminal_cut_density(row, cut, row.dims) == cut_density(row, cut)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_batched_row_matches_scalar(self, d):
        row = HypercubeRow(2**d)
        for cut in range(1, row.n + 1):
            assert terminal_cut_densities(row, cut) == [
                terminal_cut_density(row, cut, slot) for slot in range(1, row.dims + 1)
            ]

    @pytest.mark.parametrize("d", range(13, 21))
    def test_batched_row_matches_scalar_where_the_low_half_wraps(self, d):
        # The row is read from ramps of the low ceil(d/2) bits and of the bits
        # above; the seam is where the low half is all ones and the node
        # after it, where the low half wraps to zero and the high one steps.
        row = HypercubeRow(2**d)
        low = 1 << (d + 1) // 2
        wraps = range(low - 1, row.n, low)
        nodes = {*wraps, *(node + 1 for node in wraps), 0, row.n - 1}
        nodes.update(random.Random(d).sample(range(row.n), 200))
        nodes.discard(row.n)
        for cut in sorted(node + 1 for node in nodes):
            got = terminal_cut_densities(row, cut)
            assert got == [terminal_cut_density(row, cut, slot) for slot in range(1, d + 1)]
            assert got[-1] == cut_density(row, cut)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_fine_cut_oracle(self, d):
        row = HypercubeRow(2**d)
        net = build_netlist(row, Placement.NORMAL, TerminalMode.DIM_ORDERED)
        table = crossing_profile(net)
        for cut in range(1, row.n + 1):
            for slot in range(1, row.dims + 1):
                assert terminal_cut_density(row, cut, slot) == table.node_cut(
                    cut - 1, slot
                )


# A child that caps its own address space, then evaluates each call it
# reads as JSON, an expression in a 2^30-node row and the names of density
# and netlist, and prints each value with the seconds its call took.
_CAPPED_CHILD = """
import json, resource, sys, time
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cuberow import density, netlist
names = {**vars(density), **vars(netlist), "row": density.HypercubeRow(2**30)}
answers = []
for call in json.load(sys.stdin):
    start = time.perf_counter()
    answers.append((eval(call, names), time.perf_counter() - start))
print(json.dumps(answers))
"""

# Wall-time budget of each call at the cap, the first slot call's build of
# the row's tables included.
_CAP_SECONDS = 2.0


class TestRowTables:
    # The slot rows and the scalar read S from the split tables of
    # kernels._gap_tables, O(sqrt(n)) entries, by
    # S(k * 2^h + lo) = S(k * 2^h) + S(lo) - 2*popcount(k)*lo.

    @pytest.fixture(autouse=True)
    def fresh_row_tables(self):
        # So that no row's tables outlive the test that made them.
        yield
        netlist._row_tables.cache_clear()
        kernels._gap_tables.cache_clear()

    @pytest.mark.parametrize("d", range(1, 17))
    def test_tables_hold_the_profile(self, d):
        row = HypercubeRow(2**d)
        assert [kernels._gap_density(row.n, cut) for cut in range(row.n + 1)] == cut_density_profile(row)

    @pytest.mark.parametrize("d", range(1, 31))
    def test_tables_match_the_scalar_forms_up_to_the_cap(self, d):
        # Random cuts and slots of every row size the package takes, and the
        # seams where the low half of a cut or of its node wraps.
        row = HypercubeRow(2**d)
        rng = random.Random(d)
        low = 1 << (d + 1) // 2
        cuts = {0, 1, row.n - 1, row.n, *(rng.randrange(row.n + 1) for _ in range(200))}
        for k in rng.sample(range(row.n // low + 1), min(row.n // low + 1, 20)):
            cuts.update(cut for cut in (k * low - 1, k * low, k * low + 1) if 0 <= cut <= row.n)
        for cut in sorted(cuts):
            assert kernels._gap_density(row.n, cut) == cut_density(row, cut)
            if cut:
                slot = rng.randint(1, d)
                want = cut_density(row, cut) + _excess_above(cut - 1, d, slot)
                assert terminal_cut_density(row, cut, slot) == want
                assert terminal_cut_densities(row, cut)[slot - 1] == want

    def test_the_scalar_runs_at_the_cap_in_bounded_memory(self):
        # A whole profile of 2^30 cuts cannot fit in 256 MB of address space:
        # a scalar that built one failed there with MemoryError.  Every
        # public answer polynomial in d runs there within the budget; the one
        # left out is max_terminal_cut_density, O(n * d), which reads the
        # slot row of every cut.
        row = HypercubeRow(2**30)
        rng = random.Random(30)
        maximizers = max_density_cuts(row)
        assert len(maximizers) == 49_152 and maximizers[0] == leftmost_max_cut(row)
        picks = maximizers[:: len(maximizers) // 8] + maximizers[-1:]
        cuts = [1, 2, row.n // 2, row.n // 2 + 1, row.n - 1, row.n, *maximizers[:3]]
        cuts += [k * 2**15 + j for k in (1, 2**14, 2**15 - 1) for j in (-1, 0, 1)]
        cuts += [rng.randrange(1, row.n + 1) for _ in range(30)]
        pairs = [(cut, slot) for cut in cuts for slot in (1, 15, 16, 30, rng.randint(1, 30))]
        peak = 715_827_882
        calls = {"max_density_cuts(row)": maximizers, "max_cut_density(row)": peak}
        for cut in picks:
            calls[f"cut_density(row, {cut})"] = calls[f"cut_density_bitsum(row, {cut})"] = peak
            calls[f"sum(dimension_link_count(row, {cut}, dim) for dim in range(1, 31))"] = peak

        def slot_density(cut, slot):
            return cut_density(row, cut) + _excess_above(cut - 1, 30, slot)

        for cut, slot in pairs:
            calls[f"terminal_cut_density(row, {cut}, {slot})"] = slot_density(cut, slot)
        for cut in cuts[::4]:
            calls[f"terminal_cut_densities(row, {cut})"] = [slot_density(cut, slot) for slot in range(1, 31)]
        for x in (0, 1, 2**29, row.n - 1, *(rng.randrange(row.n) for _ in range(20))):
            calls[f"gray_rank(gray_code({x}))"] = x
        source = str(Path(cuberow.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", _CAPPED_CHILD, str(256 << 20)],
            input=json.dumps(list(calls)), capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        answers = json.loads(child.stdout)
        assert [value for value, _ in answers] == list(calls.values())
        assert {call: seconds for call, (_, seconds) in zip(calls, answers) if seconds > _CAP_SECONDS} == {}


class TestExcessReexpression:
    def test_step_down_branches_exhaustive(self):
        # relate the excess statistics of consecutive integers through the
        # trailing-zero run, for every 16-bit value and every position
        width = 16
        for value in range(1, 1 << width):
            run = (value & -value).bit_length() - 1
            for position in range(1, width + 1):
                cur = _excess_above(value, width, position)
                expected = cur if position > run else cur + 2 * (run - position - 1)
                assert _excess_above(value - 1, width, position) == expected


class TestMaxTerminalDensity:
    def test_frozen_examples(self):
        assert max_terminal_cut_density(HypercubeRow(8)) == (6, [(5, 2)])
        assert max_terminal_cut_density(HypercubeRow(2)) == (1, [(1, 1)])
        value, attained = max_terminal_cut_density(HypercubeRow(16))
        assert value == 11
        assert attained == [(7, 1), (9, 3), (10, 3), (11, 1), (11, 3)]

    @pytest.mark.parametrize("d", range(2, 11))
    def test_one_track_penalty(self, d):
        row = HypercubeRow(2**d)
        value, attained = max_terminal_cut_density(row)
        assert value == max_cut_density(row) + 1
        maximizers = set(max_density_cuts(row))
        assert {cut for cut, _ in attained} <= maximizers

    @pytest.mark.parametrize("d", range(2, 10))
    def test_matches_oracle_peak(self, d):
        row = HypercubeRow(2**d)
        net = build_netlist(row, Placement.NORMAL, TerminalMode.DIM_ORDERED)
        assert max_terminal_cut_density(row)[0] == crossing_profile(net).fine_max()

    @pytest.mark.parametrize("d", range(2, 11))
    def test_ties_match_oracle_in_order(self, d):
        row = HypercubeRow(2**d)
        net = build_netlist(row, Placement.NORMAL, TerminalMode.DIM_ORDERED)
        table = crossing_profile(net)
        peak = table.fine_max()
        attained = [
            (cut, slot)
            for cut in range(1, row.n + 1)
            for slot in range(1, row.dims + 1)
            if table.node_cut(cut - 1, slot) == peak
        ]
        assert max_terminal_cut_density(row) == (peak, attained)


class TestUniformOrderingPenalty:
    @staticmethod
    def _fine_max(row, order):
        net = build_netlist(
            row, Placement.NORMAL, TerminalMode.DIM_ORDERED, slot_order=order
        )
        return crossing_profile(net).fine_max()

    @pytest.mark.parametrize("n", [4, 8])
    def test_every_common_ordering_costs_exactly_one_extra(self, n):
        row = HypercubeRow(n)
        expected = max_cut_density(row) + 1
        for order in permutations(range(1, row.dims + 1)):
            assert self._fine_max(row, order) == expected

    @pytest.mark.parametrize("n", [16, 32])
    def test_penalty_is_unavoidable_for_any_common_ordering(self, n):
        # No shared ordering recovers the free-permutation density.  Exact
        # equality for *every* ordering stops at n = 8: from n = 16 on, some
        # orderings cost one more again (e.g. slots (1, 3, 2, 4) at n = 16
        # stack 12 wires over the cut after slot 2 of column 10), so the
        # sharp statement left to hold is min over orderings = peak + 1.
        row = HypercubeRow(n)
        floor = max_cut_density(row) + 1
        observed = [
            self._fine_max(row, order)
            for order in permutations(range(1, row.dims + 1))
        ]
        assert min(observed) == floor
        identity = tuple(range(1, row.dims + 1))
        assert self._fine_max(row, identity) == floor


class TestSerialization:
    def test_dump_format(self):
        text = dump_netlist(build_netlist(HypercubeRow(2)))
        assert text == "2 normal free\n1 0 1 1 1\n"

    @pytest.mark.parametrize("placement", list(Placement))
    @pytest.mark.parametrize("mode", list(TerminalMode))
    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_round_trip(self, n, placement, mode):
        net = build_netlist(HypercubeRow(n), placement, mode)
        assert load_netlist(dump_netlist(net)) == net

    def test_round_trip_with_slot_order(self):
        net = build_netlist(
            HypercubeRow(8),
            mode=TerminalMode.DIM_ORDERED,
            slot_order=(2, 3, 1),
        )
        assert load_netlist(dump_netlist(net)) == net

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 normal free\n",
            "8 normal\n",
            "7 normal free\n",
            "8 sideways free\n",
            "2 normal free\n1 0 1 1\n",
            "2 normal free\n1 0 1 1 x\n",
            "2 normal free\n2 0 1 1 1\n",
            "2 normal free\n1 1 0 1 1\n",
            "2 normal free\n1 0 1 0 1\n",
            "2 normal free\n",
            "4 normal free\n" + "1 0 1 1 1\n" * 2 + "2 0 2 2 2\n2 1 3 2 2\n",
        ],
    )
    def test_rejects_malformed_text(self, text):
        with pytest.raises(NetlistFormatError):
            load_netlist(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("4 normal", "+4 normal", "bad header '\\+4 normal free'"),
            ("4 normal", "\u0664 normal", "bad header"),
            ("1 0 1 1 1", "1 0_0 1 1 1", "'1 0_0 1 1 1'"),
            ("1 0 1 1 1", "+1 0 1 1 1", "'\\+1 0 1 1 1'"),
            ("1 0 1 1 1", "1 0 1 \u0661 1", "'1 0 1 \u0661 1'"),
        ],
    )
    def test_rejects_fields_that_are_not_ascii_digits(self, old, new, message):
        # int() alone takes each of these and the text loads as the real netlist.
        bad = dump_netlist(build_netlist(HypercubeRow(4))).replace(old, new, 1)
        with pytest.raises(NetlistFormatError, match=message):
            load_netlist(bad)

    @pytest.mark.parametrize(
        "placement, old, new, message",
        [
            (Placement.NORMAL, "1 0 1 1 1", "0 0 1 1 1", "dimension 0 outside 1..2"),
            (Placement.NORMAL, "1 0 1 1 1", "3 0 1 1 1", "dimension 3 outside 1..2"),
            (Placement.NORMAL, "1 2 1 3 1", "1 4 1 5 1", r"bad column pair \(4, 5\)"),
            (Placement.NORMAL, "1 2 1 3 1", "1 3 1 2 1", r"bad column pair \(3, 2\)"),
            (Placement.NORMAL, "1 2 1 3 1", "1 1 1 2 1", "columns 1 and 2 do not hold a dimension-1 pair"),
            (Placement.GRAY, "2 0 2 3 2", "2 0 2 2 2", "columns 0 and 2 do not hold a dimension-2 pair"),
        ],
    )
    def test_each_structural_check_names_its_fault(self, placement, old, new, message):
        # One fault per text, so each check is the only one that can catch it.
        bad = dump_netlist(build_netlist(HypercubeRow(4), placement)).replace(old, new, 1)
        with pytest.raises(NetlistFormatError, match=message):
            load_netlist(bad)

    def test_rejects_a_field_too_long_to_parse(self):
        # Digits only, so it passes the field check, but int() refuses more
        # than 4300 digits by default.
        line = "1 0 1 " + "0" * 5000 + "1 1"
        bad = dump_netlist(build_netlist(HypercubeRow(4))).replace("1 0 1 1 1", line, 1)
        with pytest.raises(NetlistFormatError, match="too long to parse") as error:
            load_netlist(bad)
        assert repr(line) in str(error.value)

    @pytest.mark.parametrize(
        "load, kind, width",
        [(load_netlist, "wire", 5), (load_assignment, "assignment", 4)],
        ids=["netlist", "assignment"],
    )
    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda line: line + " 1", "bad {kind} line {bad!r}, want {width} fields"),
            (lambda line: line.replace(" ", " x", 1), "non-integer field in {kind} line {bad!r}"),
            (
                lambda line: line.replace(" ", " " + "0" * 5000, 1),
                "bad {kind} line {bad!r}: a field is too long to parse",
            ),
        ],
        ids=["field-count", "non-digit", "too-long"],
    )
    def test_each_loader_names_the_line_of_a_lexical_fault(self, load, kind, width, fault, message):
        # Every other line of the text is valid, the netlist's header and
        # wire count included, so only the lexical rules can reject it.
        net = build_netlist(HypercubeRow(4))
        intervals = wire_intervals(net)
        if load is load_netlist:
            text = dump_netlist(net)
        else:
            text = dump_assignment(intervals, left_edge_route(intervals))
        lines = text.splitlines()
        lines[-1] = bad = fault(lines[-1])
        with pytest.raises(NetlistFormatError) as error:
            load("\n".join(lines) + "\n")
        assert str(error.value) == message.format(kind=kind, bad=bad, width=width)

    @pytest.mark.parametrize("load", [load_netlist, load_assignment], ids=["netlist", "assignment"])
    @pytest.mark.parametrize("newline", ["\n", "\r", "\v", "\f", "\r\n"], ids=["LF", "CR", "VT", "FF", "CRLF"])
    def test_a_non_digit_field_quotes_only_its_line(self, load, newline):
        # The loaders split lines as str.splitlines does, so a text split by
        # any of these breaks loads, and a bad field names its line alone:
        # not the text up to the next LF, nor the line with its CR.
        net = build_netlist(HypercubeRow(64))
        intervals = wire_intervals(net)
        if load is load_netlist:
            text = dump_netlist(net)
        else:
            text = dump_assignment(intervals, left_edge_route(intervals))
        lines = text.splitlines()
        assert load(newline.join(lines)) == load(text)
        middle = len(lines) // 2
        lines[middle] = bad = lines[middle].replace(" ", " x", 1)
        with pytest.raises(NetlistFormatError) as error:
            load(newline.join(lines) + newline)
        kind = "wire" if load is load_netlist else "assignment"
        assert str(error.value) == f"non-integer field in {kind} line {bad!r}"

    @pytest.mark.parametrize(
        "odd",
        ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\n\x1f\n", "\n\xa0\n"],
        ids=["FS", "GS", "RS", "NEL", "LS", "PS", "US-line", "NBSP-line"],
    )
    def test_a_character_between_lines_is_quoted_alone(self, odd):
        # splitlines breaks at the file, group and record separators, NEL
        # and the line and paragraph separators, and str.strip drops a line
        # of one unit separator or no-break space, but none of them is a
        # field character: each is refused and quoted on its own.
        with pytest.raises(NetlistFormatError) as error:
            load_assignment(f"1 0 1 1{odd}1 2 3 1\n")
        assert str(error.value) == f"non-integer field in assignment line {odd.strip(chr(10))!r}"

    def test_zero_padded_fields_load(self):
        good = dump_netlist(build_netlist(HypercubeRow(4)))
        assert load_netlist(good.replace("1 0 1 1 1", "01 000 1 001 1", 1)) == load_netlist(good)

    def test_rejects_wire_that_is_not_a_link(self):
        # columns 0 and 3 differ in two bits under normal placement
        good = dump_netlist(build_netlist(HypercubeRow(4)))
        bad = good.replace("2 0 2 2 2", "2 0 3 2 2", 1)
        with pytest.raises(NetlistFormatError):
            load_netlist(bad)

    def test_gray_netlist_validates_against_gray_columns(self):
        net = build_netlist(HypercubeRow(16), Placement.GRAY)
        assert load_netlist(dump_netlist(net)) == net

    def test_rejects_repeated_link(self):
        # Every count still matches: the duplicate stands in for the missing
        # link 1 2 1 3 1.
        good = dump_netlist(build_netlist(HypercubeRow(4)))
        bad = good.replace("1 2 1 3 1", "1 0 1 1 1", 1)
        assert bad.count("1 0 1 1 1") == 2
        with pytest.raises(NetlistFormatError, match="listed twice"):
            load_netlist(bad)

    @pytest.mark.parametrize("placement", list(Placement))
    def test_rejects_repeated_link_anywhere(self, placement):
        net = build_netlist(HypercubeRow(16), placement)
        lines = dump_netlist(net).splitlines()
        for victim in range(1, len(lines)):
            dim = lines[victim].split()[0]
            twin = next(i for i in range(1, len(lines)) if i != victim and lines[i].split()[0] == dim)
            bad = lines[:victim] + [lines[twin]] + lines[victim + 1 :]
            with pytest.raises(NetlistFormatError):
                load_netlist("\n".join(bad) + "\n")

    def test_wire_count_is_checked_before_sizing_by_the_header(self):
        with pytest.raises(NetlistFormatError, match="1 wire lines, want 10485760"):
            load_netlist("1048576 normal dim-ordered\n1 0 1 1 1\n")

    def test_rejects_two_wires_on_one_slot(self):
        good = dump_netlist(build_netlist(HypercubeRow(4), mode=TerminalMode.DIM_ORDERED))
        bad = good.replace("2 0 2 2 2", "2 0 1 2 2", 1)
        assert bad != good
        with pytest.raises(NetlistFormatError, match="slot 1 of column 0"):
            load_netlist(bad)

    def test_a_bad_slot_is_quoted_in_the_file_order(self):
        good = dump_netlist(build_netlist(HypercubeRow(4), mode=TerminalMode.DIM_ORDERED))
        bad = good.replace("1 0 1 1 1", "1 0 5 1 1", 1)
        assert bad != good
        with pytest.raises(NetlistFormatError, match=r"^slot outside 1\.\.2 in wire '1 0 5 1 1' \(dim left_col"):
            load_netlist(bad)

    def test_free_mode_slots_are_not_checked(self):
        # Free terminals carry slot = dim only as a drawing convention.
        good = dump_netlist(build_netlist(HypercubeRow(4)))
        assert len(load_netlist(good.replace("2 0 2 2 2", "2 0 1 2 2", 1)).wires) == 4


def test_netlist_is_hashable_and_frozen():
    net = build_netlist(HypercubeRow(4))
    with pytest.raises(AttributeError):
        net.mode = TerminalMode.DIM_ORDERED
    assert isinstance(net, Netlist)
    assert len({net, build_netlist(HypercubeRow(4))}) == 1


def test_wire_pairs_cover_all_links_once():
    net = build_netlist(HypercubeRow(16))
    seen = set()
    for w in net.wires:
        pair = frozenset((w.left_col, w.right_col))
        assert pair not in seen
        seen.add(pair)
        assert w.left_col ^ w.right_col == 1 << (w.dim - 1)
    assert len(seen) == 32  # 16/2 links per dimension, 4 dimensions
