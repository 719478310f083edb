"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each docstring's first line is echoed as a PASS/FAIL line in the terminal
summary (see conftest).  The sweeps here deliberately re-derive everything
through both the closed-form route and the brute-force oracle.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import permutations

import pytest

from cuberow.cli import main as cli_main
from cuberow.density import (
    HypercubeRow,
    cut_density,
    cut_density_bitsum,
    cut_density_profile,
    dimension_link_count,
    leftmost_max_cut,
    max_cut_density,
    max_density_cuts,
)
from cuberow.errors import TooManyWiresError
from cuberow.netlist import (
    Placement,
    TerminalMode,
    build_netlist,
    max_terminal_cut_density,
    max_wirelength,
    terminal_cut_density,
    total_wirelength,
)
from cuberow.oracle import (
    EXACT_SEARCH_WIRES,
    brute_maximizers,
    brute_track_count,
    crossing_profile,
)
from cuberow.routing import channel_density, left_edge_route, verify_assignment, wire_intervals

EXHAUSTIVE_DIMS = range(1, 13)  # rows of 2 .. 4096 nodes
FINE_DIMS = range(1, 11)  # rows of 2 .. 1024 nodes for fine-cut sweeps


def test_criterion_1_exact_small_row_numbers():
    """criterion 1: n=8 peak density 5, free routing 5 tracks, ordered routing 6"""
    row = HypercubeRow(8)
    assert max_cut_density(row) == 5
    free = left_edge_route(wire_intervals(build_netlist(row)))
    assert free.track_count == 5
    ordered = left_edge_route(
        wire_intervals(build_netlist(row, mode=TerminalMode.DIM_ORDERED))
    )
    assert ordered.track_count == 6


def test_criterion_2_closed_form_equivalence():
    """criterion 2: per-dimension sum = bit-decomposition = oracle, n up to 4096"""
    for d in EXHAUSTIVE_DIMS:
        row = HypercubeRow(2**d)
        batch = cut_density_profile(row)
        brute = crossing_profile(build_netlist(row)).gap_profile()
        assert batch == brute
        for cut in range(1, row.n):
            summed = cut_density(row, cut)
            assert summed == batch[cut]
            assert cut_density_bitsum(row, cut) == summed
        # the per-dimension formula also matches its own summed profile
        for cut in range(0, row.n + 1, max(1, row.n // 64)):
            assert sum(
                dimension_link_count(row, cut, k) for k in range(1, d + 1)
            ) == batch[cut]


def test_criterion_3_symmetry_and_peak_bound():
    """criterion 3: mirror symmetry and the min(m, m-(p-i)) bound, n up to 4096"""
    for d in EXHAUSTIVE_DIMS:
        row = HypercubeRow(2**d)
        profile = cut_density_profile(row)
        peak = max_cut_density(row)
        first = leftmost_max_cut(row)
        for cut in range(1, row.n):
            # The profile mirrors its own first half, so S(n - cut) comes
            # from the scalar form.
            assert profile[cut] == cut_density(row, row.n - cut)
            assert profile[cut] <= min(peak, peak - (first - cut))
        assert profile[first] == peak


def test_criterion_4_maximizer_characterization():
    """criterion 4: bit-pattern maximizer set equals the oracle argmax set"""
    for d in EXHAUSTIVE_DIMS:
        row = HypercubeRow(2**d)
        pattern = max_density_cuts(row)
        assert pattern == brute_maximizers(build_netlist(row))
        assert pattern[0] == leftmost_max_cut(row)


def test_criterion_5_terminal_ordered_maximum():
    """criterion 5: ordered-terminal peak is m+1, only on maximizer cuts"""
    for d in range(2, 11):  # 2 < n <= 1024
        row = HypercubeRow(2**d)
        peak, attained = max_terminal_cut_density(row)
        assert peak == max_cut_density(row) + 1
        table = crossing_profile(
            build_netlist(row, Placement.NORMAL, TerminalMode.DIM_ORDERED)
        )
        assert table.fine_max() == peak
        # Every (cut, slot) attaining the peak, in scan order, is the
        # oracle's argmax over the slot cuts, and lies on an intercolumn
        # maximizer.
        slots = {
            (cut, slot): table.node_cut(cut - 1, slot)
            for cut in range(1, row.n + 1)
            for slot in range(1, d + 1)
        }
        top = max(slots.values())
        assert attained == [pair for pair, count in slots.items() if count == top]
        assert {cut for cut, _ in attained} <= set(max_density_cuts(row))
    # every one of the 6 shared terminal orderings of an 8-node row pays
    # exactly the one-track penalty
    row8 = HypercubeRow(8)
    for order in permutations((1, 2, 3)):
        net = build_netlist(
            row8, Placement.NORMAL, TerminalMode.DIM_ORDERED, slot_order=order
        )
        assert crossing_profile(net).fine_max() == max_cut_density(row8) + 1


def test_criterion_6_router_optimality():
    """criterion 6: left-edge track count = channel density = exact minimum"""
    for d in FINE_DIMS:
        row = HypercubeRow(2**d)
        for placement in Placement:
            for mode in TerminalMode:
                intervals = wire_intervals(build_netlist(row, placement, mode))
                assignment = left_edge_route(intervals)
                assert assignment.track_count == channel_density(intervals)
                assert verify_assignment(intervals, assignment).ok
                try:
                    assert assignment.track_count == brute_track_count(intervals)
                except TooManyWiresError:
                    assert len(intervals) > EXACT_SEARCH_WIRES


def test_criterion_7_gray_code_equalities():
    """criterion 7: gray = closed forms at every fine cut, equal total length, spans n/2 vs n-1"""
    for d in FINE_DIMS:
        row = HypercubeRow(2**d)
        normal = build_netlist(row)
        gray = build_netlist(row, Placement.GRAY)
        free = crossing_profile(gray)
        assert free.gap_profile() == cut_density_profile(row)
        assert free.interior_gap_max() == max_cut_density(row)
        # Pinned terminals: every gap and every slot cut of every column.
        table = crossing_profile(build_netlist(row, Placement.GRAY, TerminalMode.DIM_ORDERED))
        assert table.gap_profile() == cut_density_profile(row)
        for col in range(row.n):
            for slot in range(1, d + 1):
                assert table.node_cut(col, slot) == terminal_cut_density(row, col + 1, slot)
        assert total_wirelength(gray) == total_wirelength(normal)
        assert max_wirelength(normal) == row.n // 2
        assert max_wirelength(gray) == row.n - 1


def test_criterion_8_bisection_not_maximal():
    """criterion 8: the half-way cut stays below the peak from n=8 up"""
    for d in range(3, 13):
        row = HypercubeRow(2**d)
        assert cut_density(row, row.n // 2) < max_cut_density(row)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_criterion_9_route_json_determinism(n):
    """criterion 9: route --format json is byte-identical across runs"""
    outputs = set()
    for _ in range(3):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["route", "--n", str(n), "--format", "json"])
        assert code == 0
        outputs.add(buffer.getvalue().encode())
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["tracks"] == max_cut_density(HypercubeRow(n))
