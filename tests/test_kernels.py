"""The batch kernels on small inputs and against each other."""

import os
from itertools import accumulate, chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cuberow import cli, kernels, netlist
from cuberow.density import HypercubeRow, cut_density_profile


@st.composite
def _spans(draw):
    """A cut count and valid inclusive spans ``(low, high)`` on it."""
    num_cuts = draw(st.integers(1, 40))
    ends = st.lists(st.integers(0, num_cuts - 1), min_size=2, max_size=2).map(sorted).map(tuple)
    return num_cuts, draw(st.lists(ends, max_size=30))


class TestAccumulateSpans:
    def test_empty(self):
        assert kernels.accumulate_spans(4, []) == (0, 0, 0, 0)

    def test_single_span(self):
        assert kernels.accumulate_spans(5, [(1, 3)]) == (0, 1, 1, 1, 0)

    def test_stacked_spans(self):
        assert kernels.accumulate_spans(5, [(0, 4), (0, 1), (2, 2)]) == (2, 2, 2, 1, 1)

    @given(case=_spans())
    @example(case=(1, []))
    @example(case=(7, []))
    @example(case=(7, [(0, 0), (6, 6), (0, 6), (0, 3), (3, 6)]))
    def test_equals_a_per_cut_count(self, case):
        num_cuts, spans = case
        naive = tuple(sum(low <= cut <= high for low, high in spans) for cut in range(num_cuts))
        assert kernels.accumulate_spans(num_cuts, iter(spans)) == naive


class TestProfiles:
    def test_pure_profile_small_values(self):
        assert kernels.density_profile(4) == [0, 2, 2, 2, 0]
        assert kernels.bitsum_profile(4) == [0, 2, 2, 2, 0]

    def test_profile_equals_the_full_recurrence(self):
        for d in range(1, 17):
            n = 2**d
            full = list(accumulate((d - 2 * i.bit_count() for i in range(n)), initial=0))
            assert kernels.density_profile(n) == full

    def test_second_half_holds_the_first_halfs_ints(self):
        # What keeps the profile's memory to one int object per mirror pair.
        for d in range(1, 17):
            n = 2**d
            profile = kernels.density_profile(n)
            assert all(profile[i] is profile[n - i] for i in range(n + 1))

    def test_profiles_cross_agree(self):
        for d in range(1, 12):
            n = 2**d
            summed = kernels.density_profile(n)
            bitsum = kernels.bitsum_profile(n)
            assert summed[1:n] == bitsum[1:n]


class TestProfileBlocks:
    # Rows from one block (n = 2, whose only block is cut 1) up to many, so
    # the first block, which lacks cut 0, and the last, which ends at n - 1,
    # are each met on their own and beside others.  The profile itself is
    # read from the blocks, so the plain recurrence is the reference too.
    @pytest.mark.parametrize("d", range(1, 21))
    def test_blocks_join_to_the_interior_profile(self, d):
        n = 2**d
        blocks = list(kernels._profile_blocks(n))
        full = list(accumulate((d - 2 * i.bit_count() for i in range(n)), initial=0))
        assert list(chain.from_iterable(blocks)) == cut_density_profile(HypercubeRow(n))[1:n] == full[1:n]

    @pytest.mark.parametrize("d", range(1, 21))
    def test_blocks_span_half_the_bits(self, d):
        # 2^ceil(d/2) cuts a block, the first one short by cut 0, and so at
        # most one chunk of the writer's up to the density command's cap.
        width = 2 ** ((d + 1) // 2)
        lengths = [len(block) for block in kernels._profile_blocks(2**d)]
        assert lengths == [width - 1] + [width] * (2**d // width - 1)
        if 2**d <= cli.MAX_CLOSED_FORM_NODES:
            assert max(lengths) <= cli._BLOCK

    def test_the_tables_are_built_once_per_row_size(self):
        # The S column and the slot rows of a dim-ordered table read the
        # same split tables, so one command builds them once.
        kernels._gap_tables.cache_clear()
        netlist._row_tables.cache_clear()
        try:
            assert cli.main(["density", "--n", "256", "--mode", "dim-ordered", "--format", "csv", "--out", os.devnull]) == 0
            top, twice = kernels._gap_tables(256)[2:4]
            assert netlist._row_tables(256)[2] is top and netlist._row_tables(256)[3] is twice
            assert kernels._gap_tables.cache_info().misses == 1
        finally:
            kernels._gap_tables.cache_clear()
            netlist._row_tables.cache_clear()


class TestExcessAbove:
    def test_small_value(self):
        # 0b0110 over 4 bits: position 0 sees all four bits, position 4 none.
        assert [kernels._excess_above(0b0110, 4, j) for j in range(5)] == [0, 1, 0, -1, 0]

    @given(value=st.integers(0, 2**12 - 1), position=st.integers(0, 12))
    def test_matches_direct_count(self, value, position):
        ones = sum((value >> (j - 1)) & 1 for j in range(position + 1, 13))
        zeros = (12 - position) - ones
        assert kernels._excess_above(value, 12, position) == ones - zeros
