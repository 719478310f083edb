"""Closed-form density operations against frozen values and the brute oracle."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberow.density import (
    HypercubeRow,
    cut_density,
    cut_density_bitsum,
    cut_density_bitsum_profile,
    cut_density_profile,
    dimension_link_count,
    leftmost_max_cut,
    max_cut_density,
    max_density_cuts,
)
from cuberow.errors import InvalidCutError, InvalidDimensionError, RowSizeError
from cuberow.netlist import build_netlist
from cuberow.oracle import brute_link_count, brute_maximizers, crossing_profile


class TestHypercubeRow:
    def test_valid_sizes(self):
        for n in (2, 4, 8, 1024, 2**30):
            assert HypercubeRow(n).n == n

    def test_dims(self):
        assert HypercubeRow(2).dims == 1
        assert HypercubeRow(8).dims == 3
        assert HypercubeRow(1024).dims == 10

    @pytest.mark.parametrize("bad", [0, 1, -2, 3, 6, 100, 2**30 + 1, 2**31])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(RowSizeError):
            HypercubeRow(bad)

    @pytest.mark.parametrize("bad", [True, 2.0, "8"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(RowSizeError):
            HypercubeRow(bad)


class TestDimensionLinkCount:
    def test_frozen_examples(self):
        row = HypercubeRow(8)
        assert dimension_link_count(row, 0, 3) == 0
        assert dimension_link_count(row, 4, 3) == 4
        assert dimension_link_count(row, 5, 3) == 3

    def test_errors(self):
        row = HypercubeRow(8)
        with pytest.raises(InvalidDimensionError):
            dimension_link_count(row, 1, 0)
        with pytest.raises(InvalidDimensionError):
            dimension_link_count(row, 1, 4)
        with pytest.raises(InvalidCutError):
            dimension_link_count(row, -1, 1)
        with pytest.raises(InvalidCutError):
            dimension_link_count(row, 9, 1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matches_wire_enumeration(self, n):
        row = HypercubeRow(n)
        net = build_netlist(row)
        for dim in range(1, row.dims + 1):
            for cut in range(n + 1):
                assert dimension_link_count(row, cut, dim) == brute_link_count(
                    net, cut, dim
                )

    def test_ramp_shape(self):
        # the count climbs to the span length and falls back, repeating
        row = HypercubeRow(16)
        values = [dimension_link_count(row, cut, 3) for cut in range(17)]
        assert values == [0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0]


class TestCutDensity:
    def test_frozen_examples(self):
        row = HypercubeRow(8)
        assert cut_density(row, 3) == 5
        assert cut_density(row, 4) == 4

    def test_full_profile_n8(self):
        row = HypercubeRow(8)
        assert [cut_density(row, i) for i in range(9)] == [0, 3, 4, 5, 4, 5, 4, 3, 0]

    def test_full_profile_n16(self):
        row = HypercubeRow(16)
        expected = [0, 4, 6, 8, 8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 6, 4, 0]
        assert [cut_density(row, i) for i in range(17)] == expected

    def test_outer_cuts_are_empty(self):
        for n in (2, 8, 64):
            row = HypercubeRow(n)
            assert cut_density(row, 0) == 0
            assert cut_density(row, n) == 0

    def test_errors(self):
        with pytest.raises(InvalidCutError):
            cut_density(HypercubeRow(8), 9)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_matches_oracle(self, n):
        row = HypercubeRow(n)
        brute = crossing_profile(build_netlist(row)).gap_profile()
        assert [cut_density(row, i) for i in range(n + 1)] == brute

    @given(d=st.integers(1, 11), data=st.data())
    @settings(max_examples=80)
    def test_symmetry(self, d, data):
        row = HypercubeRow(2**d)
        cut = data.draw(st.integers(1, row.n - 1))
        assert cut_density(row, cut) == cut_density(row, row.n - cut)

    @given(d=st.integers(1, 11), data=st.data())
    @settings(max_examples=80)
    def test_peak_bound(self, d, data):
        row = HypercubeRow(2**d)
        cut = data.draw(st.integers(1, row.n - 1))
        peak = max_cut_density(row)
        first = leftmost_max_cut(row)
        assert cut_density(row, cut) <= min(peak, peak - (first - cut))

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_interior_sum_is_total_wirelength(self, n):
        row = HypercubeRow(n)
        assert sum(cut_density(row, i) for i in range(1, n)) == (n // 2) * (n - 1)


class TestPeakFormulas:
    def test_frozen_examples(self):
        assert max_cut_density(HypercubeRow(8)) == 5
        assert max_cut_density(HypercubeRow(2)) == 1
        assert max_cut_density(HypercubeRow(16)) == 10
        assert leftmost_max_cut(HypercubeRow(8)) == 3
        assert leftmost_max_cut(HypercubeRow(2)) == 1
        assert leftmost_max_cut(HypercubeRow(16)) == 5

    @pytest.mark.parametrize("d", range(1, 13))
    def test_peak_equals_two_thirds_floor(self, d):
        assert max_cut_density(HypercubeRow(2**d)) == (2 * 2**d) // 3

    @pytest.mark.parametrize("d", range(1, 11))
    def test_peak_and_leftmost_match_scan(self, d):
        row = HypercubeRow(2**d)
        profile = [cut_density(row, i) for i in range(1, row.n)]
        assert max_cut_density(row) == max(profile)
        assert leftmost_max_cut(row) == profile.index(max(profile)) + 1


class TestBitsumForm:
    def test_frozen_examples(self):
        assert cut_density_bitsum(HypercubeRow(8), 3) == 5
        assert cut_density_bitsum(HypercubeRow(8), 6) == 4
        assert cut_density_bitsum(HypercubeRow(4), 1) == 2

    def test_open_range_only(self):
        row = HypercubeRow(8)
        with pytest.raises(InvalidCutError):
            cut_density_bitsum(row, 0)
        with pytest.raises(InvalidCutError):
            cut_density_bitsum(row, 8)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_agrees_with_summed_form(self, d):
        row = HypercubeRow(2**d)
        for cut in range(1, row.n):
            assert cut_density_bitsum(row, cut) == cut_density(row, cut)


# A bool would stand for 1, and a float or str must not escape as a bare
# TypeError: each raises the error of a cut or dimension out of range.
@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda row, bad: cut_density(row, bad), InvalidCutError),
        (lambda row, bad: cut_density_bitsum(row, bad), InvalidCutError),
        (lambda row, bad: dimension_link_count(row, bad, 1), InvalidCutError),
        (lambda row, bad: dimension_link_count(row, 3, bad), InvalidDimensionError),
    ],
    ids=["cut_density", "cut_density_bitsum", "link-count-cut", "link-count-dimension"],
)
def test_a_cut_or_dimension_must_be_an_int(call, error, bad):
    with pytest.raises(error, match=f"must be an int, got {re.escape(repr(bad))}$"):
        call(HypercubeRow(8), bad)


class TestBatchProfiles:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_profile_matches_scalar(self, d):
        row = HypercubeRow(2**d)
        profile = cut_density_profile(row)
        assert profile == [cut_density(row, i) for i in range(row.n + 1)]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_bitsum_profile_interior(self, d):
        row = HypercubeRow(2**d)
        profile = cut_density_bitsum_profile(row)
        assert profile[0] == profile[row.n] == 0
        assert profile[1 : row.n] == [cut_density(row, i) for i in range(1, row.n)]


class TestMaximizers:
    def test_frozen_examples(self):
        assert max_density_cuts(HypercubeRow(8)) == [3, 5]
        assert max_density_cuts(HypercubeRow(16)) == [5, 6, 7, 9, 10, 11]
        assert max_density_cuts(HypercubeRow(2)) == [1]
        assert max_density_cuts(HypercubeRow(4)) == [1, 2, 3]
        assert max_density_cuts(HypercubeRow(32)) == [11, 13, 19, 21]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_oracle_scan(self, d):
        row = HypercubeRow(2**d)
        assert max_density_cuts(row) == brute_maximizers(build_netlist(row))

    @pytest.mark.parametrize("d", range(1, 21))
    def test_sorted_and_leftmost(self, d):
        # Every row the density command takes: the cuts where the
        # recurrence's profile peaks know nothing of the bit-pair rule.
        row = HypercubeRow(2**d)
        cuts = max_density_cuts(row)
        assert cuts == sorted(cuts)
        assert cuts[0] == leftmost_max_cut(row)
        profile = cut_density_profile(row)
        peak = max(profile)
        assert cuts == [cut for cut, value in enumerate(profile) if value == peak]

    @pytest.mark.parametrize("d", range(1, 31))
    def test_scalar_forms_agree_up_to_the_largest_row(self, d):
        # Random cuts of every row size the package takes, far beyond what
        # the profiles or the oracle can build: the two closed forms, the
        # per-dimension counts, the mirror, and the peak exactly on the
        # maximizers.
        row = HypercubeRow(2**d)
        rng = random.Random(d)
        peak, maximizers = max_cut_density(row), max_density_cuts(row)
        peaks = set(maximizers)
        cuts = [rng.randrange(1, row.n) for _ in range(300)]
        cuts += rng.sample(maximizers, min(len(maximizers), 50))
        for cut in cuts:
            value = cut_density(row, cut)
            assert value == cut_density_bitsum(row, cut)
            assert value == sum(dimension_link_count(row, cut, dim) for dim in range(1, d + 1))
            assert value == cut_density(row, row.n - cut)
            assert (value == peak) == (cut in peaks)
            dim = rng.randint(1, d)
            count = dimension_link_count(row, cut, dim)
            assert 0 <= count <= 2 ** (dim - 1) and count == dimension_link_count(row, row.n - cut, dim)

    def test_bisection_never_maximal_from_8(self):
        for d in range(3, 13):
            row = HypercubeRow(2**d)
            assert cut_density(row, row.n // 2) < max_cut_density(row)
