"""Batch kernels: the inner loops behind the package's exhaustive sweeps.

Pure Python, one home per formula: the gap recurrence runs only in
:func:`_gap_tables`.  Inputs are assumed valid here: every ``n`` is a power
of two, at least 2.  :mod:`cuberow.density` and :mod:`cuberow.oracle` wrap
these with validation; :mod:`cuberow.cli` and :mod:`cuberow.netlist` read
the private ones directly, each on a row and arguments it has checked.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, chain, islice
from operator import add


def accumulate_spans(num_cuts: int, spans: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Coverage count at each cut index for inclusive ranges ``(low, high)``.

    Difference array: every range adds 1 at its low end and removes it just
    past its high end, then a prefix sum recovers the per-cut totals.
    ``spans`` is read once, so a generator of ranges costs no list.  The
    totals share one int object per value, the first the sum made, so the
    result holds a pointer per cut and an int per distinct count.
    Requires 0 <= low <= high < num_cuts for every range.
    """
    diff = [0] * (num_cuts + 1)
    for low, high in spans:
        diff[low] += 1
        diff[high + 1] -= 1
    diff.pop()
    return tuple(map(_First().__getitem__, accumulate(diff)))


class _First(dict):
    """Int -> the first int object of its value given as a key."""

    __slots__ = ()

    def __missing__(self, value: int) -> int:
        self[value] = value
        return value


def density_profile(n: int) -> list[int]:
    """Crossing count at every intercolumn cut 0..n of an n-node row.

    The cuts up to ``n/2`` are read from :func:`_profile_blocks`; the rest
    of the list is their mirror ``S(n - i) = S(i)``, holding the very same
    int objects, so the second half costs neither arithmetic nor int memory.
    """
    profile = [0, *islice(chain.from_iterable(_profile_blocks(n)), n // 2)]
    # The middle cut is its own mirror, so it is not repeated.
    profile.extend(islice(reversed(profile), 1, None))
    return profile


@lru_cache(maxsize=1)
def _gap_tables(n: int):
    """The split tables of the crossing count S at the cuts of an n-node
    row, for the last row size asked for: h = ceil(dims / 2) and its mask,
    ``top[k] = S(k * 2^h)`` and ``twice[k] = 2*popcount(k)`` for
    k = 0..2^(dims-h), and ``start[lo] = S(lo)`` for lo = 0..2^h.

    Column ``i`` sends ``dims - popcount(i)`` wires to the right and receives
    ``popcount(i)`` from the left, so ``S(i+1) = S(i) + dims - 2*popcount(i)``
    from ``S(0) = 0``, which splits over the halves of a cut's bits as
    ``S(k * 2^h + lo) = S(k * 2^h) + S(lo) - 2*popcount(k)*lo`` for
    ``lo <= 2^h``: O(sqrt(n)) entries, exact at 2^30.  Keyed on n, so a
    cache hit hashes one int; the tables are shared, so none is handed on.
    """
    dims = n.bit_length() - 1
    half = (dims + 1) // 2
    start = list(accumulate((dims - 2 * j.bit_count() for j in range(1 << half)), initial=0))
    twice = [2 * k.bit_count() for k in range((n >> half) + 1)]
    # Each step spans 2^h cuts, from S(k * 2^h) by the split at lo = 2^h.
    top = list(accumulate((start[-1] - (t << half) for t in twice[:-1]), initial=0))
    return half, (1 << half) - 1, top, twice, start


def _gap_density(n: int, cut: int) -> int:
    # S(cut) for 0 <= cut <= n, read from the split tables.
    half, mask, top, twice, start = _gap_tables(n)
    k, lo = cut >> half, cut & mask
    return top[k] - twice[k] * lo + start[lo]


def _profile_blocks(n: int) -> Iterator[list[int]]:
    """The crossing counts at the interior cuts 1..n-1 of an n-node row, in
    blocks of 2^h cuts, the first without cut 0: block k is ``S(lo) +
    S(k * 2^h) - 2*popcount(k)*lo`` for lo below 2^h, with no Python call
    per cut.  A caller that drops each block before the next holds
    O(sqrt(n)) memory for the row: 2^10 cuts at 2^20 nodes.
    """
    half, _, top, twice, start = _gap_tables(n)
    width = 1 << half
    yield start[1:width]
    # The range has the block's width, so map stops before start's last entry.
    for k in range(1, n >> half):
        yield list(map(add, start, range(top[k], top[k] - twice[k] * width, -twice[k])))


def bitsum_profile(n: int) -> list[int]:
    """Interior-cut densities via the bit-decomposition form, 0 at both ends."""
    dims = n.bit_length() - 1
    return [0, *(_bitsum(cut, dims) for cut in range(1, n)), 0]


def _excess_above(value: int, width: int, position: int) -> int:
    # Ones minus zeros among the bits of a width-bit value above position.
    return 2 * (value >> position).bit_count() - (width - position)


def _bitsum(cut: int, width: int) -> int:
    # Density at interior cut 0 < cut < 2**width from the cut's bits and
    # their suffix excesses.  Scaled by 4 to stay in integers; the total is
    # always divisible by 4.
    acc = 2 * (_excess_above(cut, width, 0) + (1 << width) - 1)
    for pos in range(1, width):
        signed = 1 - 2 * ((cut >> (pos - 1)) & 1)
        acc += (1 << pos) * signed * _excess_above(cut, width, pos)
    q, r = divmod(acc, 4)
    assert r == 0, f"bit-decomposition sum not divisible by 4 at cut {cut}"
    return q
