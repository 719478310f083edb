"""Batch kernels: the inner loops behind the package's exhaustive sweeps.

Pure Python, one home per formula.  Inputs are assumed valid here: every
``n`` is a power of two.  :mod:`cuberow.density` and :mod:`cuberow.oracle`
wrap these with validation; :mod:`cuberow.cli` reads :func:`_profile_blocks`
and :mod:`cuberow.netlist` reads :func:`_excess_above` directly, each on a
row and arguments it has already checked.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, islice, repeat
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

    The cuts up to ``n/2`` are the first block of :func:`_profile_blocks`;
    the rest of the list is their mirror ``S(n - i) = S(i)``, holding the
    very same int objects, so the second half costs neither arithmetic nor
    int memory.
    """
    half = n // 2
    profile = next(_profile_blocks(n, half)) if half else []
    profile.insert(0, 0)
    # The middle cut is its own mirror, so it is not repeated; a one-node
    # row has no middle cut and mirrors its only entry.
    profile.extend(islice(reversed(profile), 1 - n % 2, None))
    return profile


def _profile_blocks(n: int, size: int) -> Iterator[list[int]]:
    """The crossing counts at the interior cuts 1..n-1 of an n-node row
    (n >= 2), yielded in order as lists of 1 to ``size`` cuts, where
    ``size`` is a power of two.

    Column ``i`` sends ``dims - popcount(i)`` wires to the right and receives
    ``popcount(i)`` from the left, so ``S(i+1) = S(i) + dims - 2*popcount(i)``
    starting from ``S(0) = 0``.  A block covers the cuts past ``a``, a
    multiple of its width, and for ``j`` below the width
    ``popcount(a + j) = popcount(a) + popcount(j)``: each block is one step
    table, made once per row, shifted by ``-2*popcount(a)`` and summed from
    ``S(a)``, with no Python call per cut.  A caller that drops each block
    before the next holds O(size) memory for the whole row.
    """
    dims = n.bit_length() - 1
    width = min(size, n)
    steps = [dims - 2 * j.bit_count() for j in range(width)]
    count = 0
    for start in range(0, n, width):
        shift = -2 * start.bit_count()
        # The list form reads only the first block, which needs no shift.
        block = list(accumulate(map(add, steps, repeat(shift)) if shift else steps, initial=count))
        del block[0]
        count = block[-1]
        if start + width == n:
            block.pop()  # the outer cut n
        if block:
            yield block


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
