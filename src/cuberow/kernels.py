"""Batch kernels: the inner loops behind the package's exhaustive sweeps.

Pure Python, one home per formula.  :mod:`cuberow.density` and
:mod:`cuberow.oracle` wrap these with validation, so inputs are assumed
valid here: every ``n`` is a power of two.
"""

from __future__ import annotations

from itertools import accumulate, islice


def accumulate_spans(num_cuts: int, lows: list[int], highs: list[int]) -> list[int]:
    """Coverage count at each cut index for inclusive ranges [low, high].

    Difference array: every range adds 1 at its low end and removes it just
    past its high end, then a prefix sum recovers the per-cut totals.
    Requires 0 <= low <= high < num_cuts for every range.
    """
    diff = [0] * (num_cuts + 1)
    for low, high in zip(lows, highs):
        diff[low] += 1
        diff[high + 1] -= 1
    diff.pop()
    return list(accumulate(diff))


def density_profile(n: int) -> list[int]:
    """Crossing count at every intercolumn cut 0..n of an n-node row.

    Column ``i`` sends ``dims - popcount(i)`` wires to the right and receives
    ``popcount(i)`` from the left, so ``S(i+1) = S(i) + dims - 2*popcount(i)``
    starting from ``S(0) = 0``.  The recurrence runs over the cuts up to
    ``n/2`` only; the rest of the list is their mirror ``S(n - i) = S(i)``,
    holding the very same int objects, so the second half costs neither
    arithmetic nor int memory.
    """
    dims = n.bit_length() - 1
    half = n // 2
    profile = list(accumulate((dims - 2 * i.bit_count() for i in range(half)), initial=0))
    # The middle cut is its own mirror, so it is not repeated; a one-node
    # row has no middle cut and mirrors its only entry.
    profile.extend(islice(reversed(profile), 1 - n % 2, None))
    return profile


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
