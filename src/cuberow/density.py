"""Exact wire-density analysis for a row of hypercube nodes.

A row holds the 2**d nodes of a binary hypercube, one node per column, with
node u sitting in column u.  Every pair of nodes whose labels differ in one
bit is joined by a horizontal wire.  This module answers, in closed form, how
many wires cross each vertical cutline between columns, where that count
peaks, and at exactly which cuts the peak is attained.  Everything here is
formula-driven; :mod:`cuberow.oracle` recomputes the same quantities by brute
force so the two routes can be checked against each other.

The counts hold as well for a row in reflected gray order.  There a
dimension-k link joins columns x and x XOR (2**k - 1): mirrored, nested
pairs inside each aligned block of 2**k columns, of which min(t, 2**k - t)
cross offset t, the same ramp as in column order.  Only the lengths differ.

Cut positions are plain integers: cut ``i`` has ``i`` node columns to its
left, so ``i = 0`` and ``i = n`` are the (always empty) outer cuts.  A cut
or dimension that is not an int in range, a bool included, is refused.
"""

from __future__ import annotations

from collections import namedtuple

from cuberow import kernels
from cuberow.errors import InvalidCutError, InvalidDimensionError, RowSizeError

# Contract cap: every operation is exact up to this many nodes.  Density
# values stay far below 2**63, but inputs beyond the cap are rejected rather
# than silently accepted.  Cost: the list profiles and the netlist are O(n)
# in time and memory.  The gap recurrence runs once per row size, into split
# tables of O(sqrt(n)) entries (``kernels._gap_tables``).  The density
# command's profile takes O(n) time but is read from them one block of
# 2**ceil(d/2) cuts at a time, so it holds no O(n) list.  Every other public
# answer is polynomial in d.  At 2**30, in 256 MB of address space on a
# 2-core host (the capped audit of tests/test_netlist.py), each call takes:
# - ``netlist.terminal_cut_densities`` and ``terminal_cut_density``: about
#   0.3 s for a row's first, which builds its O(sqrt(n) * d) slot ramps
#   (``netlist._row_tables``, about 29 MB), then O(d), about 0.1 ms;
# - ``max_density_cuts``: O(d) per maximizer, about 10 ms for all 49,152;
# - ``cut_density``, ``cut_density_bitsum``, ``max_cut_density``,
#   ``dimension_link_count``, ``netlist.gray_code`` and ``gray_rank``: O(d),
#   under 0.1 ms.
# The one small answer that costs O(n * d) is the dim-ordered peak,
# ``netlist.max_terminal_cut_density``, which reads the slot row of every
# cut: 2.6 to 4 s per 2**20 cuts on the same host, so an hour or more at
# 2**30.
MAX_NODES = 2**30


@classmethod
def _checked_make(cls, iterable):
    # A named tuple's ``_replace`` builds through ``_make``, which skips
    # ``__new__``; a record whose ``__new__`` checks its fields takes this
    # ``_make``, so a replaced field is checked as a new record's are.
    return cls(*iterable)


class HypercubeRow(namedtuple("HypercubeRow", "n")):
    """A single-row layout instance: ``n = 2**dims >= 2`` nodes, one per column.

    A named tuple ``(n,)``, so it compares equal to the plain tuple.
    """

    __slots__ = ()

    def __new__(cls, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise RowSizeError(f"node count must be an integer, got {n!r}")
        if n < 2 or n & (n - 1):
            raise RowSizeError(f"node count must be a power of two with n >= 2, got {n}")
        if n > MAX_NODES:
            raise RowSizeError(f"node count {n} exceeds the supported cap {MAX_NODES}")
        return tuple.__new__(cls, (n,))

    _make = _checked_make

    @property
    def dims(self) -> int:
        """Number of hypercube dimensions, log2 of the node count."""
        return self.n.bit_length() - 1


def _bad_index(what: str, value, low: int, top: int) -> str:
    # Why a cut, slot or dimension is not an int in low..top.  A bool is an
    # int, but True would silently stand for 1.
    if type(value) is not int:
        return f"{what} must be an int, got {value!r}"
    return f"{what} {value} outside {low}..{top}"


def _check_cut(row: HypercubeRow, cut: int) -> None:
    if type(cut) is not int or not 0 <= cut <= row.n:
        raise InvalidCutError(_bad_index("cut", cut, 0, row.n))


def dimension_link_count(row: HypercubeRow, cut: int, dim: int) -> int:
    """Number of dimension-``dim`` wires crossing intercolumn ``cut``.

    A dimension-``dim`` wire spans ``2**(dim-1)`` columns, so the count ramps
    from 0 up to ``2**(dim-1)`` and back down, repeating across the row.
    """
    if type(dim) is not int or not 1 <= dim <= row.dims:
        raise InvalidDimensionError(_bad_index("dimension", dim, 1, row.dims))
    _check_cut(row, cut)
    return _ramp(cut, dim)


def _ramp(cut: int, dim: int) -> int:
    half = 1 << (dim - 1)
    # Floor division and nonnegative remainder are both required here: the
    # cut-0 case walks through a negative intermediate.
    sign = 1 - 2 * (((cut - 1) // half) & 1)
    return (cut * sign) % (half << 1)


def cut_density(row: HypercubeRow, cut: int) -> int:
    """Total number of wires crossing intercolumn ``cut``, summed over dimensions."""
    _check_cut(row, cut)
    return sum(_ramp(cut, dim) for dim in range(1, row.dims + 1))


def cut_density_profile(row: HypercubeRow) -> list[int]:
    """Density at every cut 0..n, by the column-degree recurrence (batch kernel).

    The recurrence covers the cuts up to n/2; the entries past the middle
    are their mirror S(n - i) = S(i), the very same int objects.  Callers
    that check the symmetry therefore compare against an independent form,
    such as :func:`cut_density`, not against the list itself.
    """
    return kernels.density_profile(row.n)


def max_cut_density(row: HypercubeRow) -> int:
    """Peak crossing count over the interior cuts.

    Closed form ``(4n - (-1)**dims - 3) / 6``, which equals ``floor(2n/3)``.
    """
    sign = -1 if row.dims & 1 else 1
    return (4 * row.n - sign - 3) // 6


def leftmost_max_cut(row: HypercubeRow) -> int:
    """Smallest interior cut whose density equals the peak: ``(n - (-1)**dims)/3``."""
    sign = -1 if row.dims & 1 else 1
    return (row.n - sign) // 3


def cut_density_bitsum(row: HypercubeRow, cut: int) -> int:
    """Density at an interior cut, evaluated from the cut's bit decomposition.

    Independent re-derivation of :func:`cut_density` in terms of the cut
    index's bits and their excess statistics; the two must agree everywhere.
    Only interior cuts (0 < cut < n) are defined for this form.
    """
    if type(cut) is not int or not 0 < cut < row.n:
        raise InvalidCutError(_bad_index("cut", cut, 1, row.n - 1))
    return kernels._bitsum(cut, row.dims)


def cut_density_bitsum_profile(row: HypercubeRow) -> list[int]:
    """Bit-decomposition density for cuts 0..n (outer cuts reported as 0)."""
    return kernels.bitsum_profile(row.n)


def max_density_cuts(row: HypercubeRow) -> list[int]:
    """Every interior cut attaining the peak density, in increasing order.

    The maximizers are exactly the cut indexes whose binary representation,
    read from the left in adjacent pairs, uses only the patterns 01 and 10,
    except that the final pair may also be 11 when the width is even; an odd
    width instead ends with a single 1 bit.
    """
    pairs, odd = divmod(row.dims, 2)
    cuts = [0]
    for left in range(pairs, 0, -1):
        choice = (0b01, 0b10) if odd or left > 1 else (0b01, 0b10, 0b11)
        cuts = [cut << 2 | pair for cut in cuts for pair in choice]
    return [cut << 1 | 1 for cut in cuts] if odd else cuts
