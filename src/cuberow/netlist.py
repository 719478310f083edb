"""Wire lists for a hypercube row under a placement and terminal-ordering mode.

A netlist enumerates every hypercube link as a horizontal wire between two
columns.  Columns either hold node u at column u (normal placement) or follow
a binary-reflected gray sequence.  Terminals are either freely permutable per
node, or pinned so that slot p of every node carries its dimension-p link.

This module also owns the fine cutline coordinate system used by the router
and the oracle: each column contributes one cut just after each of its
``dims`` terminal slots, plus the intercolumn gap to its right.  Fine index
``col * (dims + 1) + slot`` addresses the cut after ``slot`` (1-based), and
``slot = dims + 1`` is the gap; index 0 is the gap left of the whole row.
Both placements have the same count at every fine cut: the gap counts are
the same (see :mod:`cuberow.density`), and in either placement a column's
dimension-k wire leaves to the right exactly when bit k-1 of the column is
clear, so the slot-cut formulas here serve gray rows too.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate, compress, cycle, islice, repeat
from operator import add, itemgetter, sub, xor

from cuberow.density import HypercubeRow, _bad_index, _checked_make
from cuberow.errors import InvalidCutError, LayoutError, NetlistFormatError, UnknownChoiceError
from cuberow.kernels import _excess_above, _gap_density, _gap_tables


class Placement(str, Enum):
    NORMAL = "normal"
    GRAY = "gray"


class TerminalMode(str, Enum):
    FREE = "free"
    DIM_ORDERED = "dim-ordered"


def gray_code(index: int) -> int:
    """Binary-reflected gray value at position ``index`` of the sequence."""
    return index ^ (index >> 1)


def gray_rank(value: int) -> int:
    """Position of ``value`` in the binary-reflected gray sequence."""
    rank = value
    while (value := value >> 1) > 0:
        rank ^= value
    return rank


_WireFields = namedtuple("_WireFields", "dim left_col right_col left_slot right_slot")


class Wire(_WireFields):
    """One hypercube link, laid out as a horizontal span between two columns.

    Slots locate the terminal on each endpoint node (1..dims, counted from
    the node's left edge).  They are structural only in dimension-ordered
    netlists; free-mode netlists carry slot = dim as a drawing convention.
    A field that is not a plain int, a bool included, or columns that are
    not left < right raise :class:`LayoutError`.

    A named tuple: its field order is the canonical wire order (dimension,
    then left column), so sorting wires needs no key, and a wire compares
    equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, dim: int, left_col: int, right_col: int, left_slot: int, right_slot: int):
        fields = (dim, left_col, right_col, left_slot, right_slot)
        # A bool would pass every range test as 0 or 1 and print as "True".
        if not all(type(field) is int for field in fields):
            raise LayoutError(f"wire fields must be plain ints, got {fields!r}")
        if left_col >= right_col:
            raise LayoutError(
                f"wire columns must satisfy left < right, got ({left_col}, {right_col})"
            )
        return tuple.__new__(cls, fields)

    _make = _checked_make

    @property
    def span(self) -> int:
        """Horizontal length in column units."""
        return self.right_col - self.left_col


# Builds a Wire from a tuple of its fields without the type and column
# checks, for callers whose fields are ints with left_col < right_col.
_new_wire = partial(tuple.__new__, Wire)
# Field getters in Wire's field order after ``dim``.
_left_col, _right_col, _left_slot, _right_slot = map(itemgetter, range(1, 5))


def _choices(placement, mode) -> tuple[Placement, TerminalMode]:
    # The members are tested by identity, and a str enum's value compares
    # equal to its member without being it, so a value such as "gray" is
    # turned into its member here; any other value is refused.
    try:
        return Placement(placement), TerminalMode(mode)
    except ValueError as exc:
        raise UnknownChoiceError(str(exc)) from None


class Netlist(namedtuple("Netlist", "row placement mode wires")):
    """A row's wires under one placement and terminal mode: a named tuple
    ``(row, placement, mode, wires)``, with ``wires`` a tuple of :class:`Wire`.

    ``placement`` and ``mode`` may be given by their values, such as
    ``"gray"``; they are stored as members, and any other value raises
    :class:`UnknownChoiceError`.  Each wire is made a :class:`Wire`, and
    the wires must keep the netlist contract of :func:`_checked_wires`:
    every answer about a netlist rests on it, so no consumer checks the
    wires again.  A subset of the row's links keeps it.
    """

    __slots__ = ()

    def __new__(cls, row: HypercubeRow, placement: Placement, mode: TerminalMode, wires: tuple[Wire, ...]):
        placement, mode = _choices(placement, mode)
        wires = tuple(map(Wire._make, wires))
        wires = _checked_wires(row, placement, mode, wires)
        return tuple.__new__(cls, (row, placement, mode, wires))

    _make = _checked_make


def _checked_wires(row: HypercubeRow, placement: Placement, mode: TerminalMode, wires):
    """The netlist contract: the :class:`Wire` records of ``wires`` as a
    tuple, once each is a distinct hypercube link of the row.

    A wire's dimension is in ``1..dims``, ``0 <= left < right < n``, its
    slots are in ``1..dims``, its columns hold a link of its dimension
    under ``placement``, no link is listed twice, and with dimension-ordered
    terminals no terminal slot carries two wires.  The first wire to break
    a rule, tested in that order, raises :class:`NetlistFormatError`.
    """
    n, dims = row.n, row.dims
    # A dimension-d link joins two columns whose xor is link_xor[d]: 2^(d-1)
    # on a normal row, and 2^d - 1 on a gray row (build_netlist's mirror
    # rule).  That is the rule on the nodes, gray(x) ^ gray(y) = 2^(d-1),
    # since gray(x) ^ gray(y) = gray(x ^ y), and gray(z) = 2^(d-1) exactly
    # when z = 2^d - 1; so no wire needs its nodes' gray codes.
    gray = placement is Placement.GRAY
    link_xor = [0, *((2 << k) - 1 if gray else 1 << k for k in range(dims))]
    # Integer keys: link dim * n + left_col, and terminal slot
    # col * (dims + 1) + slot (its fine cut index), so no tuple per wire.
    step = dims + 1
    link_seen = set()
    slot_seen = set() if mode is TerminalMode.DIM_ORDERED else None
    checked = []
    for w in wires:
        dim, left, right, lslot, rslot = w
        if not 1 <= dim <= dims:
            raise NetlistFormatError(f"dimension {dim} outside 1..{dims}")
        if not 0 <= left < right < n:
            raise NetlistFormatError(f"bad column pair ({left}, {right})")
        if not (1 <= lslot <= dims and 1 <= rslot <= dims):
            # In the text form's field order, so it reads as the file's line does.
            raise NetlistFormatError(f"slot outside 1..{dims} in wire '{dim} {left} {lslot} {right} {rslot}'"
                                     " (dim left_col left_slot right_col right_slot)")
        if left ^ right != link_xor[dim]:
            raise NetlistFormatError(f"columns {left} and {right} do not hold a dimension-{dim} pair")
        link = dim * n + left
        if link in link_seen:
            raise NetlistFormatError(f"dimension-{dim} link at column {left} listed twice")
        link_seen.add(link)
        if slot_seen is not None:
            lcut, rcut = left * step + lslot, right * step + rslot
            if lcut in slot_seen or rcut in slot_seen:
                col, slot = (left, lslot) if lcut in slot_seen else (right, rslot)
                raise NetlistFormatError(f"terminal slot {slot} of column {col} carries two wires")
            slot_seen.add(lcut)
            slot_seen.add(rcut)
        checked.append(w)
    return tuple(checked)


def fine_cut_count(row: HypercubeRow) -> int:
    """Number of fine cutline positions across the whole row."""
    return row.n * (row.dims + 1) + 1


def gap_cut_index(row: HypercubeRow, cut: int) -> int:
    """Fine index of intercolumn cut ``cut`` (0..n)."""
    return cut * (row.dims + 1)


def node_cut_index(row: HypercubeRow, col: int, slot: int) -> int:
    """Fine index of the through-node cut just right of ``slot`` on ``col``."""
    return col * (row.dims + 1) + slot


def build_netlist(
    row: HypercubeRow,
    placement: Placement = Placement.NORMAL,
    mode: TerminalMode = TerminalMode.FREE,
    slot_order: tuple[int, ...] | None = None,
) -> Netlist:
    """Enumerate every link of the row's hypercube as a placed wire.

    ``slot_order`` optionally remaps which terminal slot carries each
    dimension, uniformly on every node: entry k-1 is the slot for dimension
    k.  It requires dimension-ordered mode (the identity order is the
    mode's definition; other uniform orders exist for penalty experiments).
    ``placement`` and ``mode`` may also be given by their values, such as
    ``"gray"``; any other value raises :class:`UnknownChoiceError`.
    """
    placement, mode = _choices(placement, mode)
    dims = row.dims
    if slot_order is not None:
        if mode is not TerminalMode.DIM_ORDERED:
            raise LayoutError("slot_order applies to dimension-ordered netlists only")
        # A bool or a float would sort among the slots and then be drawn.
        if any(type(slot) is not int for slot in slot_order) or sorted(slot_order) != list(range(1, dims + 1)):
            raise LayoutError(f"slot_order must permute 1..{dims}, got {slot_order!r}")

    # For dimension k, the left ends are the lower half of each aligned block
    # of 2^k columns.  A normal row joins column x to x + 2^(k-1); a gray row
    # to its mirror x XOR (2^k - 1), since flipping bit k-1 of a node flips
    # the low k bits of its column.  Either way the right end is the larger,
    # and the wires come out in canonical (dim, left_col) order.
    cols = list(range(row.n))  # one int object per column, shared by every wire
    gray = placement is Placement.GRAY
    wires = []
    for dim in range(1, dims + 1):
        half = 1 << (dim - 1)
        slot = slot_order[dim - 1] if slot_order is not None else dim
        lefts = list(compress(cols, cycle([True] * half + [False] * half)))
        ends = map(xor, lefts, repeat(2 * half - 1)) if gray else map(add, lefts, repeat(half))
        rights = map(cols.__getitem__, ends)
        wires += map(_new_wire, zip(repeat(dim), lefts, rights, repeat(slot), repeat(slot)))
    # The wires are the row's links by construction: no contract check.
    return tuple.__new__(Netlist, (row, placement, mode, tuple(wires)))


def _spans(wires):
    return map(sub, map(_right_col, wires), map(_left_col, wires))


def total_wirelength(net: Netlist) -> int:
    """Sum of horizontal spans over all wires, in column units."""
    return sum(_spans(net.wires))


def max_wirelength(net: Netlist) -> int:
    """Longest horizontal span; 0 for a netlist with no wires."""
    return max(_spans(net.wires), default=0)


def _ramps(bits: int) -> list[tuple[int, ...]]:
    # Entry j: the running totals of +1 per clear bit and -1 per set bit of
    # j, from bit 0 up to bit ``bits - 1``.
    return [tuple(accumulate(1 - 2 * (j >> b & 1) for b in range(bits))) for j in range(1 << bits)]


@lru_cache(maxsize=1)
def _row_tables(n: int):
    # For the last row size, one tuple so that a slot row costs one lookup:
    # the split tables of kernels._gap_tables less S(lo), then the slot ramps
    # of the low h bits, each entry plus S(lo), and the ramps of the bits above.
    half, mask, top, twice, start = _gap_tables(n)
    low = [tuple(s + r for r in ramp) for s, ramp in zip(start, _ramps(half))]
    return half, mask, top, twice, low, _ramps(n.bit_length() - 1 - half)


def terminal_cut_density(row: HypercubeRow, cut: int, slot: int) -> int:
    """Wires crossing the fine cut just right of ``slot`` on column ``cut - 1``.

    Under dimension-ordered terminals, in either placement, the count
    decomposes as the intercolumn density at ``cut`` plus the bit excess of
    ``cut - 1`` above ``slot``: every dimension whose bit is set on that
    column enters from the left, every clear one leaves to the right,
    and only the dimensions above ``slot`` shift the tally either way.
    A ``cut`` or ``slot`` that is not an int in range, a bool included,
    raises :class:`InvalidCutError`.
    """
    if type(cut) is not int or not 1 <= cut <= row.n:
        raise InvalidCutError(_bad_index("cut", cut, 1, row.n))
    if type(slot) is not int or not 1 <= slot <= row.dims:
        raise InvalidCutError(_bad_index("terminal slot", slot, 1, row.dims))
    return _gap_density(row.n, cut) + _excess_above(cut - 1, row.dims, slot)


def terminal_cut_densities(row: HypercubeRow, cut: int) -> list[int]:
    """Slot-cut densities at one cut for every slot 1..dims, in order.

    Same quantity as :func:`terminal_cut_density`, by the column-degree
    recurrence run slot by slot: starting from the density left of node
    ``cut - 1``, slot ``s`` adds 1 when bit ``s - 1`` of the node is clear
    (its wire leaves to the right) and removes 1 when it is set (its wire
    arrives from the left).  The last slot lands on the density at ``cut``.

    The recurrence is read from tables built once per row size: the ramps
    of every value of the low ceil(dims/2) bits, each started from the
    density at that value, and of the bits above them, where the high ramp
    starts from the low one's last total.  The density at the node's cut
    splits over the same halves, so no table holds the whole profile.
    A ``cut`` that is not an int in range, a bool included, raises
    :class:`InvalidCutError`.
    """
    n = row.n
    # The range check also keeps cut 0 from reading a node of -1.
    if type(cut) is not int or not 1 <= cut <= n:
        raise InvalidCutError(_bad_index("cut", cut, 1, n))
    half, mask, top, twice, low, high = _row_tables(n)
    node = cut - 1
    k, lo = node >> half, node & mask
    # S(node) less S(lo), which every entry of the low ramp already holds.
    base = top[k] - twice[k] * lo
    ramp = low[lo]
    mid = base + ramp[-1]
    return [base + r for r in ramp] + [mid + r for r in high[k]]


def max_terminal_cut_density(row: HypercubeRow) -> tuple[int, list[tuple[int, int]]]:
    """Peak fine-cut density under dimension-ordered terminals.

    Returns the peak value together with every ``(cut, slot)`` attaining it,
    scanned in increasing order.  The peak is one above the intercolumn
    maximum for every row bigger than two nodes, and it lands only on cuts
    that already attain the intercolumn maximum.
    """
    best = -1
    where: list[tuple[int, int]] = []
    for cut in range(1, row.n + 1):
        values = terminal_cut_densities(row, cut)
        top = max(values)
        if top < best:
            continue
        if top > best:
            best = top
            where = []
        where += [(cut, slot) for slot, value in enumerate(values, start=1) if value == top]
    return best, where


def _netlist_lines(net: Netlist):
    """The lines of the netlist text, each ending in its newline."""
    yield f"{net.row.n} {net.placement.value} {net.mode.value}\n"
    for dim, left, right, left_slot, right_slot in net.wires:
        yield f"{dim} {left} {left_slot} {right} {right_slot}\n"


def dump_netlist(net: Netlist) -> str:
    """Line-oriented text form: header ``n placement mode``, then one wire
    per line as ``dim left_col left_slot right_col right_slot``."""
    return "".join(_netlist_lines(net))


# Below the netlist header, both formats hold only ASCII digits and
# whitespace; int() alone would also take a sign, "_" or a non-ASCII digit.
_NON_DIGIT = re.compile(r"[^0-9\s]", re.ASCII)


class _Ints(dict):
    """Field text -> its int, parsed on first sight, with one int object per
    value: "07" maps to the int of "7"."""

    __slots__ = ()

    def __missing__(self, field: str) -> int:
        value = int(field)
        self[field] = value = self.setdefault(str(value), value)
        return value


def _rows(text: str, start: int, lines, kind: str, width: int):
    """Yield the ints of each line of ``lines``, the body of ``text`` from
    ``start`` on.  A line that is not ``width`` runs of ASCII digits, each
    short enough for int(), raises :class:`NetlistFormatError` naming it.

    Every value read is one int object, however many lines repeat it, so
    the records made from the rows share their column ints as the built
    netlist's wires do."""
    bad = _NON_DIGIT.search(text, start)
    if bad:
        # As splitlines gives it; the character alone if in no line.
        line = next((line for line in lines if _NON_DIGIT.search(line)), text[bad.start()])
        raise NetlistFormatError(f"non-integer field in {kind} line {line!r}")
    parsed = _Ints()
    for line in lines:
        fields = line.split()
        if len(fields) != width:
            raise NetlistFormatError(f"bad {kind} line {line!r}, want {width} fields")
        try:
            ints = tuple(map(parsed.__getitem__, fields))
        except ValueError:  # only ASCII digits get here, so a field too long for int()
            raise NetlistFormatError(f"bad {kind} line {line!r}: a field is too long to parse") from None
        yield ints


# A wire line's ``dim left_col left_slot right_col right_slot`` in Wire's
# field order.
_wire_order = itemgetter(0, 1, 3, 2, 4)


def load_netlist(text: str) -> Netlist:
    """Parse the text form produced by :func:`dump_netlist`.

    Every number is a run of ASCII digits.  The header names a row, a
    placement and a mode, the wire count is the row's link count, and the
    wires keep the netlist contract of :func:`_checked_wires`, which this
    applies in the same pass as the parse.  With the full count and no
    link listed twice, the wires are exactly the row's hypercube links.
    Every fault raises :class:`NetlistFormatError`.
    """
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise NetlistFormatError("empty netlist text")
    header = lines[0].split()
    if len(header) != 3:
        raise NetlistFormatError(f"bad header {lines[0]!r}, want 'n placement mode'")
    if _NON_DIGIT.search(header[0]):
        raise NetlistFormatError(f"bad header {lines[0]!r}: node count is not an integer")
    try:
        row = HypercubeRow(int(header[0]))
        placement = Placement(header[1])
        mode = TerminalMode(header[2])
    except ValueError as exc:
        raise NetlistFormatError(f"bad header {lines[0]!r}: {exc}") from None

    # A dimension has n/2 links, so with this total and no link listed twice
    # every dimension has all of its links.
    want = row.dims * row.n // 2
    if len(lines) - 1 != want:
        raise NetlistFormatError(f"{len(lines) - 1} wire lines, want {want}")
    # The header is the first line that is not blank, so this finds its end.
    body = text.find(lines[0]) + len(lines[0])
    fields = map(_wire_order, _rows(text, body, islice(lines, 1, None), "wire", 5))
    wires = _checked_wires(row, placement, mode, map(_new_wire, fields))
    return tuple.__new__(Netlist, (row, placement, mode, wires))
