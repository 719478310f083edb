"""Formula-versus-oracle cross-checks, runnable from the CLI.

Each check recomputes a family of claims on one row along both the
closed-form route and the brute-force route, and returns how many
assertions it executed.  :func:`run_all` sweeps every power-of-two row up
to a requested size once, smallest first, and on each row calls every check
whose range holds it and that has not yet failed.  The netlists and oracle
tables a row's checks read are made once, by a source that lives for that
row alone; they are shared between checks, never with the closed forms.
The router is bounded by the largest count of the oracle's table of each
pair it routes, which the source keeps for the row.
The ``check`` subcommand prints one line per check.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import repeat

from cuberow import density, netlist, oracle, routing
from cuberow.density import HypercubeRow
from cuberow.errors import TooManyWiresError
from cuberow.netlist import Netlist, Placement, TerminalMode
from cuberow.oracle import CrossingTable

# Sweep ceilings.  Intercolumn claims stay cheap far beyond these; the fine
# cutline and routing sweeps are the expensive ones.
MAX_COARSE_NODES = 2**12
MAX_FINE_NODES = 2**10


class CheckOutcome(namedtuple("CheckOutcome", "name passed assertions detail up_to", defaults=("", 0))):
    """One check's result: a named tuple ``(name, passed, assertions,
    detail, up_to)``; ``up_to`` is the largest row the sweep was allowed,
    0 if not recorded."""

    __slots__ = ()


class _Mismatch(Exception):
    """``_Mismatch(assertions, detail)``: a claim failed on one row after
    ``assertions`` of the row's had passed; ``detail`` continues the
    ``n=<row size>`` prefix of the report."""


class _RowSource:
    """One row's netlists and oracle tables, each made when first asked for.

    Only the netlist of the last ``(placement, mode)`` asked for is kept,
    with its table once one is asked for, so the source holds one netlist
    at a time; consecutive requests for the same pair share it.  The
    largest count of every table made is kept for the row, so the router's
    bound reads the tables the earlier checks made.  A check keeps to the
    same rule: once it asks for another pair, it holds no netlist of an
    earlier one in a local, nor anything that holds that netlist's wires,
    such as its intervals or their track assignment.
    """

    __slots__ = ("row", "_key", "_net", "_table", "_fine_max")

    def __init__(self, row: HypercubeRow):
        self.row = row
        self._key = self._net = self._table = None
        self._fine_max: dict[tuple[Placement, TerminalMode], int] = {}

    def netlist(self, placement: Placement = Placement.NORMAL, mode: TerminalMode = TerminalMode.FREE) -> Netlist:
        if self._key != (placement, mode):
            # Drop the old pair first, so that the source never holds two.
            self._key = self._net = self._table = None
            self._net = netlist.build_netlist(self.row, placement, mode)
            self._key = placement, mode
        return self._net

    def table(self, placement: Placement = Placement.NORMAL, mode: TerminalMode = TerminalMode.FREE) -> CrossingTable:
        net = self.netlist(placement, mode)
        if self._table is None:
            self._table = oracle.crossing_profile(net)
            self._fine_max[placement, mode] = self._table.fine_max()
        return self._table

    def fine_max(self, placement: Placement, mode: TerminalMode) -> int:
        """The largest count of the pair's table, made at most once a row."""
        if (placement, mode) not in self._fine_max:
            self.table(placement, mode)
        return self._fine_max[placement, mode]


def _sweep(ceiling: int, start: int = 2):
    """Mark ``check_x(source) -> assertions`` as a check of the rows
    ``start, 2*start, ...`` up to ``ceiling``, as the pair ``check_x.rows``."""

    def mark(check: Callable[[_RowSource], int]) -> Callable[[_RowSource], int]:
        check.rows = (start, ceiling)
        return check

    return mark


@_sweep(MAX_COARSE_NODES)
def check_closed_forms(source: _RowSource) -> int:
    """Per-dimension formula, its sum, the bit-decomposition form, and the
    oracle count must agree at every intercolumn cut."""
    row = source.row
    n, checked = row.n, 0
    summed = density.cut_density_profile(row)
    bitsum = density.cut_density_bitsum_profile(row)
    brute = source.table().gap_profile()
    for cut in range(n + 1):
        if summed[cut] != brute[cut]:
            raise _Mismatch(checked, f" cut={cut}: formula {summed[cut]} vs oracle {brute[cut]}")
        if 0 < cut < n and bitsum[cut] != brute[cut]:
            raise _Mismatch(checked, f" cut={cut}: bit form {bitsum[cut]} vs oracle {brute[cut]}")
        checked += 2
    # Scalar entry points agree with the batch profile on a spot basis.
    for cut in {0, 1, n // 3, n // 2, n - 1, n}:
        if density.cut_density(row, cut) != summed[cut]:
            raise _Mismatch(checked, f" cut={cut}: scalar vs batch")
        checked += 1
    return checked


@_sweep(MAX_COARSE_NODES)
def check_symmetry_and_bounds(source: _RowSource) -> int:
    """Mirror symmetry of densities (per dimension and total) and the peak
    bound min(m, m - (p - cut)) at every interior cut.

    The profile mirrors its own first half, so S(n - cut) is summed from the
    per-dimension counts instead of read from the profile."""
    row = source.row
    n, checked = row.n, 0
    profile = density.cut_density_profile(row)
    peak = density.max_cut_density(row)
    first = density.leftmost_max_cut(row)
    # links[dim - 1][cut] for the interior cuts; index 0 is unused.  Each
    # is the ramp that dimension_link_count returns once its arguments are
    # checked, read without that check: every cut and dim here is in range.
    links = [[0, *map(density._ramp, range(1, n), repeat(dim))] for dim in range(1, row.dims + 1)]
    summed = [sum(counts) for counts in zip(*links)]
    for cut in range(1, n):
        if profile[cut] != summed[n - cut]:
            raise _Mismatch(checked, f": S({cut}) != S({n - cut})")
        bound = min(peak, peak - (first - cut))
        if profile[cut] > bound:
            raise _Mismatch(checked, f" cut={cut}: {profile[cut]} exceeds bound {bound}")
        checked += 2
    for dim, counts in enumerate(links, start=1):
        for cut in range(1, n):
            if counts[cut] != counts[n - cut]:
                raise _Mismatch(checked, f" dim={dim} cut={cut}: per-dimension symmetry broken")
            checked += 1
    if profile[first] != peak:
        raise _Mismatch(checked, ": S(p) != m")
    return checked + 1


@_sweep(MAX_COARSE_NODES)
def check_maximizers(source: _RowSource) -> int:
    """The bit-pattern enumeration must equal the oracle's argmax scan, and
    its first element must equal the closed-form leftmost maximizer."""
    row = source.row
    pattern = density.max_density_cuts(row)
    brute = source.table().gap_maximizers()
    if pattern != brute:
        raise _Mismatch(0, f": {pattern} vs oracle {brute}")
    if pattern[0] != density.leftmost_max_cut(row):
        raise _Mismatch(0, ": leftmost mismatch")
    return len(brute) + 1


@_sweep(MAX_FINE_NODES)
def check_terminal_density(source: _RowSource) -> int:
    """The slot-cut identity against the oracle at every (cut, slot), the
    one-extra-track peak, and the (cut, slot) pairs attaining it, which must
    be the oracle's argmax over the slot cuts and lie only on intercolumn
    maximizers."""
    row = source.row
    n, checked = row.n, 0
    table = source.table(Placement.NORMAL, TerminalMode.DIM_ORDERED)
    counts, step = table.counts, row.dims + 1
    for cut in range(1, n + 1):
        # The slot cuts of column cut - 1, slots 1..dims.
        wants = counts[(cut - 1) * step + 1 : cut * step]
        for slot, want in enumerate(wants, start=1):
            got = netlist.terminal_cut_density(row, cut, slot)
            if got != want:
                raise _Mismatch(checked, f" cut={cut} slot={slot}: formula {got} vs oracle {want}")
            checked += 1
    peak, attained = netlist.max_terminal_cut_density(row)
    expect = 1 if n == 2 else density.max_cut_density(row) + 1
    if peak != expect or peak != table.fine_max():
        raise _Mismatch(checked, f": peak {peak}, expected {expect}, oracle {table.fine_max()}")
    # The slot cuts where the oracle's count is the peak, in the formula's
    # scan order: fine index f is slot f % step of cut f // step + 1, and
    # f % step == 0 is a gap.  The peak is the oracle's largest count, so
    # these are the oracle's argmax over the slot cuts whenever there are any.
    argmax = [(f // step + 1, f % step) for f, count in enumerate(counts) if f % step and count == peak]
    stray = sorted({cut for cut, _ in attained}.difference(density.max_density_cuts(row)))
    if attained != argmax or stray:
        raise _Mismatch(checked + 1, f": peak at {attained}, oracle {argmax}, non-maximizer cuts {stray}")
    return checked + 2


# The router's pairs, from the one terminal-density leaves held to the one
# gray-equalities reads first.
_ROUTED_PAIRS = [
    (Placement.NORMAL, TerminalMode.DIM_ORDERED),
    (Placement.NORMAL, TerminalMode.FREE),
    (Placement.GRAY, TerminalMode.FREE),
    (Placement.GRAY, TerminalMode.DIM_ORDERED),
]


@_sweep(MAX_FINE_NODES)
def check_router(source: _RowSource) -> int:
    """Left-edge output must verify, use exactly density tracks, hit the
    known counts per mode, and match the exact search on small instances
    and the oracle's largest crossing count on the rest."""
    row = source.row
    checked = 0
    peak = density.max_cut_density(row)
    for placement, mode in _ROUTED_PAIRS:
        pair = f" {placement.value}/{mode.value}:"
        intervals = routing.wire_intervals(source.netlist(placement, mode))
        assignment = routing.left_edge_route(intervals)
        cert = routing.verify_assignment(intervals, assignment)
        if not cert.ok:
            raise _Mismatch(checked, f"{pair} {cert.reason} {cert.detail}")
        expect = peak if mode is TerminalMode.FREE else (1 if row.n == 2 else peak + 1)
        if assignment.track_count != expect:
            raise _Mismatch(checked, f"{pair} {assignment.track_count} tracks, expected {expect}")
        try:
            exact = oracle.brute_track_count(intervals)
        except TooManyWiresError:
            # Every track assignment needs as many tracks as wires cross
            # one fine cut, and left-edge needs no more.
            exact = source.fine_max(placement, mode)
        if assignment.track_count != exact:
            raise _Mismatch(checked, f"{pair} exact minimum {exact}")
        # They hold this pair's wires: drop them before the next is made.
        del intervals, assignment
        checked += 3
    return checked


@_sweep(MAX_FINE_NODES)
def check_gray_equalities(source: _RowSource) -> int:
    """The gray row's oracle table must equal the closed forms at every fine
    cut, gaps and slot cuts alike, and its total length the normal row's,
    with the known span extremes (n/2 normal, n-1 reflected gray)."""
    row = source.row
    n, checked = row.n, 0
    # The gray pair first: the router asked for it last, so the source still
    # holds it.  Its table and lengths are kept here when the source moves to
    # the normal one, but not its netlist.
    table = source.table(Placement.GRAY, TerminalMode.DIM_ORDERED)
    gray_total, gray_longest = _lengths(source.netlist(Placement.GRAY, TerminalMode.DIM_ORDERED))
    normal_total, normal_longest = _lengths(source.netlist())
    for cut, (got, want) in enumerate(zip(table.gap_profile(), density.cut_density_profile(row))):
        if got != want:
            raise _Mismatch(checked, f" cut={cut}: gray oracle {got} vs formula {want}")
        checked += 1
    counts, step = table.counts, row.dims + 1
    for col in range(n):
        gots = counts[col * step + 1 : (col + 1) * step]
        for slot, (got, want) in enumerate(zip(gots, netlist.terminal_cut_densities(row, col + 1)), start=1):
            if got != want:
                raise _Mismatch(checked, f" col={col} slot={slot}: gray oracle {got} vs formula {want}")
            checked += 1
    if gray_total != normal_total:
        raise _Mismatch(checked, ": total wirelength differs")
    if normal_longest != n // 2 or gray_longest != n - 1:
        raise _Mismatch(checked + 1, f": span extremes {normal_longest}, {gray_longest}")
    return checked + 2


def _lengths(net: Netlist) -> tuple[int, int]:
    """A netlist's total and longest wire length, for a check to keep in
    place of the netlist."""
    return netlist.total_wirelength(net), netlist.max_wirelength(net)


@_sweep(MAX_COARSE_NODES, start=8)
def check_bisection(source: _RowSource) -> int:
    """The half-way cut is never a density maximizer once n reaches 8."""
    row = source.row
    if density.cut_density(row, row.n // 2) >= density.max_cut_density(row):
        raise _Mismatch(0, ": bisection attains the peak")
    return 1


@_sweep(MAX_COARSE_NODES)
def check_profile_sum(source: _RowSource) -> int:
    """Interior densities must sum to the total wirelength, both routes."""
    row = source.row
    checked = 0
    expected = (row.n // 2) * (row.n - 1)
    formula = sum(density.cut_density_profile(row))
    for placement in Placement:
        brute = sum(source.table(placement).gap_profile())
        if brute != expected or netlist.total_wirelength(source.netlist(placement)) != expected:
            raise _Mismatch(checked, f" {placement.value}: sums diverge from {expected}")
        checked += 2
    if formula != expected:
        raise _Mismatch(checked, f": formula sum {formula}")
    return checked + 1


ALL_CHECKS: list[Callable[[_RowSource], int]] = [
    check_closed_forms,
    check_symmetry_and_bounds,
    check_maximizers,
    check_profile_sum,
    check_terminal_density,
    check_router,
    check_gray_equalities,
    check_bisection,
]


def run_all(max_n: int) -> list[CheckOutcome]:
    """Sweep the rows 2, 4, ... up to ``max_n`` once, smallest first, and
    report each check of :data:`ALL_CHECKS` over the rows of its range.

    On each row, every check whose range holds it and that has not failed
    on a smaller row is called with that row's one :class:`_RowSource`.
    A check's sweep stops at the first row where it raises :class:`_Mismatch`.
    ``max_n`` is a row size, so one that :class:`HypercubeRow` refuses
    raises its :class:`RowSizeError` rather than sweeping no row.
    """
    max_n = HypercubeRow(max_n).n
    checks = ALL_CHECKS
    totals = [0] * len(checks)
    details = [""] * len(checks)
    n = 2
    while n <= max_n:
        source = _RowSource(HypercubeRow(n))
        for index, check in enumerate(checks):
            start, ceiling = check.rows
            if details[index] or not start <= n <= ceiling:
                continue
            try:
                totals[index] += check(source)
            except _Mismatch as failure:
                passed, rest = failure.args
                totals[index] += passed
                details[index] = f"n={n}{rest}"
        n <<= 1
    return [
        CheckOutcome(
            check.__name__.removeprefix("check_").replace("_", "-"),
            not detail, total, detail, min(max_n, check.rows[1]),
        )
        for check, total, detail in zip(checks, totals, details)
    ]
