"""Formula-versus-oracle cross-checks, runnable from the CLI.

Each check sweeps every power-of-two row up to a requested size, recomputes a
family of claims along both the closed-form route and the brute-force route,
and reports how many assertions it executed.  The ``check`` subcommand prints
one line per check; the test suite drives the same sweeps through pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from cuberow import density, netlist, oracle, routing
from cuberow.density import HypercubeRow
from cuberow.errors import TooManyWiresError
from cuberow.netlist import Placement, TerminalMode

# Sweep ceilings.  Intercolumn claims stay cheap far beyond these; the fine
# cutline and routing sweeps are the expensive ones.
MAX_COARSE_NODES = 2**12
MAX_FINE_NODES = 2**10


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    assertions: int
    detail: str = ""


def _powers(max_n: int, start: int = 2) -> Iterator[int]:
    n = start
    while n <= max_n:
        yield n
        n <<= 1


def check_closed_forms(max_n: int) -> CheckOutcome:
    """Per-dimension formula, its sum, the bit-decomposition form, and the
    oracle count must agree at every intercolumn cut."""
    checked = 0
    for n in _powers(min(max_n, MAX_COARSE_NODES)):
        row = HypercubeRow(n)
        summed = density.cut_density_profile(row)
        bitsum = density.cut_density_bitsum_profile(row)
        net = netlist.build_netlist(row)
        brute = oracle.crossing_profile(net).gap_profile()
        for cut in range(n + 1):
            if summed[cut] != brute[cut]:
                return CheckOutcome(
                    "closed-forms", False, checked,
                    f"n={n} cut={cut}: formula {summed[cut]} vs oracle {brute[cut]}",
                )
            if 0 < cut < n and bitsum[cut] != brute[cut]:
                return CheckOutcome(
                    "closed-forms", False, checked,
                    f"n={n} cut={cut}: bit form {bitsum[cut]} vs oracle {brute[cut]}",
                )
            checked += 2
        # Scalar entry points agree with the batch profile on a spot basis.
        for cut in {0, 1, n // 3, n // 2, n - 1, n}:
            if density.cut_density(row, cut) != summed[cut]:
                return CheckOutcome(
                    "closed-forms", False, checked, f"n={n} cut={cut}: scalar vs batch"
                )
            checked += 1
    return CheckOutcome("closed-forms", True, checked)


def check_symmetry_and_bounds(max_n: int) -> CheckOutcome:
    """Mirror symmetry of densities (per dimension and total) and the peak
    bound min(m, m - (p - cut)) at every interior cut."""
    checked = 0
    for n in _powers(min(max_n, MAX_COARSE_NODES)):
        row = HypercubeRow(n)
        profile = density.cut_density_profile(row)
        peak = density.max_cut_density(row)
        first = density.leftmost_max_cut(row)
        for cut in range(1, n):
            if profile[cut] != profile[n - cut]:
                return CheckOutcome(
                    "symmetry-and-bounds", False, checked,
                    f"n={n}: S({cut}) != S({n - cut})",
                )
            bound = min(peak, peak - (first - cut))
            if profile[cut] > bound:
                return CheckOutcome(
                    "symmetry-and-bounds", False, checked,
                    f"n={n} cut={cut}: {profile[cut]} exceeds bound {bound}",
                )
            checked += 2
        for dim in range(1, row.dims + 1):
            for cut in range(1, n):
                if density.dimension_link_count(row, cut, dim) != density.dimension_link_count(row, n - cut, dim):
                    return CheckOutcome(
                        "symmetry-and-bounds", False, checked,
                        f"n={n} dim={dim} cut={cut}: per-dimension symmetry broken",
                    )
                checked += 1
        if profile[first] != peak:
            return CheckOutcome(
                "symmetry-and-bounds", False, checked, f"n={n}: S(p) != m"
            )
        checked += 1
    return CheckOutcome("symmetry-and-bounds", True, checked)


def check_maximizers(max_n: int) -> CheckOutcome:
    """The bit-pattern enumeration must equal the oracle's argmax scan, and
    its first element must equal the closed-form leftmost maximizer."""
    checked = 0
    for n in _powers(min(max_n, MAX_COARSE_NODES)):
        row = HypercubeRow(n)
        pattern = density.max_density_cuts(row)
        brute = oracle.brute_maximizers(netlist.build_netlist(row))
        if pattern != brute:
            return CheckOutcome(
                "maximizers", False, checked, f"n={n}: {pattern} vs oracle {brute}"
            )
        if pattern[0] != density.leftmost_max_cut(row):
            return CheckOutcome(
                "maximizers", False, checked, f"n={n}: leftmost mismatch"
            )
        checked += len(brute) + 1
    return CheckOutcome("maximizers", True, checked)


def check_terminal_density(max_n: int) -> CheckOutcome:
    """The slot-cut identity against the oracle at every (cut, slot), and the
    one-extra-track peak landing only on intercolumn maximizers."""
    checked = 0
    for n in _powers(min(max_n, MAX_FINE_NODES)):
        row = HypercubeRow(n)
        net = netlist.build_netlist(row, Placement.NORMAL, TerminalMode.DIM_ORDERED)
        table = oracle.crossing_profile(net)
        for cut in range(1, n + 1):
            for slot in range(1, row.dims + 1):
                want = table.node_cut(cut - 1, slot)
                got = netlist.terminal_cut_density(row, cut, slot)
                if got != want:
                    return CheckOutcome(
                        "terminal-density", False, checked,
                        f"n={n} cut={cut} slot={slot}: formula {got} vs oracle {want}",
                    )
                checked += 1
        peak, attained = netlist.max_terminal_cut_density(row)
        expect = 1 if n == 2 else density.max_cut_density(row) + 1
        if peak != expect or peak != table.fine_max():
            return CheckOutcome(
                "terminal-density", False, checked,
                f"n={n}: peak {peak}, expected {expect}, oracle {table.fine_max()}",
            )
        if n > 2:
            maximizers = set(density.max_density_cuts(row))
            stray = {cut for cut, _ in attained if cut not in maximizers}
            if stray:
                return CheckOutcome(
                    "terminal-density", False, checked,
                    f"n={n}: peak attained at non-maximizer cuts {sorted(stray)}",
                )
        checked += 2
    return CheckOutcome("terminal-density", True, checked)


def check_router(max_n: int) -> CheckOutcome:
    """Left-edge output must verify, use exactly density tracks, hit the
    known counts per mode, and match the exact search on small instances."""
    checked = 0
    for n in _powers(min(max_n, MAX_FINE_NODES)):
        row = HypercubeRow(n)
        peak = density.max_cut_density(row)
        for placement in Placement:
            for mode in TerminalMode:
                net = netlist.build_netlist(row, placement, mode)
                intervals = routing.wire_intervals(net)
                assignment = routing.left_edge_route(intervals)
                cert = routing.verify_assignment(intervals, assignment)
                if not cert.ok:
                    return CheckOutcome(
                        "router", False, checked,
                        f"n={n} {placement.value}/{mode.value}: {cert.reason} {cert.detail}",
                    )
                expect = peak if mode is TerminalMode.FREE else (1 if n == 2 else peak + 1)
                if assignment.track_count != expect:
                    return CheckOutcome(
                        "router", False, checked,
                        f"n={n} {placement.value}/{mode.value}: "
                        f"{assignment.track_count} tracks, expected {expect}",
                    )
                try:
                    exact = oracle.brute_track_count(intervals)
                except TooManyWiresError:
                    exact = oracle.coverage_bound(intervals)
                if assignment.track_count != exact:
                    return CheckOutcome(
                        "router", False, checked,
                        f"n={n} {placement.value}/{mode.value}: exact minimum {exact}",
                    )
                checked += 3
    return CheckOutcome("router", True, checked)


def check_gray_equalities(max_n: int) -> CheckOutcome:
    """Gray placement must match normal on peak density and total length,
    with the known span extremes (n/2 normal, n-1 reflected gray)."""
    checked = 0
    for n in _powers(min(max_n, MAX_FINE_NODES)):
        row = HypercubeRow(n)
        normal = netlist.build_netlist(row, Placement.NORMAL)
        gray = netlist.build_netlist(row, Placement.GRAY)
        gray_peak = oracle.crossing_profile(gray).interior_gap_max()
        if gray_peak != density.max_cut_density(row):
            return CheckOutcome(
                "gray-equalities", False, checked,
                f"n={n}: gray peak {gray_peak} vs m {density.max_cut_density(row)}",
            )
        if netlist.total_wirelength(gray) != netlist.total_wirelength(normal):
            return CheckOutcome(
                "gray-equalities", False, checked, f"n={n}: total wirelength differs"
            )
        if netlist.max_wirelength(normal) != n // 2 or netlist.max_wirelength(gray) != n - 1:
            return CheckOutcome(
                "gray-equalities", False, checked,
                f"n={n}: span extremes {netlist.max_wirelength(normal)}, "
                f"{netlist.max_wirelength(gray)}",
            )
        checked += 3
    return CheckOutcome("gray-equalities", True, checked)


def check_bisection(max_n: int) -> CheckOutcome:
    """The half-way cut is never a density maximizer once n reaches 8."""
    checked = 0
    for n in _powers(min(max_n, MAX_COARSE_NODES), start=8):
        row = HypercubeRow(n)
        if density.cut_density(row, n // 2) >= density.max_cut_density(row):
            return CheckOutcome(
                "bisection", False, checked, f"n={n}: bisection attains the peak"
            )
        checked += 1
    return CheckOutcome("bisection", True, checked)


def check_profile_sum(max_n: int) -> CheckOutcome:
    """Interior densities must sum to the total wirelength, both routes."""
    checked = 0
    for n in _powers(min(max_n, MAX_COARSE_NODES)):
        row = HypercubeRow(n)
        expected = (n // 2) * (n - 1)
        formula = sum(density.cut_density_profile(row))
        for placement in Placement:
            net = netlist.build_netlist(row, placement)
            brute = sum(oracle.crossing_profile(net).gap_profile())
            if brute != expected or netlist.total_wirelength(net) != expected:
                return CheckOutcome(
                    "profile-sum", False, checked,
                    f"n={n} {placement.value}: sums diverge from {expected}",
                )
            checked += 2
        if formula != expected:
            return CheckOutcome(
                "profile-sum", False, checked, f"n={n}: formula sum {formula}"
            )
        checked += 1
    return CheckOutcome("profile-sum", True, checked)


ALL_CHECKS: list[Callable[[int], CheckOutcome]] = [
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
    return [check(max_n) for check in ALL_CHECKS]
