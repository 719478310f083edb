"""The command-line surface: tables, drawings, machine formats, exit codes."""

import ast
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cuberow
from cuberow import density, kernels, netlist, oracle, routing, selfcheck
from cuberow.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from cuberow.density import HypercubeRow
from cuberow.errors import RowSizeError
from cuberow.netlist import dump_netlist, load_netlist
from cuberow.oracle import crossing_profile
from cuberow.routing import IntervalWire, TrackAssignment, load_assignment

JSON_FIELDS = ["n", "placement", "mode", "profile", "m", "p", "maximizers", "tracks"]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment of a child process that imports the same package as
    these tests, whether or not the caller's PYTHONPATH names it."""
    source = str(Path(cuberow.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


def run_module(*argv, **kwargs):
    """Run ``python -m cuberow`` in a child process (see :func:`child_env`)."""
    return subprocess.run([sys.executable, "-m", "cuberow", *argv], env=child_env(), text=True, **kwargs)


class TestDensityCommand:
    def test_table_n8(self):
        code, out, _ = run_cli("density", "--n", "8")
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines()[1:8]]
        assert [int(r[1]) for r in rows] == [3, 4, 5, 4, 5, 4, 3]
        assert "m = 5" in out and "p = 3" in out and "maximizers: 3 5" in out

    def test_table_n2(self):
        code, out, _ = run_cli("density", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[1].split() == ["1", "1"]

    def test_dim_ordered_summary(self):
        code, out, _ = run_cli("density", "--n", "8", "--mode", "dim-ordered")
        assert code == EXIT_OK
        assert "peak terminal density: 6" in out
        assert out.splitlines()[0].split() == ["i", "S", "T1", "T2", "T3"]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_gray_summary_matches_oracle(self, d):
        # The gray row takes the closed forms; the oracle counts its wires.
        row = HypercubeRow(2**d)
        gray = ("density", "--n", str(row.n), "--placement", "gray")
        code, out, _ = run_cli(*gray, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        table = crossing_profile(netlist.build_netlist(row, netlist.Placement.GRAY))
        cuts = table.gap_maximizers()
        assert payload["profile"] == table.gap_profile()[1 : row.n]
        assert payload["m"] == table.interior_gap_max()
        assert (payload["p"], payload["maximizers"]) == (cuts[0], cuts)

        code, out, _ = run_cli(*gray, "--mode", "dim-ordered", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        table = crossing_profile(
            netlist.build_netlist(row, netlist.Placement.GRAY, netlist.TerminalMode.DIM_ORDERED)
        )
        slots = [[int(v) for v in line.split(",")[2:]] for line in lines[1:-1]]
        assert slots == [[table.node_cut(col, s) for s in range(1, d + 1)] for col in range(row.n - 1)]
        assert lines[-1].endswith(f" terminal_max={table.fine_max()}")

    def test_json_schema(self):
        code, out, _ = run_cli("density", "--n", "8", "--format", "json")
        payload = json.loads(out)
        assert list(payload) == JSON_FIELDS
        assert payload["tracks"] is None
        assert payload["maximizers"] == [3, 5]

    def test_csv(self):
        code, out, _ = run_cli("density", "--n", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "i,S"
        assert lines[1:4] == ["1,2", "2,2", "3,2"]
        assert lines[4].startswith("# m=2 p=1 maximizers=1 2 3")

    def test_rejects_non_power_of_two(self):
        code, _, err = run_cli("density", "--n", "7")
        assert code == EXIT_USAGE
        assert err == "cuberow: error: node count must be a power of two with n >= 2, got 7\n"

    def test_rejects_svg(self):
        # Only route draws; argparse refuses the choice, through _Parser's exit 1.
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as stop:
            main(["density", "--n", "8", "--format", "svg"])
        assert stop.value.code == EXIT_USAGE
        assert "invalid choice: 'svg'" in err.getvalue()

    def test_rejects_oversized_gray(self):
        # Both placements share the closed forms' cap.
        code, _, err = run_cli("density", "--n", str(2**21), "--placement", "gray")
        assert code == EXIT_USAGE
        assert err == "cuberow: error: --n 2097152 exceeds this command's cap of 1048576\n"


class TestRouteCommand:
    def test_text_track_counts(self):
        code, out, _ = run_cli("route", "--n", "2")
        assert code == EXIT_OK
        assert "tracks: 1" in out
        _, out_free, _ = run_cli("route", "--n", "8", "--format", "text")
        assert "tracks: 5" in out_free
        _, out_dim, _ = run_cli("route", "--n", "8", "--mode", "dim-ordered", "--format", "text")
        assert "tracks: 6" in out_dim

    def test_text_row_count_matches_tracks(self):
        _, out, _ = run_cli("route", "--n", "8", "--format", "text")
        lines = out.splitlines()
        # track rows + tick row + label row + blank + summary
        assert len(lines) == 5 + 4
        _, out_dim, _ = run_cli("route", "--n", "8", "--mode", "dim-ordered", "--format", "text")
        assert len(out_dim.splitlines()) == 6 + 4

    def test_json_fields_and_values(self):
        code, out, _ = run_cli("route", "--n", "8", "--format", "json")
        payload = json.loads(out)
        assert list(payload) == JSON_FIELDS + ["wires"]
        assert payload["tracks"] == 5
        assert len(payload["wires"]) == 12
        code, out, _ = run_cli("route", "--n", "8", "--mode", "dim-ordered", "--format", "json")
        payload = json.loads(out)
        assert payload["tracks"] == 6
        assert payload["terminal_max"] == 6

    def test_svg_structure(self):
        code, out, _ = run_cli("route", "--n", "8", "--format", "svg")
        assert code == EXIT_OK
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 12  # one routed wire each
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 9  # 8 node boxes + background

    def test_svg_draws_reported_track_count(self):
        for n, mode, expected in ((8, "free", 5), (8, "dim-ordered", 6), (2, "free", 1)):
            _, out, _ = run_cli("route", "--n", str(n), "--mode", mode, "--format", "svg")
            root = ET.fromstring(out)
            track_rows = {
                el.attrib["points"].split()[1].split(",")[1]
                for el in root.iter()
                if el.tag.endswith("polyline")
            }
            assert len(track_rows) == expected

    def test_svg_hide_tracks(self):
        _, out, _ = run_cli("route", "--n", "8", "--format", "svg", "--hide-tracks")
        assert "polyline" not in out

    def test_svg_rejects_bad_cell_size(self):
        code, _, err = run_cli("route", "--n", "8", "--format", "svg", "--cell-width", "0")
        assert code == EXIT_USAGE

    def test_csv_assignment_table(self):
        code, out, _ = run_cli("route", "--n", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "dim,left_col,right_col,track"
        assert len(lines) == 5
        tracks = {int(line.split(",")[3]) for line in lines[1:]}
        assert tracks == {0, 1}

    def test_text_cap(self):
        code, _, err = run_cli("route", "--n", "128", "--format", "text")
        assert code == EXIT_USAGE
        assert "512" in err

    def test_emit_files_round_trip(self, tmp_path):
        net_path = tmp_path / "row.netlist"
        asg_path = tmp_path / "row.tracks"
        code, _, _ = run_cli(
            "route", "--n", "8", "--mode", "dim-ordered",
            "--emit-netlist", str(net_path), "--emit-assignment", str(asg_path),
            "--format", "json", "--out", str(tmp_path / "row.json"),
        )
        assert code == EXIT_OK
        net = load_netlist(net_path.read_text())
        assert len(net.wires) == 12
        rows = load_assignment(asg_path.read_text())
        assert len(rows) == 12
        assert max(track for *_, track in rows) == 5

    def test_out_file(self, tmp_path):
        target = tmp_path / "density.json"
        code, out, _ = run_cli("density", "--n", "4", "--format", "json", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["m"] == 2

    @pytest.mark.parametrize(
        "argv",
        [("route", "--n", "8", "--cell-width", "0"), ("route", "--n", "128", "--format", "text")],
        ids=["bad-cell-width", "text-too-wide"],
    )
    def test_failed_route_writes_no_file(self, tmp_path, argv):
        emitted = [tmp_path / "row.netlist", tmp_path / "row.tracks"]
        code, out, _ = run_cli(*argv, "--emit-netlist", str(emitted[0]), "--emit-assignment", str(emitted[1]))
        assert code == EXIT_USAGE and out == ""
        assert [path.exists() for path in emitted] == [False, False]

    @pytest.mark.parametrize("placement", ["normal", "gray"])
    def test_json_terminal_max_matches_the_closed_form(self, placement):
        # route reports the routed channel's peak; density and the library
        # compute it from the closed form.
        for d in range(1, 11):
            row = HypercubeRow(2**d)
            argv = ("--n", str(row.n), "--placement", placement, "--mode", "dim-ordered", "--format", "json")
            routed = json.loads(run_cli("route", *argv)[1])["terminal_max"]
            tabled = json.loads(run_cli("density", *argv)[1])["terminal_max"]
            assert routed == tabled == netlist.max_terminal_cut_density(row)[0]

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_json_byte_stable(self, n):
        outputs = {run_cli("route", "--n", str(n), "--format", "json")[1].encode() for _ in range(3)}
        assert len(outputs) == 1


class TestCompareCommand:
    def test_frozen_n8(self):
        code, out, _ = run_cli("compare", "--n", "8", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "metric,normal,gray",
            "max_density,5,5",
            "tracks_free,5,5",
            "tracks_dim_ordered,6,6",
            "total_wirelength,28,28",
            "max_wirelength,4,7",
        ]

    def test_frozen_n2(self):
        _, out, _ = run_cli("compare", "--n", "2", "--format", "csv")
        assert "max_wirelength,1,1" in out

    def test_frozen_n16(self):
        _, out, _ = run_cli("compare", "--n", "16", "--format", "csv")
        assert "max_density,10,10" in out
        assert "max_wirelength,8,15" in out

    def test_json(self):
        _, out, _ = run_cli("compare", "--n", "8", "--format", "json")
        payload = json.loads(out)
        assert payload["normal"]["tracks_dim_ordered"] == 6
        assert payload["gray"]["max_wirelength"] == 7

    def test_text_table(self):
        code, out, _ = run_cli("compare", "--n", "8")
        assert code == EXIT_OK
        assert "normal" in out.splitlines()[0]

    def test_cap(self):
        code, _, _ = run_cli("compare", "--n", str(2**11))
        assert code == EXIT_USAGE

    def test_builds_each_netlist_once(self, monkeypatch):
        # Two placements times two terminal modes: the free netlist that is
        # routed also feeds the wirelength rows, and the density row is the
        # closed form, which builds none.
        built = []
        real = netlist.build_netlist

        def counting(row, placement, mode, *args, **kwargs):
            built.append((placement, mode))
            return real(row, placement, mode, *args, **kwargs)

        monkeypatch.setattr(netlist, "build_netlist", counting)
        code, _, _ = run_cli("compare", "--n", "64", "--format", "csv")
        assert code == EXIT_OK
        assert len(built) == len(set(built)) == 4


class TestCheckCommand:
    def test_small_pass(self):
        code, out, _ = run_cli("check", "--max-n", "2")
        assert code == EXIT_OK
        assert "all checks passed" in out

    def test_reports_each_check(self):
        code, out, _ = run_cli("check", "--max-n", "64")
        assert code == EXIT_OK
        lines = out.splitlines()
        for name in ("closed-forms", "maximizers", "router", "gray-equalities"):
            assert any(line.startswith(name) and "PASS" in line for line in lines)
        assert "assertions" in lines[-1]

    def test_capped_checks_say_how_far_they_swept(self):
        code, out, _ = run_cli("check", "--max-n", "2048")
        assert code == EXIT_OK
        capped = [line.split()[0] for line in out.splitlines() if line.endswith(", rows up to 1024 nodes)")]
        assert capped == ["terminal-density", "router", "gray-equalities"]
        assert out.splitlines()[-1].endswith("rows up to 2048 nodes")

    @pytest.mark.parametrize("max_n", [0, 1, True, 4.0], ids=repr)
    def test_run_all_takes_only_a_row_size(self, max_n):
        # Each was once swept as no row at all, every check passing on 0
        # assertions, or, for 4.0, reported as "up to 4.0".
        with pytest.raises(RowSizeError):
            selfcheck.run_all(max_n)

    def test_run_all_sweeps_the_smallest_row(self):
        outcomes = selfcheck.run_all(2)
        assert [outcome.passed for outcome in outcomes] == [True] * len(selfcheck.ALL_CHECKS)
        assert sum(outcome.assertions for outcome in outcomes) == 43

    def test_rejects_bad_range(self):
        assert run_cli("check", "--max-n", "100")[0] == EXIT_USAGE
        assert run_cli("check", "--max-n", str(2**13))[0] == EXIT_USAGE

    def test_failure_exit_code(self, monkeypatch):
        def broken(max_n):
            return [selfcheck.CheckOutcome("rigged", False, 1, "injected failure")]

        monkeypatch.setattr(selfcheck, "run_all", broken)
        code, out, _ = run_cli("check", "--max-n", "2")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out and "injected failure" in out

    def test_each_oracle_table_is_built_once(self, monkeypatch):
        tables, built = [], []
        real_table, real_build = oracle.crossing_profile, netlist.build_netlist

        def counting_table(net):
            tables.append((net.row.n, net.placement, net.mode))
            return real_table(net)

        def counting_build(row, *args, **kwargs):
            built.append(row.n)
            return real_build(row, *args, **kwargs)

        monkeypatch.setattr(oracle, "crossing_profile", counting_table)
        monkeypatch.setattr(netlist, "build_netlist", counting_build)
        assert all(outcome.passed for outcome in selfcheck.run_all(64))
        rows = [2**d for d in range(1, 7)]
        pairs = [(placement, mode) for placement in netlist.Placement for mode in netlist.TerminalMode]
        assert sorted(tables) == sorted((n, *pair) for n in rows for pair in pairs)
        # Rows are swept smallest first, seven netlists each: closed-forms'
        # normal free one also serves maximizers and profile-sum, then come
        # profile-sum's gray free one and terminal-density's normal
        # dim-ordered one, which the router routes first, and the router's
        # other three.  Gray-equalities shares the router's last, gray
        # dim-ordered one, and then builds the normal free one.
        assert built == [n for n in rows for _ in range(7)]


def _holds_wires(value) -> bool:
    # A netlist, or what holds its wires: its intervals or their tracks.
    if isinstance(value, list) and value:
        value = value[0]
    return isinstance(value, (netlist.Netlist, IntervalWire, TrackAssignment))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckSweepMemory:
    def test_no_check_holds_a_netlist_when_it_asks_for_another(self, monkeypatch):
        # Each time a netlist is built, the check that asked for it holds no
        # earlier netlist, intervals or assignment in its locals.
        held = []
        real_build = netlist.build_netlist

        def watched(row, *args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals is not vars(selfcheck) or not frame.f_code.co_name.startswith("check_"):
                frame = frame.f_back
            held.extend(
                (frame.f_code.co_name, row.n, name) for name, value in frame.f_locals.items() if _holds_wires(value)
            )
            return real_build(row, *args, **kwargs)

        monkeypatch.setattr(netlist, "build_netlist", watched)
        assert all(outcome.passed for outcome in selfcheck.run_all(64))
        assert held == []

    def test_row_source_holds_one_netlist_and_one_int_per_table(self, monkeypatch):
        # Each time the row's source builds a netlist, it holds no netlist
        # and no table.  Across pairs it keeps only each table's largest
        # count, and on a row the router sweeps it has all four of them.
        sources, seen = [], []
        real_source, real_build = selfcheck._RowSource, netlist.build_netlist

        def made(row):
            sources.append(real_source(row))
            return sources[-1]

        def watched(row, *args, **kwargs):
            source = sources[-1]
            seen.append((row.n, source._net, source._table))
            return real_build(row, *args, **kwargs)

        monkeypatch.setattr(selfcheck, "_RowSource", made)
        monkeypatch.setattr(netlist, "build_netlist", watched)
        assert all(outcome.passed for outcome in selfcheck.run_all(4096))
        assert sorted({n for n, _, _ in seen}) == [2**d for d in range(1, 13)]
        assert all(net is None and table is None for _, net, table in seen)
        pairs = {(placement, mode) for placement in netlist.Placement for mode in netlist.TerminalMode}
        routed = [source for source in sources if source.row.n <= selfcheck.check_router.rows[1]]
        assert [source.row.n for source in routed] == [2**d for d in range(1, 11)]
        assert all(set(source._fine_max) == pairs for source in routed)
        assert all(type(peak) is int for source in sources for peak in source._fine_max.values())

    def test_profile_sum_peak_is_one_netlist_and_its_table(self):
        # With the normal table made, the check builds the gray netlist and
        # its table.  Keeping the normal netlist in a local and an int per
        # fine cut, it peaked at 0.99 MiB traced at 1024 nodes; it reads
        # 0.71 MiB.  Bound: 0.85 MiB.
        source = selfcheck._RowSource(HypercubeRow(1024))
        source.table()
        assert _traced_peak(lambda: selfcheck.check_profile_sum(source)) < 0.85 * 2**20

    def test_router_peak_is_one_pair(self):
        # Keeping a pair's intervals and assignment while the next netlist
        # was made, the check peaked at 2.73 MiB traced at 1024 nodes, and
        # 2.37 MiB with coverage_bound's events on top of one pair.  Bounded
        # by each pair's table instead, it reads 1.70 MiB.  Bound: 2.55 MiB.
        source = selfcheck._RowSource(HypercubeRow(1024))
        assert _traced_peak(lambda: selfcheck.check_router(source)) < 2.55 * 2**20


def _bump_where(condition):
    """A fault that adds one to a formula's result wherever ``condition``
    holds for its arguments."""

    def fault(real):
        def patched(*args):
            return real(*args) + 1 if condition(*args) else real(*args)

        return patched

    return fault


# One fault per check, in a formula that check reads and first wrong on the
# n=16 row, with the assertion count and detail the check must report and
# the set of checks that fail under it.
CHECK_FAULTS = [
    (
        "closed-forms",
        (density, "cut_density_bitsum_profile"),
        lambda real: lambda row: [v + (row.n >= 16 and cut == 3) for cut, v in enumerate(real(row))],
        54,
        "n=16 cut=3: bit form 9 vs oracle 8",
        {"closed-forms"},
    ),
    (
        # S(n - cut) is summed from the per-dimension ramps, so the bumped
        # ramp of dimension 4 (first on the n=16 row) at cut 2 shows as S(2)
        # against the profile at cut 14.  The scalar form reads the same
        # ramp, but no spot check of it reads cut 2 on a row of 16 or more.
        "symmetry-and-bounds",
        (density, "_ramp"),
        _bump_where(lambda cut, dim: (cut, dim) == (2, 4)),
        79,
        "n=16: S(14) != S(2)",
        {"symmetry-and-bounds"},
    ),
    (
        # The check reads the oracle's argmax from the row's shared table.
        "maximizers",
        (oracle.CrossingTable, "gap_maximizers"),
        lambda real: lambda table: real(table)[: -1 if table.n >= 16 else None],
        9,
        "n=16: [5, 6, 7, 9, 10, 11] vs oracle [5, 6, 7, 9, 10]",
        {"maximizers"},
    ),
    (
        "profile-sum",
        (netlist, "total_wirelength"),
        _bump_where(lambda net: net.row.n >= 16),
        15,
        "n=16 normal: sums diverge from 120",
        {"profile-sum"},
    ),
    (
        "terminal-density",
        (netlist, "terminal_cut_density"),
        _bump_where(lambda row, cut, slot: row.n >= 16 and (cut, slot) == (2, 1)),
        44,
        "n=16 cut=2 slot=1: formula 4 vs oracle 3",
        {"terminal-density"},
    ),
    (
        # Rows up to n=8 are small enough for the exact search; from n=16 on
        # the router is measured against the oracle table's largest count.
        # Only free tables are bumped: they cross no slot cut, so their
        # count at fine cut 1 is 0.  Terminal-density reads the peak of a
        # dim-ordered table alone.
        "router",
        (oracle.CrossingTable, "fine_max"),
        _bump_where(lambda table: table.counts[1] == 0),
        39,
        "n=16 normal/free: exact minimum 11",
        {"router"},
    ),
    (
        "gray-equalities",
        (netlist, "max_wirelength"),
        _bump_where(lambda net: net.row.n >= 16),
        139,
        "n=16: span extremes 9, 16",
        {"gray-equalities"},
    ),
    (
        # closed-forms spot-checks the scalar form at n/2 too, so it fails
        # alongside.
        "bisection",
        (density, "cut_density"),
        lambda real: lambda row, cut: (
            density.max_cut_density(row) if row.n >= 16 and cut == row.n // 2 else real(row, cut)
        ),
        1,
        "n=16: bisection attains the peak",
        {"closed-forms", "bisection"},
    ),
]


# A second gray-equalities fault, in the slot-cut recurrence alone.  The
# terminal-density check reads that recurrence only for its peak, which the
# bumped cut does not reach, so only the gray sweep of every fine cut fails.
GRAY_SLOT_FAULT = (
    "gray-equalities",
    (netlist, "terminal_cut_densities"),
    lambda real: lambda row, cut: [
        value + (row.n >= 16 and (cut, slot) == (2, 1)) for slot, value in enumerate(real(row, cut), start=1)
    ],
    78,
    "n=16 col=1 slot=1: gray oracle 3 vs formula 4",
    {"gray-equalities"},
)


# A second symmetry fault, that moves one crossing of cut 14 from dimension 1
# to dimension 2.  The total keeps its mirror, so only the per-dimension
# sweep, which follows the total's, sees it, at dimension 1's mirror pair.
SYMMETRY_DIM_FAULT = (
    "symmetry-and-bounds",
    (density, "_ramp"),
    lambda real: lambda cut, dim: real(cut, dim) + (cut == 14) * ((dim == 2) - (dim == 1)),
    84,
    "n=16 dim=1 cut=2: per-dimension symmetry broken",
    {"symmetry-and-bounds"},
)


# A terminal-density fault that drops the last (cut, slot) attaining the
# peak.  Every pair left is still on an intercolumn maximizer, so only the
# comparison with the oracle's argmax over the slot cuts sees it.
def _drop_last_peak(real):
    def patched(row):
        peak, attained = real(row)
        return peak, attained[:-1] if row.n >= 16 else attained

    return patched


TERMINAL_PEAK_FAULT = (
    "terminal-density",
    (netlist, "max_terminal_cut_density"),
    _drop_last_peak,
    105,
    "n=16: peak at [(7, 1), (9, 3), (10, 3), (11, 1)], oracle [(7, 1), (9, 3), (10, 3), (11, 1), (11, 3)],"
    " non-maximizer cuts []",
    {"terminal-density"},
)


def _move_gap_crossing(pinned):
    """A fault that moves one crossing from cut 2 to cut 1 of the gap
    profile of each dim-ordered table, or each free one, from n=16 on.  A
    free table crosses no slot cut, so its count at fine cut 1 is 0.  The
    sum and the peak cuts stay as they are."""

    def fault(real):
        def patched(table):
            gaps = real(table)
            if table.n >= 16 and (table.counts[1] != 0) == pinned:
                gaps[1:3] = gaps[1] + 1, gaps[2] - 1
            return gaps

        return patched

    return fault


def _raise_peak(real):
    def patched(row):
        peak, attained = real(row)
        return peak + (row.n >= 16), attained

    return patched


def _add_track(real):
    # The n=16 row is the first with 32 wires.
    def patched(intervals):
        assignment = real(intervals)
        return assignment._replace(track_count=assignment.track_count + (len(intervals) >= 32))

    return patched


# A fault for each failure branch that the faults above leave unreached,
# first wrong on the n=16 row, with the report of every check that fails
# under it: its assertion count and its detail.
BRANCH_FAULTS = [
    (
        "closed-forms-oracle",
        (oracle.CrossingTable, "gap_profile"),
        _move_gap_crossing(pinned=False),
        {"closed-forms": (50, "n=16 cut=1: formula 4 vs oracle 5")},
    ),
    (
        "symmetry-and-bounds-bound",
        (density, "leftmost_max_cut"),
        _bump_where(lambda row: row.n >= 16),
        {"symmetry-and-bounds": (57, "n=16 cut=3: 8 exceeds bound 7"), "maximizers": (9, "n=16: leftmost mismatch")},
    ),
    (
        "symmetry-and-bounds-peak",
        (density, "leftmost_max_cut"),
        lambda real: lambda row: real(row) - (row.n >= 16),
        {"symmetry-and-bounds": (143, "n=16: S(p) != m"), "maximizers": (9, "n=16: leftmost mismatch")},
    ),
    (
        "terminal-density-peak",
        (netlist, "max_terminal_cut_density"),
        _raise_peak,
        {"terminal-density": (104, "n=16: peak 12, expected 11, oracle 11")},
    ),
    (
        "router-certificate",
        (routing, "left_edge_route"),
        _add_track,
        {"router": (36, "n=16 normal/dim-ordered: track-count 12 tracks used, channel density is 11")},
    ),
    (
        # The certificate holds the router to the channel, not to the peak.
        "router-expected-tracks",
        (density, "max_cut_density"),
        _bump_where(lambda row: row.n >= 16),
        {
            "symmetry-and-bounds": (143, "n=16: S(p) != m"),
            "terminal-density": (104, "n=16: peak 11, expected 12, oracle 11"),
            "router": (36, "n=16 normal/dim-ordered: 11 tracks, expected 12"),
        },
    ),
    (
        "gray-equalities-gap",
        (oracle.CrossingTable, "gap_profile"),
        _move_gap_crossing(pinned=True),
        {"gray-equalities": (58, "n=16 cut=1: gray oracle 5 vs formula 4")},
    ),
    (
        # Profile-sum reads the free nets' totals alone.
        "gray-equalities-total",
        (netlist, "total_wirelength"),
        _bump_where(lambda net: net.row.n >= 16 and net.mode is netlist.TerminalMode.DIM_ORDERED and net.placement is netlist.Placement.GRAY),
        {"gray-equalities": (138, "n=16: total wirelength differs")},
    ),
    (
        # Cut 0 lies outside every interior sweep, but not outside the sum
        # or the sweeps of every cut.
        "profile-sum-formula",
        (density, "cut_density_profile"),
        lambda real: lambda row: [v + (row.n >= 16 and cut == 0) for cut, v in enumerate(real(row))],
        {
            "closed-forms": (48, "n=16 cut=0: formula 1 vs oracle 0"),
            "profile-sum": (19, "n=16: formula sum 121"),
            "gray-equalities": (57, "n=16 cut=0: gray oracle 0 vs formula 1"),
        },
    ),
]


class TestEveryCheckCanFail:
    @pytest.fixture(autouse=True)
    def fresh_row_tables(self):
        # The one-entry caches would otherwise serve a profile computed under
        # another case's fault, or keep one computed under this case's.
        netlist._row_tables.cache_clear()
        kernels._gap_tables.cache_clear()
        yield
        netlist._row_tables.cache_clear()
        kernels._gap_tables.cache_clear()

    @pytest.mark.parametrize(
        "name, target, fault, assertions, detail, failing",
        [pytest.param(*case, id=case[0]) for case in CHECK_FAULTS]
        + [pytest.param(*GRAY_SLOT_FAULT, id="gray-equalities-slot-cut")]
        + [pytest.param(*SYMMETRY_DIM_FAULT, id="symmetry-and-bounds-per-dimension")]
        + [pytest.param(*TERMINAL_PEAK_FAULT, id="terminal-density-dropped-peak")],
    )
    def test_fault_is_reported(self, monkeypatch, name, target, fault, assertions, detail, failing):
        module, attr = target
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
        outcomes = {outcome.name: outcome for outcome in selfcheck.run_all(64)}
        assert outcomes[name] == selfcheck.CheckOutcome(name, False, assertions, detail, 64)

        code, out, _ = run_cli("check", "--max-n", "64")
        assert code == EXIT_CHECK_FAILED
        lines = out.splitlines()
        assert f"{name:<22} FAIL  ({assertions} assertions)  {detail}" in lines
        assert {line.split()[0] for line in lines[:-1] if " FAIL " in line} == failing
        assert lines[-1].startswith(f"{len(failing)} check(s) failed")

    @pytest.mark.parametrize("target, fault, failed", [pytest.param(*case[1:], id=case[0]) for case in BRANCH_FAULTS])
    def test_every_failure_branch_can_fire(self, monkeypatch, target, fault, failed):
        module, attr = target
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
        outcomes = selfcheck.run_all(64)
        assert {outcome.name: (outcome.assertions, outcome.detail) for outcome in outcomes if not outcome.passed} == failed

    def test_a_failed_check_leaves_the_sweep(self, monkeypatch):
        name, (module, attr), fault, *_ = CHECK_FAULTS[0]
        assert name == "closed-forms"
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
        calls = []

        def counting(check):
            @functools.wraps(check)
            def counted(source):
                calls.append((check.__name__, source.row.n))
                return check(source)

            return counted

        monkeypatch.setattr(selfcheck, "ALL_CHECKS", [counting(check) for check in selfcheck.ALL_CHECKS])
        selfcheck.run_all(64)
        swept = {check.__name__: [] for check in selfcheck.ALL_CHECKS}
        for called, n in calls:
            swept[called].append(n)
        assert swept.pop("check_closed_forms") == [2, 4, 8, 16]
        assert swept.pop("check_bisection") == [8, 16, 32, 64]
        assert swept == {check: [2, 4, 8, 16, 32, 64] for check in swept}


@pytest.mark.parametrize(
    "argv",
    [
        *[("density", "--n", "8", "--mode", "dim-ordered", "--format", f) for f in ("text", "json", "csv")],
        *[("route", "--n", "8", "--format", f) for f in ("text", "svg", "json", "csv")],
        *[("compare", "--n", "8", "--format", f) for f in ("text", "json", "csv")],
        ("check", "--max-n", "8"),
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")),
)
def test_out_file_holds_what_stdout_would(tmp_path, argv):
    target = tmp_path / "out"
    code, out, _ = run_cli(*argv, "--out", str(target))
    assert (code, out) == (EXIT_OK, "")
    assert target.read_text() == run_cli(*argv)[1]


class TestOneFileNamedTwice:
    """Two route outputs naming one regular file would leave only one text in
    it, so the command refuses, naming both paths, and leaves no file created
    or changed."""

    @pytest.mark.parametrize(
        "first, second",
        [("--emit-netlist", "--emit-assignment"), ("--out", "--emit-netlist"), ("--out", "--emit-assignment")],
    )
    @pytest.mark.parametrize("spelling", ["F", "./F"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_is_a_usage_error(self, tmp_path, monkeypatch, first, second, spelling, existing):
        monkeypatch.chdir(tmp_path)
        if existing:
            Path("F").write_text("other bytes\n")
        code, out, err = run_cli("route", "--n", "8", first, spelling, second, "F")
        assert (code, out) == (EXIT_USAGE, "")
        # The writer opens the emitted files first, then --out.
        paths = {first: spelling, second: "F"}
        named = [paths[flag] for flag in ("--emit-netlist", "--emit-assignment", "--out") if flag in paths]
        assert err == f"cuberow: error: {named[0]} and {named[1]} name the same file\n"
        assert os.listdir(tmp_path) == (["F"] if existing else [])
        if existing:
            assert Path("F").read_text() == "other bytes\n"

    def test_two_links_to_one_file(self, tmp_path):
        (tmp_path / "F").write_text("other bytes\n")
        os.link(tmp_path / "F", tmp_path / "G")
        code, _, err = run_cli(
            "route", "--n", "8", "--emit-netlist", str(tmp_path / "F"), "--emit-assignment", str(tmp_path / "G")
        )
        assert code == EXIT_USAGE
        assert err == f"cuberow: error: {tmp_path / 'F'} and {tmp_path / 'G'} name the same file\n"
        assert (tmp_path / "F").read_text() == "other bytes\n"

    def test_a_dangling_symlink_and_its_target(self, tmp_path):
        (tmp_path / "L").symlink_to(tmp_path / "T")
        code, _, err = run_cli(
            "route", "--n", "8", "--emit-netlist", str(tmp_path / "L"), "--emit-assignment", str(tmp_path / "T")
        )
        assert code == EXIT_USAGE
        assert err == f"cuberow: error: {tmp_path / 'L'} and {tmp_path / 'T'} name the same file\n"
        assert os.listdir(tmp_path) == ["L"] and (tmp_path / "L").is_symlink()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_a_path_to_the_file_stdout_writes(self, tmp_path):
        # A process of its own, so that stdout is a regular file; the text
        # for stdout would overwrite the one written through /dev/stdout.
        target = tmp_path / "out.txt"
        with open(target, "w") as out:
            result = run_module(
                "route", "--n", "4", "--format", "csv", "--emit-netlist", "/dev/stdout",
                stdout=out, stderr=subprocess.PIPE,
            )
        assert result.returncode == EXIT_USAGE
        assert result.stderr == "cuberow: error: stdout and /dev/stdout name the same file\n"
        assert target.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_a_path_to_a_piped_stdout(self):
        # A pipe is not a regular file, so both texts go down it.
        result = run_module(
            "route", "--n", "4", "--format", "csv", "--emit-netlist", "/dev/stdout",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        netlist_text, table = result.stdout.split("dim,left_col,right_col,track\n")
        assert load_netlist(netlist_text).row.n == 4
        assert len(table.splitlines()) == 4

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_a_device_may_be_named_twice(self):
        code, out, _ = run_cli(
            "route", "--n", "8", "--out", "/dev/null", "--emit-netlist", "/dev/null", "--emit-assignment", "/dev/null"
        )
        assert (code, out) == (EXIT_OK, "")


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--n", "8", "--out"),
            ("route", "--n", "8", "--emit-netlist"),
            ("route", "--n", "8", "--emit-assignment"),
        ],
    )
    def test_missing_directory_is_a_usage_error(self, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(*argv, str(target))
        assert code == EXIT_USAGE
        assert err.startswith(f"cuberow: error: cannot write {target}")
        assert "internal error" not in err

    @pytest.mark.parametrize("flag", ["--out", "--emit-netlist", "--emit-assignment"])
    def test_empty_path_is_a_usage_error(self, flag):
        # Only an absent option means stdout; an empty path names no file.
        code, out, err = run_cli("route", "--n", "8", flag, "")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "cuberow: error: cannot write : No such file or directory\n"

    def test_unwritable_out_leaves_the_emitted_files_alone(self, tmp_path):
        kept, absent = tmp_path / "row.netlist", tmp_path / "row.tracks"
        kept.write_text("other bytes\n")
        code, _, err = run_cli(
            "route", "--n", "8", "--emit-netlist", str(kept), "--emit-assignment", str(absent),
            "--out", str(tmp_path / "missing" / "x"),
        )
        assert code == EXIT_USAGE and err.startswith("cuberow: error: cannot write ")
        assert kept.read_text() == "other bytes\n"
        assert not absent.exists()

    def test_unwritable_out_keeps_a_dangling_symlink(self, tmp_path):
        # What the command made through the link is removed, not the link.
        link, target = tmp_path / "L", tmp_path / "target"
        link.symlink_to(target)
        code, _, err = run_cli(
            "route", "--n", "8", "--emit-netlist", str(link), "--out", str(tmp_path / "missing" / "x")
        )
        assert code == EXIT_USAGE and err.startswith("cuberow: error: cannot write ")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert os.listdir(tmp_path) == ["L"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_out_to_a_device_still_writes_the_emitted_file(self, tmp_path):
        # A device cannot be truncated; the writer truncates regular files only.
        emitted = tmp_path / "row.netlist"
        code, _, _ = run_cli(
            "route", "--n", "8", "--format", "csv", "--emit-netlist", str(emitted), "--out", "/dev/null"
        )
        assert code == EXIT_OK
        assert load_netlist(emitted.read_text()).row.n == 8

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_file_write_removes_the_created_files(self, tmp_path):
        emitted = tmp_path / "row.netlist"
        code, out, err = run_cli(
            "route", "--n", "8", "--emit-netlist", str(emitted), "--emit-assignment", "/dev/full"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("cuberow: error: cannot write /dev/full: ")
        assert not emitted.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_of_many_chunks_is_a_usage_error(self):
        # The profile of 131071 cuts is written as more than one chunk.
        code, out, err = run_cli("density", "--n", "131072", "--format", "json", "--out", "/dev/full")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("cuberow: error: cannot write /dev/full: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_leaves_no_emitted_file(self, tmp_path):
        emitted = tmp_path / "row.netlist"
        with open("/dev/full", "w") as full:
            result = run_module(
                "route", "--n", "8", "--emit-netlist", str(emitted), stdout=full, stderr=subprocess.PIPE
            )
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("cuberow: error: cannot write stdout: ")
        assert not emitted.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--n", "2"),
            ("compare", "--n", "2"),
            ("check", "--max-n", "2"),
            ("route", "--n", "2"),
            ("route", "--n", "1024", "--format", "json"),
            ("density", "--n", "131072", "--format", "json"),
        ],
    )
    def test_full_stdout_is_a_usage_error(self, argv):
        # A process of its own, so that the status also covers the
        # interpreter's final flush of stdout.
        with open("/dev/full", "w") as full:
            result = run_module(*argv, stdout=full, stderr=subprocess.PIPE)
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("cuberow: error: cannot write stdout: ")


def _output_sites(tree: ast.AST):
    """Nodes that open a file or reach stdout: a call to ``open`` (plain or
    as an attribute, such as ``os.open``), any use of ``sys.stdout``, and a
    ``print`` call without ``file=``, which prints to stdout."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "open" or (name == "print" and not any(k.arg == "file" for k in node.keywords)):
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "stdout":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                yield node


class TestOneWriter:
    def test_only_cli_write_opens_files_or_touches_stdout(self):
        strays, in_write = [], 0
        for path in sorted(Path(cuberow.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            allowed = set()
            if path.name == "cli.py":
                (write,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_write"]
                allowed = {id(node) for node in ast.walk(write)}
            for node in _output_sites(tree):
                in_write += id(node) in allowed
                if id(node) not in allowed:
                    strays.append(f"{path.name}:{node.lineno}")
        assert strays == []
        assert in_write > 0  # the rule still sees the writer it protects

    def test_the_rule_catches_each_kind_of_site(self):
        source = "open(p)\nos.open(p, 0)\nsys.stdout.write(t)\nprint(t)\nprint(t, file=sys.stderr)\n"
        assert sorted(node.lineno for node in _output_sites(ast.parse(source))) == [1, 2, 3, 4]


def _raised_names(tree: ast.AST):
    """The class each ``raise`` statement names: ``raise E``, ``raise E(...)``
    or ``raise module.E(...)``, with or without ``from``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


class TestEveryErrorIsRaised:
    def test_each_error_type_has_a_raise_site(self):
        package = Path(cuberow.__file__).parent
        errors = ast.parse((package / "errors.py").read_text())
        defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
        raised = set()
        for path in package.glob("*.py"):
            raised.update(_raised_names(ast.parse(path.read_text(), str(path))))
        assert "LayoutError" in defined  # the rule still reads the module it guards
        assert sorted(defined - raised) == []

    def test_the_rule_catches_each_kind_of_site(self):
        source = (
            "raise A\nraise B('x')\nraise errors.C('x') from None\n"
            "raise\nraise f()()\nx = D('never raised')\n"
        )
        assert sorted(_raised_names(ast.parse(source))) == ["A", "B", "C"]


def _imported_modules(nodes):
    """The dotted name of every module the import statements among
    ``nodes`` load: ``import a.b`` loads ``a.b``, and ``from a import b``
    loads ``a`` and, if ``b`` is a submodule, ``a.b``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _module_level(tree: ast.AST):
    """The nodes that run when the module is imported: everything outside
    function bodies, class bodies included."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _module_level(node)


# Modules that no package module imports: ``dataclasses`` brings in
# ``inspect`` and ``ast``, and ``typing`` is not needed for a named tuple.
_NEVER_IMPORTED = {"dataclasses", "typing"}
# Modules that only the commands using them import, not ``cli`` itself.
_COMMAND_IMPORTS = {"cuberow.render", "cuberow.selfcheck"}


class TestStartUpImports:
    def test_no_module_imports_dataclasses_or_typing(self):
        strays = []
        for path in sorted(Path(cuberow.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            names = _imported_modules(ast.walk(tree))
            strays += [f"{path.name}: {name}" for name in names if name.partition(".")[0] in _NEVER_IMPORTED]
        assert strays == []

    def test_cli_imports_render_and_selfcheck_only_in_its_commands(self):
        tree = ast.parse((Path(cuberow.__file__).parent / "cli.py").read_text())
        at_import = set(_imported_modules(_module_level(tree)))
        assert "cuberow.routing" in at_import  # the rule still reads cli's imports
        assert at_import & _COMMAND_IMPORTS == set()
        assert _COMMAND_IMPORTS <= set(_imported_modules(ast.walk(tree)))

    def test_the_rule_catches_each_kind_of_import(self):
        source = (
            "import dataclasses\nfrom typing import Callable\nimport cuberow.render\n"
            "from cuberow import selfcheck, density\n"
            "class C:\n    import json\n"
            "def f():\n    from cuberow import oracle\n"
            "if True:\n    import csv\n"
        )
        tree = ast.parse(source)
        at_import = sorted(_imported_modules(_module_level(tree)))
        assert at_import == [
            "csv", "cuberow", "cuberow.density", "cuberow.render", "cuberow.selfcheck",
            "dataclasses", "json", "typing", "typing.Callable",
        ]
        assert set(_imported_modules(ast.walk(tree))) - set(at_import) == {"cuberow.oracle"}


class TestInternalErrorPath:
    def test_verification_failure_exits_3(self, monkeypatch):
        from cuberow import cli
        from cuberow.routing import RouteCertificate

        monkeypatch.setattr(
            cli.routing,
            "verify_assignment",
            lambda intervals, assignment: RouteCertificate(False, "overlap", "rigged"),
        )
        code, out, err = run_cli("route", "--n", "4")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "cuberow: internal error: RuntimeError: routing verification failed: overlap rigged\n"

    def test_a_text_that_raises_while_written_leaves_no_created_file(self, monkeypatch, tmp_path):
        from cuberow import cli

        def failing(*_):
            yield "x" * 2**20  # past the file's buffer, so part of it reaches the disk
            raise RuntimeError("rigged")

        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError, match="^rigged$"):
            cli._write([(str(target), failing())])
        assert os.listdir(tmp_path) == []
        monkeypatch.setattr(cli, "_json_text", failing)
        code, out, err = run_cli("density", "--n", "8", "--format", "json", "--out", str(target))
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "cuberow: internal error: RuntimeError: rigged\n"
        assert os.listdir(tmp_path) == []


class TestRowSize:
    @pytest.mark.parametrize(
        "argv",
        [("density", "--n", "1"), ("route", "--n", "1"), ("check", "--max-n", "1")],
        ids=lambda argv: argv[0],
    )
    def test_a_single_node_is_not_a_row(self, argv):
        code, out, err = run_cli(*argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "cuberow: error: node count must be a power of two with n >= 2, got 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("density", "--n", str(2**21)), "--n 2097152 exceeds this command's cap of 1048576"),
            (("density", "--n", "2000000"), "--n 2000000 exceeds this command's cap of 1048576"),
            (("density", "--n", str(2**31)), "--n 2147483648 exceeds this command's cap of 1048576"),
            (("check", "--max-n", "8192"), "--max-n 8192 exceeds this command's cap of 4096"),
        ],
    )
    def test_a_size_above_the_cap_names_the_flag_and_the_cap(self, argv, message):
        # The cap is checked before the row rule, so a size past it never
        # reports the library's own limit, or the power-of-two rule.
        code, _, err = run_cli(*argv)
        assert code == EXIT_USAGE
        assert err == f"cuberow: error: {message}\n"


class TestProcessLevel:
    def test_module_entry_point_matches_in_process(self):
        result = run_module("route", "--n", "8", "--format", "json", capture_output=True)
        assert result.returncode == EXIT_OK
        _, in_process, _ = run_cli("route", "--n", "8", "--format", "json")
        assert result.stdout == in_process

    def test_usage_error_exit_code(self):
        result = run_module("density", "--n", "8", "--format", "bogus", capture_output=True)
        assert result.returncode == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, emits",
        [
            (("route", "--n", "4096", "--format", "csv"), True),
            (("density", "--n", str(2**20), "--format", "json"), False),
        ],
        ids=["route", "density"],
    )
    def test_a_reader_that_stops_early_ends_the_command_quietly(self, tmp_path, argv, emits):
        # Each text is far larger than a pipe holds, so the reader closes
        # stdout while the command still writes to it.  The emitted file is
        # written before stdout, so it is whole.
        emitted = tmp_path / "row.netlist"
        argv += ("--emit-netlist", str(emitted)) if emits else ()
        child = subprocess.Popen(
            [sys.executable, "-m", "cuberow", *argv], env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(child.stdout.read(1)) == 1
        child.stdout.close()
        assert (child.wait(timeout=60), child.stderr.read()) == (EXIT_OK, b"")
        child.stderr.close()
        if emits:
            assert emitted.read_text() == dump_netlist(netlist.build_netlist(HypercubeRow(4096)))

    @pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn and os.wait4")
    def test_the_largest_density_document_is_written_in_blocks(self):
        # Linux floors a child's peak RSS at its spawner's, so the command is
        # spawned by a bare `python -S`, not by this process.  Holding the
        # whole 2^20-cut profile and its text took the command to 55.5 MB;
        # streamed, it peaks near 23 MB.
        result = subprocess.run(
            [sys.executable, "-S", "-c", _SPAWNER, "density", "--n", str(2**20), "--format", "json"],
            env=child_env(), capture_output=True, text=True,
        )
        code, peak_kib = map(int, result.stdout.split())
        assert code == EXIT_OK, result.stderr
        assert peak_kib < 32 * 1024

    @pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn and os.wait4")
    def test_the_largest_route_drawing_is_written_in_blocks(self):
        # Spawned as above.  Joining the 4096-node drawing's lines into one
        # 7 MB str, encoded into a second copy, took the command to 42.7 MB;
        # streamed, it peaks near 26 MB.
        result = subprocess.run(
            [sys.executable, "-S", "-c", _SPAWNER, "route", "--n", "4096", "--placement", "gray", "--format", "svg"],
            env=child_env(), capture_output=True, text=True,
        )
        code, peak_kib = map(int, result.stdout.split())
        assert code == EXIT_OK, result.stderr
        assert peak_kib < 32 * 1024


# Spawns ``python -m cuberow ARGS`` with stdout on the null device and
# prints its exit code and peak RSS in KiB.
_SPAWNER = """
import os, sys
argv = [sys.executable, "-m", "cuberow", *sys.argv[1:]]
null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=null), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestIntegerArguments:
    @pytest.mark.parametrize("value", ["1_024", "+8", "\u0668", "-8", " 8", "8.0", "0x8", ""])
    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--n"),
            ("compare", "--n"),
            ("check", "--max-n"),
            ("route", "--n", "8", "--cell-width"),
            ("route", "--n", "8", "--cell-height"),
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_only_ascii_digits_are_accepted(self, argv, value):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as stop:
            main([*argv, value])
        assert stop.value.code == EXIT_USAGE
        assert f"error: argument {argv[-1]}: expected ASCII digits, got {value!r}" in err.getvalue()

    def test_zero_cell_width_reaches_the_render_check(self):
        # Every format checks the cell sizes, though only svg draws with them.
        for fmt in ("text", "svg", "json", "csv"):
            code, _, err = run_cli("route", "--n", "8", "--format", fmt, "--cell-width", "0")
            assert code == EXIT_USAGE
            assert err.startswith("cuberow: error: cell size must be positive")
