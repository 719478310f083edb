"""One answer in every format: each command's outputs, read back, carry the
same answer as its json document; and no argv, valid or not, reaches an
internal error."""

import io
import json
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberow import cli
from cuberow.density import HypercubeRow
from cuberow.netlist import Placement, TerminalMode, build_netlist, load_netlist
from cuberow.routing import load_assignment


def stdout_of(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8, 16, 32, 64]),
    placement=st.sampled_from(["normal", "gray"]),
    mode=st.sampled_from(["free", "dim-ordered"]),
)
def test_route_formats_agree(n, placement, mode):
    argv = ("route", "--n", str(n), "--placement", placement, "--mode", mode)
    with tempfile.TemporaryDirectory() as tmp:
        netlist_path, assignment_path = Path(tmp, "row.netlist"), Path(tmp, "row.tracks")
        doc = json.loads(
            stdout_of(
                *argv, "--format", "json",
                "--emit-netlist", str(netlist_path), "--emit-assignment", str(assignment_path),
            )
        )
        netlist_text, assignment_text = netlist_path.read_text(), assignment_path.read_text()
    text = stdout_of(*argv, "--format", "text")
    svg = ET.fromstring(stdout_of(*argv, "--format", "svg"))
    csv_lines = stdout_of(*argv, "--format", "csv").splitlines()

    tracks = doc["tracks"]
    assert re.search(r"^tracks: (\d+)  ", text, re.M).group(1) == str(tracks)
    title = next(el.text for el in svg.iter() if el.tag.endswith("title"))
    assert title.endswith(f", {tracks} tracks")

    wires = [(w["dim"], w["left_col"], w["right_col"], w["track"]) for w in doc["wires"]]
    row = HypercubeRow(n)
    assert len(wires) == sum(el.tag.endswith("polyline") for el in svg.iter()) == n * row.dims // 2
    assert csv_lines[0] == "dim,left_col,right_col,track"
    assert [tuple(map(int, line.split(","))) for line in csv_lines[1:]] == wires
    assert load_assignment(assignment_text) == wires

    routed = build_netlist(row, Placement(placement), TerminalMode(mode))
    assert load_netlist(netlist_text).wires == routed.wires
    assert [(w.dim, w.left_col, w.right_col) for w in routed.wires] == [wire[:3] for wire in wires]


@pytest.mark.parametrize("placement", ["normal", "gray"])
@pytest.mark.parametrize("mode", ["free", "dim-ordered"])
def test_density_formats_agree(placement, mode):
    for dims in range(1, 9):
        n = 2**dims
        argv = ("density", "--n", str(n), "--placement", placement, "--mode", mode)
        doc = json.loads(stdout_of(*argv, "--format", "json"))
        text = stdout_of(*argv, "--format", "text").splitlines()
        csv = stdout_of(*argv, "--format", "csv").splitlines()

        slots = [f"T{slot}" for slot in range(1, dims + 1)] if mode == "dim-ordered" else []
        summary = 2 if slots else 1
        text_rows, csv_rows = [line.split() for line in text[:-summary]], [line.split(",") for line in csv[:-1]]
        assert text_rows[0] == csv_rows[0] == ["i", "S", *slots]
        table = [list(map(int, row)) for row in text_rows[1:]]
        assert table == [list(map(int, row)) for row in csv_rows[1:]]
        columns = list(zip(*table))
        assert list(columns[0]) == list(range(1, n))
        assert list(columns[1]) == doc["profile"]

        m, p, maximizers = doc["m"], doc["p"], doc["maximizers"]
        assert (m, p) == (max(doc["profile"]), maximizers[0])
        assert maximizers == [cut for cut, value in enumerate(doc["profile"], start=1) if value == m]
        shown = " ".join(map(str, maximizers))
        assert text[-summary] == f"m = {m}   p = {p}   maximizers: {shown}"
        if slots:
            terminal_max = doc["terminal_max"]
            assert terminal_max == max(map(max, columns[2:]))
            assert text[-1] == f"peak terminal density: {terminal_max}"
            assert csv[-1] == f"# m={m} p={p} maximizers={shown} terminal_max={terminal_max}"
        else:
            assert "terminal_max" not in doc
            assert csv[-1] == f"# m={m} p={p} maximizers={shown}"


def test_compare_formats_agree():
    for dims in range(1, 7):
        argv = ("compare", "--n", str(2**dims))
        doc = json.loads(stdout_of(*argv, "--format", "json"))
        text = [line.rsplit(None, 2) for line in stdout_of(*argv, "--format", "text").splitlines()]
        csv = [line.split(",") for line in stdout_of(*argv, "--format", "csv").splitlines()]

        assert doc["n"] == 2**dims and list(doc["normal"]) == list(doc["gray"])
        keys = list(doc["normal"])
        assert text[0] == ["normal", "gray"] and csv[0] == ["metric", "normal", "gray"]
        assert [key for key, _, _ in csv[1:]] == keys
        values = [[doc["normal"][key], doc["gray"][key]] for key in keys]
        assert [list(map(int, row[1:])) for row in csv[1:]] == values
        assert [list(map(int, row[-2:])) for row in text[1:]] == values


def _either(valid, invalid):
    # Three draws in four from ``valid``, so that most commands get past argparse.
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(invalid if k == 0 else valid))


# Places in a fresh directory, which holds only the empty directory "dir";
# "F" and "./F" name one file.
_PLACES = ["missing/x", "dir", "F", "./F"]
_PATHS = _either(["F", "./F"], ["", "missing/x", "dir", *filter(os.path.exists, ["/dev/full"])])
_SIZE = _either(["2", "8", "64"], ["0", "1", "12", "2097152", "9" * 30, "+8", "1_024", "-8", "\u0668", "\uff18", "", "x"])
_OPTIONS = {
    "--format": _either(["text", "json", "csv", "svg"], ["pdf", ""]),
    "--placement": _either(["normal", "gray"], ["grey"]),
    "--mode": _either(["free", "dim-ordered"], ["ordered"]),
    "--cell-width": _either(["1", "12"], ["0", "-3", "\u0668"]),
    "--cell-height": _either(["5"], ["0", "1.5"]),
    "--hide-tracks": st.none(),
    "--out": _PATHS,
    "--emit-netlist": _PATHS,
    "--emit-assignment": _PATHS,
    "--bogus": st.just("1"),
}
_FLAGS = {
    "density": ["--format", "--placement", "--mode", "--out"],
    "route": sorted(set(_OPTIONS) - {"--bogus"}),
    "compare": ["--format", "--out"],
    "check": ["--out"],
}


@st.composite
def _argv(draw):
    """A command with its size and up to four options, each option mostly
    one the command takes and each value mostly one it accepts."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--max-n" if command == "check" else "--n", draw(_SIZE)]
    for flag in draw(st.lists(_either(_FLAGS[command], sorted(_OPTIONS)), max_size=4)):
        value = draw(_OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_no_argv_reaches_an_internal_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "dir"))
        argv = [os.path.join(tmp, arg) if arg in _PLACES else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # argparse refuses before main's own handling
                code = stop.code
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CHECK_FAILED), err.getvalue()
        if code == cli.EXIT_USAGE:
            assert out.getvalue() == ""
            assert os.listdir(tmp) == ["dir"] and os.listdir(os.path.join(tmp, "dir")) == []
