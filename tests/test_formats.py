"""One answer in every format: each of route's outputs, read back, carries the
same routing as the json document."""

import io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

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
