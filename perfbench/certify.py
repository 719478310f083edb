"""Read routed rows back from their text files and certify them.

    python3 perfbench/certify.py DIR normal/free gray/dim-ordered ...
    python3 perfbench/certify.py --setup-only

For each ``placement/mode`` pair, in the order given, it loads
``DIR/verify-<placement>-<mode>.net`` and ``.asg``, matches every assignment
line to exactly one wire, and runs the router's certificate over the wire
intervals.  It prints ``placement/mode ok tracks=T`` or
``placement/mode fail: reason`` per pair and exits 0 only when every pair
is ok.  ``--setup-only`` stops after the imports, which is this
program's set-up cost.
"""

from __future__ import annotations

import sys
from pathlib import Path

from cuberow import netlist, routing
from cuberow.errors import LayoutError


def certify(net_text: str, assignment_text: str) -> str:
    net = netlist.load_netlist(net_text)
    lines = routing.load_assignment(assignment_text)
    wire_of = {(w.dim, w.left_col, w.right_col): w for w in net.wires}
    by_wire = {}
    for dim, left, right, track in lines:
        wire = wire_of.get((dim, left, right))
        if wire is None or wire in by_wire:
            return f"fail: assignment line {dim} {left} {right} {track} matches no unassigned wire"
        by_wire[wire] = track
    if len(by_wire) != len(net.wires):
        return f"fail: {len(net.wires) - len(by_wire)} wires have no track"
    intervals = routing.wire_intervals(net)
    tracks = max(by_wire.values(), default=-1) + 1
    # The file carries no density; verify_assignment recomputes it.
    cert = routing.verify_assignment(intervals, routing.TrackAssignment(by_wire, tracks, tracks))
    if not cert.ok:
        return f"fail: {cert.reason} {cert.detail}"
    return f"ok tracks={tracks}"


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        return 0
    directory, pairs = Path(argv[0]), argv[1:]
    failed = 0
    for pair in pairs:
        placement, mode = pair.split("/")
        stem = directory / f"verify-{placement}-{mode}"
        try:
            verdict = certify(stem.with_suffix(".net").read_text(), stem.with_suffix(".asg").read_text())
        except (LayoutError, ValueError, OSError) as exc:
            verdict = f"fail: {type(exc).__name__}: {exc}"
        failed += not verdict.startswith("ok")
        print(f"{pair} {verdict}")
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
