"""Output checks for the benchmark's commands, written from the paper's identities.

Nothing here imports cuberow: every expected value is recomputed from the
row size alone, so a wrong answer from the program cannot also be the
reference it is checked against.  Each check raises :class:`CheckFailed`
with a one-line reason; :func:`run_check` turns that (or a malformed
document) into the failure message the benchmark records.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

SVG_NS = "{http://www.w3.org/2000/svg}"
SUMMARY = re.compile(r"# m=(?P<m>\d+) p=(?P<p>\d+) maximizers=(?P<maximizers>[\d ]+?)(?: terminal_max=(?P<terminal_max>\d+))?")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_check(check, stdout: bytes, work: Path) -> str | None:
    """Run one check; return None when the output holds, else the reason."""
    try:
        check(stdout, work)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def dims_of(n: int) -> int:
    return n.bit_length() - 1


def peak(n: int) -> int:
    """Peak intercolumn density, floor(2n/3)."""
    return 2 * n // 3


def leftmost_peak(n: int) -> int:
    """Leftmost cut attaining the peak, (n - (-1)^d) / 3."""
    return (n - (-1) ** dims_of(n)) // 3


def expected_tracks(n: int, mode: str) -> int:
    """m tracks with free terminals, one more with dimension-ordered ones."""
    if mode == "free":
        return peak(n)
    return 1 if n == 2 else peak(n) + 1


def check_profile(profile: list[int], n: int, m: int, p: int, maximizers: list[int]) -> None:
    """Interior densities of a row: length, sum, mirror symmetry and peak."""
    require(len(profile) == n - 1, f"profile has {len(profile)} cuts, want {n - 1}")
    require(sum(profile) == (n // 2) * (n - 1), f"profile sums to {sum(profile)}")
    require(profile == profile[::-1], "profile is not mirror symmetric")
    top = peak(n)
    require(max(profile) == top and m == top, f"peak {max(profile)}, m={m}, want {top}")
    first = leftmost_peak(n)
    require(p == first, f"p={p}, want {first}")
    require(profile.index(top) + 1 == first, "leftmost peak cut disagrees with the profile")
    attained = [cut for cut, value in enumerate(profile, start=1) if value == top]
    require(maximizers == attained, "maximizers disagree with the profile")


def check_density_doc(doc: dict, n: int, placement: str, mode: str) -> None:
    """The fields shared by ``density`` and ``route`` json documents."""
    require(
        (doc["n"], doc["placement"], doc["mode"]) == (n, placement, mode),
        f"header {doc['n']} {doc['placement']} {doc['mode']}",
    )
    check_profile(doc["profile"], n, doc["m"], doc["p"], doc["maximizers"])
    if mode == "dim-ordered":
        want = expected_tracks(n, mode)
        require(doc.get("terminal_max") == want, f"terminal_max {doc.get('terminal_max')}, want {want}")
    else:
        require("terminal_max" not in doc, "terminal_max present with free terminals")


def gray_code(index: int) -> int:
    return index ^ (index >> 1)


def check_wires(wires: list[tuple[int, int, int, int]], n: int, placement: str, mode: str, tracks: int) -> None:
    """A routed row: every link exactly once, and no two wires that share a
    track cross a common fine cut.

    Crossing ranges are recomputed from the fine-cut definition: each column
    owns ``d`` through-node cuts plus the gap to its right, so fine cut
    ``col * (d + 1) + slot``.  Free wires block the gaps strictly between
    their columns; dimension-ordered wires leave from slot ``dim`` and block
    every fine cut up to the one left of the same slot on the far node.
    """
    d = dims_of(n)
    require(len(wires) == n * d // 2, f"{len(wires)} wires, want {n * d // 2}")
    node_at = gray_code if placement == "gray" else (lambda col: col)
    step = d + 1
    seen = set()
    per_track: dict[int, list[tuple[int, int]]] = {}
    for dim, left, right, track in wires:
        require(1 <= dim <= d and 0 <= left < right < n, f"bad wire {dim} {left} {right}")
        require(node_at(left) ^ node_at(right) == 1 << (dim - 1), f"wire {dim} {left} {right} is not a link")
        require((dim, left) not in seen, f"wire {dim} {left} {right} listed twice")
        seen.add((dim, left))
        require(0 <= track < tracks, f"track {track} outside 0..{tracks - 1}")
        if mode == "free":
            span = ((left + 1) * step, right * step)
        else:
            span = (left * step + dim, right * step + dim - 1)
        per_track.setdefault(track, []).append(span)
    for track, spans in per_track.items():
        spans.sort()
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            require(hi < lo, f"track {track} holds overlapping wires")
    require(len(per_track) == tracks, f"{len(per_track)} tracks used, {tracks} reported")


# -- one check per command shape ---------------------------------------------


def density_json(n: int, placement: str, mode: str):
    def check(stdout: bytes, work: Path) -> None:
        doc = json.loads(stdout)
        check_density_doc(doc, n, placement, mode)
        require(doc["tracks"] is None, "density reports tracks")

    return check


def density_csv(n: int, mode: str):
    def check(stdout: bytes, work: Path) -> None:
        lines = stdout.decode().splitlines()
        d = dims_of(n)
        slots = [f"T{slot}" for slot in range(1, d + 1)] if mode == "dim-ordered" else []
        require(lines[0] == ",".join(["i", "S", *slots]), f"header {lines[0]!r}")
        rows = [[int(field) for field in line.split(",")] for line in lines[1:-1]]
        require([row[0] for row in rows] == list(range(1, n)), "cut column is not 1..n-1")
        profile = [row[1] for row in rows]
        summary = SUMMARY.fullmatch(lines[-1])
        require(summary is not None, f"summary {lines[-1]!r}")
        maximizers = [int(cut) for cut in summary["maximizers"].split()]
        check_profile(profile, n, int(summary["m"]), int(summary["p"]), maximizers)
        if slots:
            want = expected_tracks(n, mode)
            require(int(summary["terminal_max"]) == want, f"terminal_max {summary['terminal_max']}, want {want}")
            top = 0
            for row in rows:
                terminal = row[2:]
                require(len(terminal) == d and terminal[-1] == row[1], f"cut {row[0]}: T{d} != S")
                require(
                    all(abs(a - b) == 1 for a, b in zip(terminal, terminal[1:])),
                    f"cut {row[0]}: adjacent slot densities differ by other than 1",
                )
                top = max(top, *terminal)
            # The table stops at cut n-1; cut n never holds the peak.
            require(top == want, f"slot density peak {top}, want {want}")

    return check


def route_json(n: int, placement: str, mode: str):
    def check(stdout: bytes, work: Path) -> None:
        doc = json.loads(stdout)
        check_density_doc(doc, n, placement, mode)
        tracks = expected_tracks(n, mode)
        require(doc["tracks"] == tracks, f"tracks {doc['tracks']}, want {tracks}")
        wires = [(w["dim"], w["left_col"], w["right_col"], w["track"]) for w in doc["wires"]]
        require(wires == sorted(wires), "wires are not in (dim, left_col) order")
        check_wires(wires, n, placement, mode, tracks)

    return check


def route_csv(n: int, placement: str, mode: str, netlist_file: str, assignment_file: str):
    """Track table on stdout plus the two emitted interchange files."""

    def check(stdout: bytes, work: Path) -> None:
        lines = stdout.decode().splitlines()
        require(lines[0] == "dim,left_col,right_col,track", f"header {lines[0]!r}")
        wires = [tuple(int(field) for field in line.split(",")) for line in lines[1:]]
        check_wires(wires, n, placement, mode, expected_tracks(n, mode))
        assignment = (work / assignment_file).read_text().splitlines()
        require(assignment == [line.replace(",", " ") for line in lines[1:]], "assignment file disagrees with the table")
        netlist = (work / netlist_file).read_text().splitlines()
        require(netlist[0] == f"{n} {placement} {mode}", f"netlist header {netlist[0]!r}")
        # Both modes write slot = dim on each end of a wire.
        links = sorted(tuple(int(field) for field in line.split()) for line in netlist[1:])
        want = sorted((dim, left, dim, right, dim) for dim, left, right, _ in wires)
        require(links == want, "netlist file disagrees with the table")

    return check


def route_svg(n: int, placement: str, mode: str):
    def check(stdout: bytes, work: Path) -> None:
        root = ET.fromstring(stdout)
        polylines = sum(1 for _ in root.iter(f"{SVG_NS}polyline"))
        want = n * dims_of(n) // 2
        require(polylines == want, f"{polylines} polylines, want {want}")
        title = root.find(f"{SVG_NS}title").text
        require(title.endswith(f"{expected_tracks(n, mode)} tracks"), f"title {title!r}")

    return check


def selfcheck_text(max_n: int):
    def check(stdout: bytes, work: Path) -> None:
        last = stdout.decode().splitlines()[-1]
        require(last.startswith("all checks passed") and last.endswith(f"up to {max_n} nodes"), f"summary {last!r}")

    return check


def compare_text(n: int):
    def check(stdout: bytes, work: Path) -> None:
        rows = {}
        for line in stdout.decode().splitlines()[1:]:
            label, normal, gray = line.rsplit(None, 2)
            rows[label.strip()] = (int(normal), int(gray))
        m = peak(n)
        want = {
            "max density": (m, m),
            "tracks (free)": (m, m),
            "tracks (dim-ordered)": (m + 1, m + 1),
            "total wirelength": ((n // 2) * (n - 1),) * 2,
            "max wirelength": (n // 2, n - 1),
        }
        require(rows == want, f"compare table {rows}, want {want}")

    return check


def verify_report(n: int, pairs: list[tuple[str, str]]):
    """certify.py prints ``placement/mode ok tracks=T`` per pair, in
    the order it was given the pairs."""

    def check(stdout: bytes, work: Path) -> None:
        lines = sorted(stdout.decode().splitlines())
        want = sorted(f"{placement}/{mode} ok tracks={expected_tracks(n, mode)}" for placement, mode in pairs)
        require(lines == want, f"certificates {lines}, want {want}")

    return check
