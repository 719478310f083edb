"""The CLI's output bytes: the JSON encoder against ``json.dumps``, and the
stdout digests of a fixed set of small commands."""

import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from collections.abc import Iterator
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cuberow
from cuberow import cli, kernels, netlist
from cuberow.density import HypercubeRow
from cuberow.errors import IncompleteAssignmentError, LayoutError, RenderSizeError
from cuberow.netlist import Netlist, Placement, TerminalMode, Wire, build_netlist, dump_netlist
from cuberow.render import MAX_TEXT_COLUMNS, RenderSpec, render_svg, render_text
from cuberow.routing import (
    TrackAssignment,
    dump_assignment,
    left_edge_route,
    load_assignment,
    verify_assignment,
    wire_intervals,
)

PAIRS = [(p, m) for p in ("normal", "gray") for m in ("free", "dim-ordered")]


def stdout_of(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    return out.getvalue()


def _reference(value):
    return json.dumps(value, indent=2) + "\n"


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\r\x00\x1f", "é", "日本", "\U0001f600", "\ud800"])
)
# Strings that look like the text spliced around items and records, or like
# the fields of the record format.
_tricky = st.sampled_from(["},\n{", "{", "}", "{}", "{0}", ",\n", "},\n    {", '"}, {"', "\n  ", "[", "]"])
_keys = st.text() | _tricky


# A record list's source, as in the route command's wire table: the key
# names, in order, and a tuple of int values per record.
Records = namedtuple("Records", "names rows")
# A streamed list's source, as in the density profile: its scalars, in
# blocks that are not empty.
Streamed = namedtuple("Streamed", "blocks")


def _written(source):
    """``source`` as the writer takes it: each record list formatted by
    ``cli._record_texts``, and each streamed list as the texts of its
    blocks, both as iterators made anew at each call."""
    doc = {}
    for key, value in source.items():
        if isinstance(value, Records):
            value = cli._record_texts(value.names, iter(value.rows))
        elif isinstance(value, Streamed):
            value = (cli._items_text(block)[1:-1] for block in value.blocks)
        doc[key] = value
    return doc


def _listed(source):
    """``source`` as ``json.dumps`` takes it: each record list as a list of
    dicts, and each streamed list as the list of its items."""
    listed = {}
    for key, value in source.items():
        if isinstance(value, Records):
            value = [dict(zip(value.names, row)) for row in value.rows]
        elif isinstance(value, Streamed):
            value = list(chain.from_iterable(value.blocks))
        listed[key] = value
    return listed


def _matches_json_dumps(source) -> bool:
    return "".join(cli._json_text(_written(source))) == _reference(_listed(source))


_records = st.lists(_keys, min_size=1, max_size=5, unique=True).flatmap(
    lambda keys: st.lists(st.tuples(*[st.integers()] * len(keys)), max_size=8).map(
        lambda rows: Records(tuple(keys), rows)
    )
)
_streamed = st.lists(st.lists(_scalars | _tricky, min_size=1), max_size=4).map(Streamed)
# Any value that is written whole: a scalar, or lists and dicts of any depth.
_plain = st.recursive(_scalars | _tricky, lambda inner: st.lists(inner) | st.dictionaries(_keys, inner), max_leaves=12)

# A command's document: str keys, each value written whole, a record list or
# a streamed list.
_documents = st.dictionaries(_keys, _plain | _records | _streamed, min_size=1)


@given(_documents)
def test_json_text_matches_json_dumps(source):
    assert _matches_json_dumps(source)


# Documents made only of record lists, several to a document, so each is cut
# at its separators between other keys' text.
@given(st.dictionaries(_keys, _records, min_size=1, max_size=4))
def test_json_text_matches_json_dumps_on_record_lists(source):
    assert _matches_json_dumps(source)


@pytest.mark.parametrize(
    "source",
    [
        {"profile": []},
        {"profile": Streamed([])},
        {"normal": {}},
        {
            "profile": Streamed([list(range(-600, 424)), list(range(424, 600))]),
            "wires": Records(("dim", "track"), [(1, -1)] * 3),
        },
        {"k": float("nan"), "inf": [float("inf"), -float("inf")], "é\n": "日"},
        {"wires": Records(("dim", "{}", "}{", "{0}"), [(1, -5, 10**20, 0)])},
        {"wires": Records(("dim", "track"), [(1, 0)])},
        {"wires": Records(("dim", "track"), []), "n": 2},
        {"normal": {"a": [1, {"b": []}], "c": {}}, "gray": [[], [[2]]]},
    ],
    ids=[
        "empty-list", "empty-stream", "empty-dict", "cli-shaped", "specials", "braces-in-keys", "one-record",
        "no-records", "nested",
    ],
)
def test_json_text_matches_json_dumps_on_edge_cases(source):
    assert _matches_json_dumps(source)


def _long_lists():
    # Streamed lists on both sides of the chunk size, in blocks of _BLOCK
    # items as the profile comes.
    for length in (cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1):
        yield f"numbers-{length}", list(range(-(length // 2), length - length // 2))
    mixed = [None, True, False, -1, 2.5, float("nan"), "é\n", "", "\"", 10**30]
    yield "mixed-scalars", (mixed * (2 * cli._BLOCK // len(mixed) + 1))[: 2 * cli._BLOCK + 1]


def _chunks_of(source):
    stream = cli._json_text(_written(source))
    assert isinstance(stream, Iterator) and not isinstance(stream, str)
    chunks = list(stream)
    assert "".join(chunks) == _reference(_listed(source))
    return chunks


@pytest.mark.parametrize("items", [items for _, items in _long_lists()], ids=[name for name, _ in _long_lists()])
def test_long_streamed_lists_are_written_in_chunks(items):
    blocks = [items[start : start + cli._BLOCK] for start in range(0, len(items), cli._BLOCK)]
    chunks = _chunks_of({"n": len(items), "profile": Streamed(blocks), "m": None})
    # A raw newline only comes from an item separator, so no chunk holds
    # more than _BLOCK items.
    assert max(chunk.count("\n") for chunk in chunks) < cli._BLOCK


@pytest.mark.parametrize("length", [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1])
def test_long_record_lists_are_written_in_chunks(length):
    chunks = _chunks_of({"n": length, "wires": Records(("dim", "track"), [(i, -i) for i in range(length)])})
    # Each record's text ends in its closing brace on a line of its own.
    per_chunk = [chunk.count("\n    }") for chunk in chunks]
    assert sum(per_chunk) == length and max(per_chunk) == min(length, cli._BLOCK)


def test_a_long_dict_is_encoded_whole():
    value = {"normal": {f"k{i}": i for i in range(cli._BLOCK + 1)}}
    chunks = _chunks_of(value)
    assert json.dumps(value["normal"], indent=2).replace("\n", "\n  ") in chunks


def _json_commands():
    for placement, mode in PAIRS:
        for command in ("density", "route"):
            yield (command, "--placement", placement, "--mode", mode, "--format", "json")
    yield ("compare", "--format", "json")


def _payload_and_stdout(monkeypatch, *argv):
    """The document a command writes, as ``json.dumps`` takes it, and its
    stdout.  Each streamed list is rebuilt from the rows its producer read:
    the profile's blocks of densities and the route's wire records."""
    payloads, sources = [], {}
    real_blocks, real_records = kernels._profile_blocks, cli._record_texts

    def profile_blocks(n):
        blocks = list(real_blocks(n))
        sources["profile"] = list(chain.from_iterable(blocks))
        return iter(blocks)

    def record_texts(names, rows):
        rows = list(rows)
        sources["wires"] = [dict(zip(names, row)) for row in rows]
        return real_records(names, rows)

    def recording(doc, encode=cli._json_text):
        payloads.append(doc)
        return encode(doc)

    monkeypatch.setattr(kernels, "_profile_blocks", profile_blocks)
    monkeypatch.setattr(cli, "_record_texts", record_texts)
    monkeypatch.setattr(cli, "_json_text", recording)
    out = stdout_of(*argv)
    assert len(payloads) == 1
    streamed = {key for key, value in payloads[0].items() if isinstance(value, Iterator)}
    assert streamed == set(sources)
    return {key: sources.get(key, value) for key, value in payloads[0].items()}, out


@given(st.lists(st.lists(_scalars | _tricky, min_size=1), min_size=1), _records)
def test_a_streamed_list_beside_a_record_list_matches_json_dumps(blocks, records):
    # Shaped like route json: a streamed profile among scalars, then the wires.
    assert _matches_json_dumps({"n": 8, "profile": Streamed(blocks), "m": 5, "maximizers": [3, 5], "wires": records})


@pytest.mark.parametrize("n", [2, 8, 64, 1024])
@pytest.mark.parametrize(
    "argv", list(_json_commands()), ids=lambda argv: "-".join(a for a in argv if not a.startswith("--"))
)
def test_every_cli_json_payload_matches_json_dumps(monkeypatch, argv, n):
    payload, out = _payload_and_stdout(monkeypatch, argv[0], "--n", str(n), *argv[1:])
    assert out == _reference(payload)


def test_a_profile_longer_than_a_chunk_matches_json_dumps(monkeypatch):
    # 2 * _BLOCK - 1 profile items, in 32 blocks of 2^6 cuts, the first
    # one short.
    n = 2 * cli._BLOCK
    payload, out = _payload_and_stdout(monkeypatch, "density", "--n", str(n), "--format", "json")
    assert cli._BLOCK < len(payload["profile"]) < 2 * cli._BLOCK
    assert out == _reference(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--n", str(2**18), "--format", "json"),
        ("density", "--n", str(2**14), "--mode", "dim-ordered", "--format", "csv"),
    ],
    ids=["free-json", "dim-ordered-csv"],
)
def test_a_density_output_is_written_in_bounded_memory(argv):
    # Drained into a null sink, neither command holds a profile, a table or
    # a text whole: the traced peak stays below 1 MiB (a 2^18-cut profile
    # alone takes 2 MiB), counting the split and slot tables it builds.
    netlist._row_tables.cache_clear()
    kernels._gap_tables.cache_clear()
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        netlist._row_tables.cache_clear()
        kernels._gap_tables.cache_clear()
    assert code == cli.EXIT_OK
    assert peak < 2**20


# sha256 of stdout; a deliberate change to an output format updates its
# digest in the same commit.
GOLDEN = [
    ("density --n 1024 --placement normal --mode free --format json", "26d3e3a94163aa6408b09bbf994f4459003e758b3f25e396490e329d02f7b380"),
    ("density --n 1024 --placement normal --mode free --format csv", "81e31ada5be5fbee31a2a7ab78148140c84dcf1273240daf16b1a67a7940e80e"),
    ("density --n 1024 --placement normal --mode free --format text", "782779e243364ea1070b7b5a9a11a9aa540f21aab2cae23172976cc6ee766f92"),
    ("density --n 1024 --placement normal --mode dim-ordered --format json", "72766ff129a34e04d875fc1449d8746036ce9aeb8e030c0711fb105159aec652"),
    ("density --n 1024 --placement normal --mode dim-ordered --format csv", "84943a92d0511adb304bc4cc0db8fdf311d5426b8d6d3050a7f0112a21675642"),
    ("density --n 1024 --placement normal --mode dim-ordered --format text", "9f53856c898ec9f881fbcee6070b5e9143d0138cb36878f028b07ff2cffaf9b6"),
    ("density --n 1024 --placement gray --mode free --format json", "8fe055f6530e188b41c28ab6269c2fa913a8ea40288a187d69cf60d30329ed86"),
    ("density --n 1024 --placement gray --mode free --format csv", "81e31ada5be5fbee31a2a7ab78148140c84dcf1273240daf16b1a67a7940e80e"),
    ("density --n 1024 --placement gray --mode free --format text", "782779e243364ea1070b7b5a9a11a9aa540f21aab2cae23172976cc6ee766f92"),
    ("density --n 1024 --placement gray --mode dim-ordered --format json", "93f69b8a2cd85045cb7e269486b725b6f0c4d9e149dc49bccf644949c3d60d2c"),
    ("density --n 1024 --placement gray --mode dim-ordered --format csv", "84943a92d0511adb304bc4cc0db8fdf311d5426b8d6d3050a7f0112a21675642"),
    ("density --n 1024 --placement gray --mode dim-ordered --format text", "9f53856c898ec9f881fbcee6070b5e9143d0138cb36878f028b07ff2cffaf9b6"),
    ("route --n 64 --placement normal --mode free --format json", "bed84ca3ec30bb95838054f10648ea7c568c3930314a6c7e10e0bdf872073eb6"),
    ("route --n 64 --placement normal --mode free --format csv", "e850c7a068e41a4b2ea9a6dc317741ecc4cfb74461809ec4c3fc1e8bd51aba45"),
    ("route --n 64 --placement normal --mode free --format svg", "a8b7a8563e88b0e3d8aa8d977b84e0e7997b92a110300ab9e49c3e50beba48f1"),
    ("route --n 64 --placement normal --mode dim-ordered --format json", "82587eff5d063ce49c26d8b18982d191a16e0cbd407c621385dd1137d5141f75"),
    ("route --n 64 --placement normal --mode dim-ordered --format csv", "ba3179351b0f74b33035fa6bc82ce9c8b92d9f4a3bd382ea626709e224cdff48"),
    ("route --n 64 --placement normal --mode dim-ordered --format svg", "05fa56a555c17660e441fc713d6ed12aad9aba2aba7799bc9b04fe1eac90214b"),
    ("route --n 64 --placement gray --mode free --format json", "f273b5483cdaf8ecc11f4c8e8339275911155c3641e738244026314484497a49"),
    ("route --n 64 --placement gray --mode free --format csv", "3a2e94b49524cb4fdda54fb051b8c42aba72aa6e6bd2aaea3e5f57bb20e96f23"),
    ("route --n 64 --placement gray --mode free --format svg", "f5dd74463bad6600c202ee874900c78ea73508a7eedbc6e3fdd0c3401399312f"),
    ("route --n 64 --placement gray --mode dim-ordered --format json", "b12302852b30c5e0916cc1fa9d6bcd1534d891dd5b073c2f843d65ffe86eba18"),
    ("route --n 64 --placement gray --mode dim-ordered --format csv", "f55bfbad7fe9209614cb55a03bcdf7c30db5b573ffccd6fd6af62872a7594798"),
    ("route --n 64 --placement gray --mode dim-ordered --format svg", "25c7ecfa5cfb56c0af102dea3dd45a5833c78a339585fc5eb60bbc857f6d383c"),
    ("compare --n 64", "466e1aebd3934ac092b16adfdf599f3d78f403c1fd40e6dcfd25fe41d2210373"),
    ("compare --n 64 --format json", "ce24e27103b79fb884dcb76bfdf4237c30a3e1e6e672d71abaf1337dc9d59b13"),
    ("compare --n 64 --format csv", "eec8f92b1da3ccb387373494c6d33fb8802f4d6e096b04391007af87f05de936"),
    # At this size a value is exactly as wide as "normal".
    ("compare --n 1024", "afec1cc958c1d6aeff24c3420c85ad5df7d74dbaf3e06ef57c7e72c31ca96324"),
    ("compare --n 1024 --format csv", "b2495d2309d64e7b36454d0a2238a60311de5a5464177a64e5eaec9eed52c2d0"),
    ("check --max-n 64", "a748782dc09661a1374b8f74281d340733298cebf9caeeaacd40e24fc9017d4a"),
    ("check --max-n 2048", "dcb16280f46e2464ba946fb53daf43b0a6104f05ec9b5a4f35bf45f5ad585717"),
    ("route --n 1024 --placement normal --mode free --format json", "df7613399dffafc1da2e580dd828aecdfc4c4af47d241d0ca8aebebc8eec97b2"),
    ("route --n 1024 --placement normal --mode dim-ordered --format json", "5fad1173f9b37489b6137c378402be5216cd136b0d6c71272c16b8cdefe7207b"),
    ("route --n 1024 --placement gray --mode free --format json", "cc3385cb917a2d01592498faa801a47316c8fa869b3c60199743445ceb6eaad5"),
    ("route --n 1024 --placement gray --mode dim-ordered --format json", "765a3f8c41d04709fd6aebf23f36f5b3bcdc35ef0bc3586413062e8648fcbbbf"),
    ("route --n 1024 --placement gray --mode free --format svg", "04ab89e1ca4bc84dea5ed8fda6eebda131a76a32494a5915944abae957664dd6"),
    ("route --n 1024 --placement normal --mode dim-ordered --format csv", "fe8035c4ef0f5cad6da42fbf1381b92001e45caf1bc85f1988fb4a7c8d73a54e"),
    ("route --n 64 --placement normal --mode free --format text", "48a163457e19ea1f205dcdf525b7c5c3a2eb669c9ee35b325bbd1cb1bc41638c"),
    ("route --n 64 --placement normal --mode dim-ordered --format text", "0a2ba7de4b890017b78ed8b55495f4b42e027e99e57f2ba03b3a9934474c1fa0"),
    ("route --n 64 --placement gray --mode free --format text", "dca6d91326e8444b9d08c45cad3eb35652b89317767603e3a608e3867ae56d14"),
    ("route --n 64 --placement gray --mode dim-ordered --format text", "c5b64791f1e96fd225e18dac22c7d765d1c2e008973374864ffeae6e05ae3a1b"),
    ("route --n 16 --format text --hide-tracks", "7697f8d8c8e7a926f9f11c08dfe6af47a2718f8abc9eca23cceb0b46e0d5fbf8"),
    ("route --n 64 --format svg --hide-tracks", "e48f224230830916d44bbcd71269b131f0798e802f0bf858e67d1b3cd361cf3e"),
    # Half-pixel coordinates, all below 10^5.
    ("route --n 512 --format svg --cell-width 7 --cell-height 5", "bf219621ba73a5d2d02c61d53b40920553f19b315ba84477bc9949d46e0689eb"),
]


@pytest.mark.parametrize(
    "command, digest",
    GOLDEN,
    ids=["-".join(a for a in command.split() if not a.startswith("--")) for command, _ in GOLDEN],
)
def test_stdout_bytes_are_unchanged(command, digest):
    assert hashlib.sha256(stdout_of(*command.split()).encode()).hexdigest() == digest


# sha256 of the netlist and assignment files that `route --n 1024` emits
# for each placement and mode; they do not depend on --format.
EMITTED = [
    ("normal", "free", "225fd78491d9eb2fc87ecae29fa197124d83c6e4dc90e1f781f3f057f55fe2eb",
     "03ff817be1f3dd81cb7f014be6763f6a120abdba361fa41ba299f88988fa03dc"),
    ("normal", "dim-ordered", "decbe185595c5f984aa9cebecdc53eac7a98d4b9661c00f42702a5ee18060c8b",
     "c9212bca4068d2cb20a26786f897fc9f8a518645377589a74a2a24665b55bcc7"),
    ("gray", "free", "392e32d46b751a925ca0480ec5ddee500cac3189377f14066a31ba7b7d2418a3",
     "918e20d8240b3120446a80997130783b581dff389e13725906feafc39081fc84"),
    ("gray", "dim-ordered", "42393d211e921d78f2ab8c7d2ee9cf358919d8a1a6717856e17075c896dad67a",
     "68e834368d353ce669a3b47621cbe5099a39d4b8b03668a1f3a6862c5ec922e8"),
]


@pytest.mark.parametrize("placement, mode, netlist_digest, assignment_digest", EMITTED, ids=[f"{p}-{m}" for p, m, *_ in EMITTED])
def test_emitted_file_bytes_are_unchanged(tmp_path, placement, mode, netlist_digest, assignment_digest):
    netlist_file, assignment_file = tmp_path / "route.net", tmp_path / "route.asg"
    stdout_of(
        "route", "--n", "1024", "--placement", placement, "--mode", mode, "--format", "csv",
        "--emit-netlist", str(netlist_file), "--emit-assignment", str(assignment_file),
    )
    assert hashlib.sha256(netlist_file.read_bytes()).hexdigest() == netlist_digest
    assert hashlib.sha256(assignment_file.read_bytes()).hexdigest() == assignment_digest


@pytest.mark.parametrize(
    "placement, mode, fmt",
    [("gray", "free", "svg"), ("normal", "free", "json"), ("normal", "dim-ordered", "csv")],
    ids=["svg", "json", "csv"],
)
def test_every_route_output_is_streamed_in_blocks(tmp_path, placement, mode, fmt):
    # At the cap, each output is an iterator of chunks, none of them near the
    # whole text, that joins to the text of the public str functions.
    n = cli.MAX_ROUTE_NODES
    netlist_file, assignment_file = str(tmp_path / "route.net"), str(tmp_path / "route.asg")
    args = cli.build_parser().parse_args([
        "route", "--n", str(n), "--placement", placement, "--mode", mode, "--format", fmt,
        "--emit-netlist", netlist_file, "--emit-assignment", assignment_file,
    ])
    texts, code = cli.cmd_route(args)
    assert code == cli.EXIT_OK and [path for path, _ in texts] == [netlist_file, assignment_file, None]
    joined = {}
    for path, chunks in texts:
        assert isinstance(chunks, Iterator)
        chunks = list(chunks)
        assert len(chunks) > 1 and max(map(len, chunks)) < 2**20
        joined[path] = "".join(chunks)

    net = build_netlist(HypercubeRow(n), placement, mode)
    intervals = wire_intervals(net)
    assignment = left_edge_route(intervals)
    table = dump_assignment(intervals, assignment)
    assert joined[netlist_file] == dump_netlist(net)
    assert joined[assignment_file] == table
    if fmt == "svg":
        assert joined[None] == render_svg(net, assignment)
    elif fmt == "csv":
        assert joined[None] == "dim,left_col,right_col,track\n" + table.replace(" ", ",")
    else:
        names = ("dim", "left_col", "right_col", "track")
        assert json.loads(joined[None])["wires"] == [dict(zip(names, row)) for row in load_assignment(table)]


_CAPPED_RENDER = """
import resource, sys
limit, track_count = map(int, sys.argv[1:])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cuberow.density import HypercubeRow
from cuberow.errors import RenderSizeError
from cuberow.netlist import build_netlist
from cuberow.render import render_text
from cuberow.routing import left_edge_route, wire_intervals
net = build_netlist(HypercubeRow(4))
try:
    render_text(net, left_edge_route(wire_intervals(net))._replace(track_count=track_count))
except RenderSizeError as exc:
    print(exc)
"""


def test_text_caps_its_track_rows_as_its_columns():
    # A grid row per track: 10**9 hand-made tracks on a 12-column row raised
    # a bare MemoryError under this 512 MB cap.
    source = str(Path(cuberow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _CAPPED_RENDER, str(512 << 20), str(10**9)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "text rendering needs 1000000000 track rows, cap is 512\n"


def test_text_draws_up_to_the_track_row_cap():
    net = build_netlist(HypercubeRow(4))
    routed = left_edge_route(wire_intervals(net))
    drawing = render_text(net, routed._replace(track_count=MAX_TEXT_COLUMNS))
    assert drawing.count("\n") == MAX_TEXT_COLUMNS + 4
    with pytest.raises(RenderSizeError, match=f"^text rendering needs {MAX_TEXT_COLUMNS + 1} track rows, cap is"):
        render_text(net, routed._replace(track_count=MAX_TEXT_COLUMNS + 1))
    # With the tracks hidden, no track row is drawn.
    hidden = render_text(net, routed._replace(track_count=10**9), RenderSpec(show_tracks=False))
    assert hidden.endswith(f"tracks: 1000000000  channel density: {routed.density}\n")


@pytest.mark.parametrize("spec", [RenderSpec(), RenderSpec(show_tracks=False)], ids=["shown", "hidden"])
def test_text_prints_the_channels_density_not_the_records(spec):
    # Unchecked, the summary line printed "channel density: 999".
    net = build_netlist(HypercubeRow(8))
    routed = left_edge_route(wire_intervals(net))
    drawing = render_text(net, routed._replace(density=999), spec)
    assert drawing == render_text(net, routed, spec)
    assert drawing.endswith("tracks: 5  channel density: 5\n")


# Every reader of a track assignment, each given a netlist and the assignment.
READERS = pytest.mark.parametrize(
    "reader",
    [
        lambda net, assignment: render_text(net, assignment),
        lambda net, assignment: render_svg(net, assignment),
        lambda net, assignment: dump_assignment(wire_intervals(net), assignment),
        lambda net, assignment: verify_assignment(wire_intervals(net), assignment),
        lambda net, assignment: render_text(net, assignment, RenderSpec(show_tracks=False)),
        lambda net, assignment: render_svg(net, assignment, RenderSpec(show_tracks=False)),
    ],
    ids=["render_text", "render_svg", "dump_assignment", "verify_assignment", "render_text-hidden", "render_svg-hidden"],
)


@READERS
def test_every_reader_of_an_assignment_names_a_wire_without_a_track(reader):
    net = build_netlist(HypercubeRow(8), Placement.NORMAL, TerminalMode.FREE)
    routed = left_edge_route(wire_intervals(net))
    missing = net.wires[5]
    by_wire = {w: t for w, t in routed.by_wire.items() if w != missing}
    with pytest.raises(IncompleteAssignmentError, match=re.escape(f"no track assigned to wire {missing}")):
        reader(net, TrackAssignment(by_wire, routed.track_count, routed.density))


@pytest.mark.parametrize("track", ["0", 0.0, True, None], ids=["str", "float", "bool", "none"])
@READERS
def test_every_reader_of_an_assignment_refuses_a_track_that_is_not_an_int(reader, track):
    # Unchecked, verify_assignment compared "0" with 0 and raised a bare
    # TypeError, and a bool track passed as 0 or 1.
    wires = (Wire(1, 0, 1, 1, 1),)
    net = Netlist(HypercubeRow(2), Placement.NORMAL, TerminalMode.FREE, wires)
    with pytest.raises(LayoutError, match=f"^track {re.escape(repr(track))} is not an int$"):
        reader(net, TrackAssignment({wires[0]: track}, 1, 1))


@pytest.mark.parametrize("count", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
@READERS
def test_every_reader_of_an_assignment_refuses_a_track_count_that_is_not_an_int(reader, count):
    # Unchecked, verify_assignment certified a count of True as one track,
    # and render_svg drew a count of 1.0 as a picture 96.0 units high.
    wires = (Wire(1, 0, 1, 1, 1),)
    net = Netlist(HypercubeRow(2), Placement.NORMAL, TerminalMode.FREE, wires)
    with pytest.raises(LayoutError, match=f"^track count {re.escape(repr(count))} is not an int$"):
        reader(net, TrackAssignment({wires[0]: 0}, count, 1))


@pytest.mark.parametrize("density", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
@READERS
def test_every_reader_of_an_assignment_refuses_a_density_that_is_not_an_int(reader, density):
    # Unchecked, render_text printed "channel density: 1.0" on a two-node row.
    wires = (Wire(1, 0, 1, 1, 1),)
    net = Netlist(HypercubeRow(2), Placement.NORMAL, TerminalMode.FREE, wires)
    with pytest.raises(LayoutError, match=f"^channel density {re.escape(repr(density))} is not an int$"):
        reader(net, TrackAssignment({wires[0]: 0}, 1, density))


@pytest.mark.parametrize("track", [-1, 2, 3], ids=["below", "at-count", "past-count"])
@READERS
def test_every_reader_of_an_assignment_refuses_a_track_out_of_range(reader, track):
    # Two tracks draw two rows; a row index below 0 would wrap to another
    # row, and the svg would draw the wire above or below the picture.
    # Unchecked, dump_assignment wrote a track of -1 that load_assignment
    # refused, the drawings with tracks hidden took it, and the certificate
    # gave a verdict on it.
    wires = (Wire(1, 0, 1, 1, 1),)
    net = Netlist(HypercubeRow(2), Placement.NORMAL, TerminalMode.FREE, wires)
    with pytest.raises(LayoutError, match=f"^track {track} outside 0..1$"):
        reader(net, TrackAssignment({wires[0]: track}, 2, 1))


@pytest.mark.parametrize("wires", [(), (Wire(1, 0, 1, 1, 1),)], ids=["no-wires", "one-wire"])
@READERS
def test_every_reader_of_an_assignment_refuses_a_negative_track_count(reader, wires):
    # Unchecked, render_text printed "tracks: -3", render_svg drew a picture
    # titled "-3 tracks", and the certificate gave a verdict on it.
    net = Netlist(HypercubeRow(2), Placement.NORMAL, TerminalMode.FREE, wires)
    with pytest.raises(LayoutError, match="^track count -3 is negative$"):
        reader(net, TrackAssignment(dict.fromkeys(wires, 0), -3, len(wires)))


def _svg_sizes():
    # The last terminal tick sits at 66 + (4095 * 13 + 11) * 33 + 16.5.
    yield "wide-cells", ("--n", "4096", "--cell-width", "33"), '<line x1="1757200.5"'
    # Track row 0's centre is 24 + 2000001 / 2.
    yield "tall-cells", ("--n", "8", "--cell-height", "2000001"), ",1000024.5 "
    # Odd and even cell sizes, under an odd (3) and an even (4) dims.
    for n in ("8", "16"):
        for cw in ("1", "2", "33"):
            for ch in ("1", "4"):
                yield f"n{n}-{cw}x{ch}", ("--n", n, "--cell-width", cw, "--cell-height", ch), None


@pytest.mark.parametrize(
    "argv, exact", [case[1:] for case in _svg_sizes()], ids=[case[0] for case in _svg_sizes()]
)
def test_svg_coordinates_are_exact(argv, exact):
    svg = stdout_of("route", "--format", "svg", *argv)
    args = cli.build_parser().parse_args(["route", *argv])
    row, cw, ch = HypercubeRow(args.n), args.cell_width, args.cell_height
    net = build_netlist(row, Placement.NORMAL, TerminalMode.FREE)
    assignment = left_edge_route(wire_intervals(net))
    step, margin, top = row.dims + 1, 2 * cw, assignment.track_count - 1

    # Twice each coordinate, in integers.
    def x(col, slot):
        return 2 * margin + (2 * (col * step + slot - 1) + 1) * cw

    def y(track):
        return 2 * margin + (2 * (top - track) + 1) * ch

    node_top = 2 * (margin + (top + 2) * ch)
    ticks = [x(col, slot) for col in range(row.n) for slot in range(1, row.dims + 1)]
    labels = [2 * (margin + col * step * cw) + row.dims * cw for col in range(row.n)]
    wires = [
        [x(w.left_col, w.left_slot), node_top, x(w.left_col, w.left_slot), y(track),
         x(w.right_col, w.right_slot), y(track), x(w.right_col, w.right_slot), node_top]
        for w, track in ((w, assignment.by_wire[w]) for w in net.wires)
    ]

    # Twice each printed number; many repeat, so each distinct text is read once.
    @functools.cache
    def twice(text):
        value = 2 * Fraction(text)
        assert value.denominator == 1, text
        return value.numerator

    def numbers(pattern):
        return list(map(twice, re.findall(pattern, svg)))

    assert numbers(r'<line x1="([^"]*)"') == ticks
    assert numbers(r'<line x1="[^"]*" y1="[^"]*" x2="([^"]*)"') == ticks
    assert numbers(r'<text x="([^"]*)"') == labels
    assert [
        list(map(twice, re.split("[ ,]", points))) for points in re.findall(r'points="([^"]*)"', svg)
    ] == wires
    assert exact is None or exact in svg


@pytest.mark.parametrize("sizes", [(12, -1), (12.0, 12), (12, 0.5), ("12", 12), (True, 5), (5, False)])
def test_cell_sizes_must_be_positive_integers(sizes):
    with pytest.raises(RenderSizeError, match="cell size must be positive integers"):
        RenderSpec(*sizes)
