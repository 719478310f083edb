"""Command-line front end.

Subcommands: ``density`` (cut-density tables), ``route`` (routed drawings and
track tables), ``compare`` (normal vs gray placement metrics), and ``check``
(the formula-versus-oracle suite).  Exit codes: 0 ok, 1 usage error, 2 an
invariant check failed, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat, starmap
from operator import itemgetter

# Imported here are only the modules that every command uses: ``route``
# imports ``render`` and ``check`` imports ``selfcheck``, and with it the
# oracle, so a launch loads only what its command runs.
from cuberow import density, kernels, netlist, routing
from cuberow.density import HypercubeRow
from cuberow.errors import LayoutError
from cuberow.netlist import Placement, TerminalMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3

MAX_CLOSED_FORM_NODES = 2**20
MAX_ROUTE_NODES = 2**12
MAX_COMPARE_NODES = 2**10


class UsageError(Exception):
    pass


# A command's output: (path, chunks) pairs, with None for stdout.  The
# chunks may be made as the writer drains them.
_Texts = list[tuple[str | None, Iterable[str]]]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_row(n: int, cap: int, flag: str = "--n") -> HypercubeRow:
    # The cap first, so a size above it names the flag and this command's cap.
    if n > cap:
        raise UsageError(f"{flag} {n} exceeds this command's cap of {cap}")
    return HypercubeRow(n)


def _regular_file(fd: int) -> tuple[int, int] | None:
    """The ``(st_dev, st_ino)`` of the file open on ``fd`` if it is a
    regular file, else None."""
    st = os.fstat(fd)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _write(texts: _Texts) -> None:
    """Write each text, an iterable of chunks, to the file its path names,
    or to stdout for None.

    Every file is opened in append mode, which changes none, before any is
    written, and stdout is written last.  One ``fstat`` of each handle says
    whether it is a regular file, which is truncated as "w" would, and which
    file it is: a regular file opened twice, or opened while stdout writes
    to it, would keep only one of its texts, so that is an error naming both
    paths.  A device or pipe may be named more than once.  On any exception
    but a broken pipe, the files this call created are removed; an open or
    a write that fails becomes a ``UsageError``, and any other exception,
    such as one raised while a text's chunks are made, is re-raised as it is.
    """
    stdout = next((chunks for path, chunks in texts if path is None), None)
    opened, files, owners, path = [], [], {}, None
    try:
        if stdout is not None:
            try:  # a None key, for a device or pipe, is never looked up
                owners[_regular_file(sys.stdout.fileno())] = "stdout"
            except ValueError:  # no descriptor, as under redirect_stdout
                pass
        for path, chunks in texts:
            if path is None:
                continue
            # Resolved, so that a dangling symlink keeps its link and loses
            # only the file made through it.
            real = os.path.realpath(path)
            created = not os.path.exists(real)
            handle = open(path, "a")
            opened.append((handle, real if created else None))
            key = _regular_file(handle.fileno())
            if key is not None:
                # By the key, never by identity: equal argv strings may be one object.
                if key in owners:
                    raise UsageError(f"{owners[key]} and {path} name the same file")
                owners[key] = path
            files.append((path, handle, key is not None, chunks))
        for path, handle, regular, chunks in files:
            with handle:
                if regular:
                    handle.truncate(0)
                handle.writelines(chunks)
        path = None
        if stdout is not None:
            sys.stdout.writelines(stdout)
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except BaseException as exc:
        for handle, created in opened:
            handle.close()
            if created is not None:
                os.remove(created)
        if not isinstance(exc, OSError):
            raise
        where = "stdout" if path is None else path
        raise UsageError(f"cannot write {where}: {exc.strerror or exc}") from None


# A list of scalars one level into a document, items on their own lines;
# only its brackets are left to strip.
_items_text = json.JSONEncoder(separators=(",\n    ", ": ")).encode

# Lines or records per chunk of a streamed text (a table, an svg drawing, an
# emitted file, the JSON wires), as wide as a profile block at the density
# cap.  A chunk's text then takes tens of KB, far below the interpreter's own
# memory, while the Python work per chunk stays small beside its C loops.
_BLOCK = 2**10


def _json_text(doc: dict) -> Iterator[str]:
    """The chunks of ``json.dumps(doc, indent=2) + "\\n"``, byte for byte,
    for a command's document, made as they are drained.

    ``doc`` is a non-empty dict with str keys, and each value is one of two
    kinds.  An iterator is a list given as the texts of its items: each
    chunk it yields holds one or more of them joined by ``",\\n    "``, and
    it is written as a list of its items, ``[]`` when it yields nothing, so
    it is never held whole.  Any other value is written whole by
    ``json.dumps``.  No chunk is kept once it is yielded.
    """
    yield "{"
    separator = "\n  "
    for key, value in doc.items():
        yield f"{separator}{json.dumps(key)}: "
        separator = ",\n  "
        if not isinstance(value, Iterator):
            # One level in, each line of its text is indented two more spaces.
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        elif (first := next(value, None)) is None:
            yield "[]"
        else:
            yield from ("[\n    ", first)
            for chunk in value:
                yield from (",\n    ", chunk)
            yield "\n  ]"
    yield "\n}\n"


def _blocks(lines: Iterable[str], separator: str = "") -> Iterator[str]:
    """``lines``, texts that are not empty, joined by ``separator``
    ``_BLOCK`` to a chunk as they are drained."""
    lines = iter(lines)
    return iter(lambda: separator.join(islice(lines, _BLOCK)), "")


def _record_texts(names: Iterable[str], rows: Iterable[tuple]) -> Iterator[str]:
    """A JSON list of records as :func:`_json_text` takes it: each record a
    dict with the str keys ``names``, in that order, and the int values of
    one tuple that ``rows`` yields, ``_BLOCK`` records to a chunk; ``names``
    is not empty, and no record is made as a dict."""
    # One format call per record; an int's text is its str().  '"key": ' as
    # the encoder writes it, with the braces escaped for format.
    fields = (json.dumps(name).replace("{", "{{").replace("}", "}}") for name in names)
    record = "{{" + ",".join(f"\n      {field}: {{}}" for field in fields) + "\n    }}"
    return _blocks(starmap(record.format, rows), ",\n    ")


def _density_data(row: HypercubeRow, placement: Placement, mode: TerminalMode) -> dict:
    """The JSON density document, with ``tracks`` None, from the closed forms.

    Its ``profile`` is an iterator of the interior cuts' densities as item
    texts, one chunk per block of ``kernels._profile_blocks``, each made
    from the split tables as it is written, so the document is written once.
    A gray row has the normal row's crossing count at every cut (see
    :mod:`cuberow.density`), so both placements take the same formulas.
    """
    cuts = density.max_density_cuts(row)
    return {
        "n": row.n,
        "placement": placement.value,
        "mode": mode.value,
        "profile": (_items_text(block)[1:-1] for block in kernels._profile_blocks(row.n)),
        "m": density.max_cut_density(row),
        "p": cuts[0],
        "maximizers": cuts,
        "tracks": None,
    }


def cmd_density(args) -> tuple[_Texts, int]:
    placement = Placement(args.placement)
    mode = TerminalMode(args.mode)
    row = _parse_row(args.n, MAX_CLOSED_FORM_NODES)

    doc = _density_data(row, placement, mode)
    slot_headers, terminal_rows = [], repeat(())
    if mode is TerminalMode.DIM_ORDERED:
        doc["terminal_max"] = netlist.max_terminal_cut_density(row)[0]
        slot_headers = [f"T{slot}" for slot in range(1, row.dims + 1)]
        # Slot rows for cuts 1..n-1, each computed as the table consumes it.
        terminal_rows = (netlist.terminal_cut_densities(row, cut) for cut in range(1, row.n))
    if args.format == "json":
        return [(args.out, _json_text(doc))], EXIT_OK

    peak, first, terminal_max = doc["m"], doc["p"], doc.get("terminal_max")
    shown = " ".join(map(str, doc["maximizers"]))
    cells = 2 + len(slot_headers)
    # One format string for the whole table, one format call per row; only
    # the summary lines differ between the formats.  Each row's line ends in
    # its newline.
    if args.format == "csv":
        row_format = (",".join(["{}"] * cells) + "\n").format
        summary = [f"# m={peak} p={first} maximizers={shown}"]
        if terminal_max is not None:
            summary[0] += f" terminal_max={terminal_max}"
    else:
        width = max(len(str(row.n)), len(str(peak + 1)), 3)
        row_format = ("  ".join([f"{{:>{width}}}"] * cells) + "\n").format
        summary = [f"m = {peak}   p = {first}   maximizers: {shown}"]
        if terminal_max is not None:
            summary.append(f"peak terminal density: {terminal_max}")
    # Each profile value and slot row becomes part of its line as it is
    # computed, and the lines are joined one block of rows at a time as the
    # writer drains them, so neither the profile nor the text is held whole.
    profile = chain.from_iterable(kernels._profile_blocks(row.n))
    table_rows = zip(enumerate(profile, start=1), terminal_rows)
    lines = (row_format(cut, value, *slots) for (cut, value), slots in table_rows)
    chunks = chain([row_format("i", "S", *slot_headers)], _blocks(lines), ["\n".join(summary) + "\n"])
    return [(args.out, chunks)], EXIT_OK


def _route(row: HypercubeRow, placement: Placement, mode: TerminalMode):
    net = netlist.build_netlist(row, placement, mode)
    intervals = routing.wire_intervals(net)
    assignment = routing.left_edge_route(intervals)
    cert = routing.verify_assignment(intervals, assignment)
    if not cert.ok:
        raise RuntimeError(f"routing verification failed: {cert.reason} {cert.detail}")
    return net, intervals, assignment


def cmd_route(args) -> tuple[_Texts, int]:
    placement = Placement(args.placement)
    mode = TerminalMode(args.mode)
    row = _parse_row(args.n, MAX_ROUTE_NODES)
    # Every format checks the cell sizes, before anything is routed.
    from cuberow import render

    spec = render.RenderSpec(args.cell_width, args.cell_height, show_tracks=not args.hide_tracks)
    net, intervals, assignment = _route(row, placement, mode)
    # Every check that can raise runs before this returns: each output below
    # is made as the writer drains it.  The track table's rows are the
    # netlist's wires in build_netlist's order, which is canonical order.
    wires = net.wires
    tracks = routing._tracks(assignment, wires)
    texts = []
    if args.emit_netlist is not None:
        texts.append((args.emit_netlist, _blocks(netlist._netlist_lines(net))))
    if args.emit_assignment is not None:
        texts.append((args.emit_assignment, _blocks(routing._assignment_lines(wires, tracks))))
    if args.format == "text":
        chunks = [render.render_text(net, assignment, spec)]
    elif args.format == "svg":
        chunks = _blocks(render._svg_lines(net, assignment, spec, tracks))
    elif args.format == "csv":
        # The track table's fields hold only digits, so each block of its
        # text becomes csv by one replace.
        blocks = _blocks(routing._assignment_lines(wires, tracks))
        chunks = chain(["dim,left_col,right_col,track\n"], (block.replace(" ", ",") for block in blocks))
    else:
        doc = _density_data(row, placement, mode)
        doc["tracks"] = assignment.track_count
        if mode is TerminalMode.DIM_ORDERED:
            # The routed channel's fine-cut peak, which the certificate proved equal to the track count.
            doc["terminal_max"] = assignment.track_count
        dims, lefts, rights = (map(itemgetter(field), wires) for field in range(3))
        doc["wires"] = _record_texts(("dim", "left_col", "right_col", "track"), zip(dims, lefts, rights, tracks))
        chunks = _json_text(doc)
    texts.append((args.out, chunks))
    return texts, EXIT_OK


def cmd_compare(args) -> tuple[_Texts, int]:
    row = _parse_row(args.n, MAX_COMPARE_NODES)

    metrics = {}
    for placement in Placement:
        free_net, _, free_assignment = _route(row, placement, TerminalMode.FREE)
        ordered_assignment = _route(row, placement, TerminalMode.DIM_ORDERED)[2]
        metrics[placement.value] = {
            "max_density": density.max_cut_density(row),
            "tracks_free": free_assignment.track_count,
            "tracks_dim_ordered": ordered_assignment.track_count,
            "total_wirelength": netlist.total_wirelength(free_net),
            "max_wirelength": netlist.max_wirelength(free_net),
        }

    if args.format == "json":
        return [(args.out, _json_text({"n": row.n, **metrics}))], EXIT_OK

    labels = [
        ("max_density", "max density"),
        ("tracks_free", "tracks (free)"),
        ("tracks_dim_ordered", "tracks (dim-ordered)"),
        ("total_wirelength", "total wirelength"),
        ("max_wirelength", "max wirelength"),
    ]
    csv = args.format == "csv"
    if csv:
        row_format = "{},{},{}".format
    else:
        name_w = max(len(label) for _, label in labels)
        val_w = max(len(str(v)) for m in metrics.values() for v in m.values())
        val_w = max(val_w, len("normal"), len("gray"))
        row_format = f"{{:{name_w}}}  {{:>{val_w}}}  {{:>{val_w}}}".format
    normal, gray = metrics["normal"], metrics["gray"]
    lines = [row_format("metric" if csv else "", "normal", "gray")]
    lines += [row_format(key if csv else label, normal[key], gray[key]) for key, label in labels]
    return [(args.out, ["\n".join(lines), "\n"])], EXIT_OK


def cmd_check(args) -> tuple[_Texts, int]:
    from cuberow import selfcheck

    max_n = _parse_row(args.max_n, selfcheck.MAX_COARSE_NODES, "--max-n").n
    lines = []
    total = 0
    failed = 0
    for outcome in selfcheck.run_all(max_n):
        status = "PASS" if outcome.passed else "FAIL"
        swept = f", rows up to {outcome.up_to} nodes" if 0 < outcome.up_to < max_n else ""
        line = f"{outcome.name:<22} {status}  ({outcome.assertions} assertions{swept})"
        if not outcome.passed:
            line += f"  {outcome.detail}"
            failed += 1
        total += outcome.assertions
        lines.append(line)
    verdict = f"{failed} check(s) failed" if failed else "all checks passed"
    lines.append(f"{verdict}, {total} assertions, rows up to {max_n} nodes")
    return [(args.out, ["\n".join(lines), "\n"])], EXIT_CHECK_FAILED if failed else EXIT_OK


def _count(text: str) -> int:
    # int() would also take "+8", "1_024" and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cuberow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, formats in (
        ("density", cmd_density, "cut-density table with peak summary", ["text", "json", "csv"]),
        ("route", cmd_route, "route the row and draw or tabulate it", ["text", "svg", "json", "csv"]),
        ("compare", cmd_compare, "normal vs gray placement metrics", ["text", "json", "csv"]),
        ("check", cmd_check, "run the formula-versus-oracle suite", None),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if formats is None:
            p.add_argument("--max-n", type=_count, default=256)
        else:
            p.add_argument("--n", type=_count, required=True, help="node count (power of two)")
            if name != "compare":
                p.add_argument("--placement", choices=[v.value for v in Placement], default=Placement.NORMAL.value)
                p.add_argument("--mode", choices=[v.value for v in TerminalMode], default=TerminalMode.FREE.value)
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    p_route = sub.choices["route"]
    p_route.add_argument("--cell-width", type=_count, default=12, help="svg cell width")
    p_route.add_argument("--cell-height", type=_count, default=12, help="svg cell height")
    p_route.add_argument("--hide-tracks", action="store_true", help="draw nodes only")
    p_route.add_argument("--emit-netlist", metavar="FILE", help="also write the netlist text format")
    p_route.add_argument("--emit-assignment", metavar="FILE", help="also write the track table text format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        texts, code = args.func(args)
        _write(texts)
        return code
    except (UsageError, LayoutError) as exc:
        print(f"cuberow: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"cuberow: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
