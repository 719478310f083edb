"""Outside-in tracer: run one command in this interpreter with the program's
module functions wrapped in span recorders, leaving ``src/`` untouched.

    python3 perfbench/tracer.py SPANS CMD_ID cuberow ARGS...
    python3 perfbench/tracer.py SPANS CMD_ID certify ARGS...

The first form calls ``cuberow.cli.main(ARGS)``, the second
``certify.main(ARGS)``, the ``verify`` workload's reader.  Spans are kept
in memory and written to SPANS as JSON lines when the command returns:
``name``, ``start``, ``end``, ``parent`` (span id or -1), ``cmd`` and
``id``, plus ``err`` when the call raised and ``size`` where a size is
recorded (see ``SIZES``).
:func:`summarize` turns span files into per-function calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

# The program's layers, each a module of the cuberow package.
LAYERS = ("cli", "density", "kernels", "netlist", "routing", "oracle", "render", "selfcheck")

# Private functions that are a layer boundary, under the name they are
# reported by.  cli.main's self time is argument parsing plus the inline
# csv/text formatting of the subcommand bodies, so those are not wrapped.
RENAMED = {"cli._json_text": "cli.serialize_json"}
NOT_WRAPPED = ("cli.cmd_", "cli.build_parser")

# Per-span sizes, read from a call's arguments or result.
SIZES = {
    "netlist.build_netlist": lambda args, result: len(result.wires),
    "netlist.load_netlist": lambda args, result: len(args[0]),
    "netlist.terminal_cut_densities": lambda args, result: args[1],
    "routing.left_edge_route": lambda args, result: result.track_count,
    "routing.load_assignment": lambda args, result: len(args[0]),
    "oracle.crossing_profile": lambda args, result: len(result.counts),
}


class Tracer:
    """Span store plus the wrappers that fill it.

    Spans live in flat arrays so that a command making a million calls
    stays small in memory; ``stack`` holds the ids of the open spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.err = array("b")
        self.size = array("q")
        self.stack: list[int] = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        stack, start, end, err, size = self.stack, self.start, self.end, self.err, self.size

        def traced(*args, **kwargs):
            span = len(start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            end.append(0.0)
            err.append(0)
            size.append(-1)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[span] = perf_counter()
                err[span] = 1
                raise
            finally:
                stack.pop()
            end[span] = perf_counter()
            if size_of is not None:
                try:
                    size[span] = size_of(args, result)
                except (IndexError, AttributeError, TypeError):
                    pass  # the call's shape changed; its size goes unrecorded
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> list[str]:
        """Wrap every public function of every layer; return their names.

        A function is rebound wherever the program looks it up: in each
        cuberow module that imported it by name, and inside module-level
        lists such as ``selfcheck.ALL_CHECKS``.
        """
        wrapped = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"cuberow.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(module).items():
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                if attr.startswith("_") and name == f"{layer}.{attr}":
                    continue
                if name.startswith(NOT_WRAPPED) or id(fn) in wrapped or not _defined_in(fn, module):
                    continue
                wrapped[id(fn)] = self.wrap(name, fn)
        targets = [m for key, m in sys.modules.items() if key == "cuberow" or key.startswith("cuberow.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, list):
                    value[:] = [wrapped.get(id(item), item) for item in value]
        return list(self.names)

    def dump(self, path: Path, cmd_id: int) -> None:
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as out:
            for span, (name_id, start, end, parent, err, size) in enumerate(
                zip(self.name_of, self.start, self.end, self.parent, self.err, self.size)
            ):
                extra = (',"err":1' if err else "") + (f',"size":{size}' if size >= 0 else "")
                out.write(
                    f'{{"cmd":{cmd_id},"id":{span},"name":{names[name_id]},'
                    f'"start":{start!r},"end":{end!r},"parent":{parent}{extra}}}\n'
                )


def _defined_in(fn, module) -> bool:
    """A plain function of this module, or a kernel it re-exports from a
    private cuberow module; classes and imported helpers are skipped."""
    if not isinstance(fn, (types.FunctionType, types.BuiltinFunctionType)):
        return False
    home = getattr(fn, "__module__", "") or ""
    return home == module.__name__ or home.startswith("cuberow._")


def summarize(span_files) -> dict[str, dict]:
    """Per span name: calls, failed calls, inclusive and self seconds, and
    the sizes recorded, from one or more span files.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the program runs on one thread.
    """
    table: dict[str, dict] = {}
    for path in span_files:
        index_of: dict[str, int] = {}
        rows: list[dict] = []
        row_of, duration, child_time = array("H"), array("d"), array("d")
        with open(path) as spans:
            for line in spans:
                span = json.loads(line)
                index = index_of.get(span["name"])
                if index is None:
                    index = index_of[span["name"]] = len(rows)
                    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "sizes": []}
                    rows.append(table.setdefault(span["name"], empty))
                row = rows[index]
                row_of.append(index)
                duration.append(span["end"] - span["start"])
                child_time.append(0.0)
                if span["parent"] >= 0:
                    child_time[span["parent"]] += duration[-1]
                row["calls"] += 1
                row["failed"] += span.get("err", 0)
                if "size" in span:
                    row["sizes"].append((span["cmd"], span["size"]))
        for span, index in enumerate(row_of):
            rows[index]["total_s"] += duration[span]
            rows[index]["self_s"] += duration[span] - child_time[span]
    return table


def main(argv: list[str]) -> int:
    spans_path, cmd_id, program, args = Path(argv[0]), int(argv[1]), argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        if program == "certify":
            import certify

            return certify.main(args)
        from cuberow import cli

        return cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, cmd_id)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
