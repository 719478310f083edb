"""What a launch imports, the package's lazily resolved names, and the
named-tuple records."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuberow
from cuberow.density import HypercubeRow
from cuberow.errors import LayoutError, RenderSizeError, RowSizeError, UnknownChoiceError
from cuberow.netlist import Netlist, Placement, TerminalMode, build_netlist
from cuberow.oracle import CrossingTable, crossing_profile
from cuberow.render import RenderSpec
from cuberow.routing import RouteCertificate, left_edge_route, verify_assignment, wire_intervals
from cuberow.selfcheck import CheckOutcome

# Run in a fresh interpreter, since this one has imported every module.
# It prints the modules that each import added to sys.modules.
_PROBE = """
import sys
before = set(sys.modules)
import cuberow
package = set(sys.modules) - before
import cuberow.cli
cli = set(sys.modules) - before - package
print(sorted(package))
print(sorted(cli))
"""


def _child_imports():
    source = str(Path(cuberow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return [set(ast.literal_eval(line)) for line in result.stdout.splitlines()]


class TestStartUp:
    def test_a_launch_imports_only_what_its_command_runs(self):
        package, cli = _child_imports()
        assert package == {"cuberow"}
        assert "cuberow.cli" in cli and "cuberow.routing" in cli  # the probe sees the imports
        assert cli & {"cuberow.render", "cuberow.selfcheck", "cuberow.oracle", "dataclasses"} == set()

    def test_every_public_name_resolves(self):
        for name in cuberow.__all__:
            value = getattr(cuberow, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(cuberow.__all__) <= set(dir(cuberow))
        assert len(cuberow.__all__) == len(set(cuberow.__all__)) == 46

    def test_star_import_and_submodules(self):
        names = {}
        exec("from cuberow import *", names)
        assert set(names) - {"__builtins__"} == set(cuberow.__all__)
        assert cuberow.netlist.build_netlist is cuberow.build_netlist
        assert cuberow.__version__ == "0.1.0"

    def test_an_unknown_name_is_an_attribute_error(self):
        assert getattr(cuberow, "kernel_backend", "none") == "none"
        with pytest.raises(AttributeError, match="has no attribute 'kernel_backend'"):
            cuberow.kernel_backend


def _records():
    row = HypercubeRow(8)
    net = build_netlist(row, Placement.GRAY)
    intervals = wire_intervals(net)
    assignment = left_edge_route(intervals)
    yield row, (8,)
    yield net, (row, Placement.GRAY, TerminalMode.FREE, net.wires)
    yield assignment, (assignment.by_wire, 5, 5)
    yield verify_assignment(intervals, assignment), (True, "ok", "", ())
    yield crossing_profile(net), (8, 3, crossing_profile(net).counts)
    yield CheckOutcome("rigged", True, 3), ("rigged", True, 3, "", 0)
    yield RenderSpec(), (12, 12, True)


class TestRecords:
    @pytest.mark.parametrize("record, fields", list(_records()), ids=lambda x: type(x).__name__)
    def test_a_record_is_a_named_tuple_of_its_fields(self, record, fields):
        assert record == fields and tuple(record) == fields
        assert type(record)(*fields) == record and repr(record).startswith(f"{type(record).__name__}(")
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_records_of_equal_fields_are_equal(self):
        assert HypercubeRow(8) == HypercubeRow(8) != HypercubeRow(16)
        assert hash(HypercubeRow(8)) == hash((8,))
        assert RouteCertificate(False, "overlap") == (False, "overlap", "", ())
        assert CrossingTable(2, 1, (0, 0, 1, 0, 0)) == crossing_profile(build_netlist(HypercubeRow(2)))

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: HypercubeRow(7), RowSizeError),
            (lambda: HypercubeRow(True), RowSizeError),
            (lambda: HypercubeRow(8)._replace(n=7), RowSizeError),
            (lambda: RenderSpec(True, 5), RenderSizeError),
            (lambda: RenderSpec(cell_height=0), RenderSizeError),
            (lambda: RenderSpec()._replace(cell_width=0), RenderSizeError),
            (lambda: RenderSpec(12, 12, "no"), LayoutError),
            (lambda: RenderSpec()._replace(show_tracks=0), LayoutError),
            (lambda: Netlist(HypercubeRow(2), "grey", "free", ()), UnknownChoiceError),
            (lambda: build_netlist(HypercubeRow(2))._replace(mode="ordered"), UnknownChoiceError),
        ],
        ids=["row-7", "row-bool", "row-replace", "spec-bool", "spec-zero", "spec-replace", "spec-show", "spec-show-replace", "netlist", "netlist-replace"],
    )
    def test_a_checked_record_is_checked_on_every_path(self, make, error):
        with pytest.raises(error):
            make()

    def test_a_netlist_stores_members_for_values(self):
        net = build_netlist(HypercubeRow(2))._replace(placement="gray")
        assert net.placement is Placement.GRAY and net.mode is TerminalMode.FREE


def _sources() -> list[Path]:
    return sorted(Path(cuberow.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.AST) -> list[str]:
    """The names that the import statements in ``tree`` bind, ``from
    __future__`` features aside, that no name in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def _private_names(tree: ast.Module) -> set[str]:
    """The private names, dunder names aside, that the top-level
    statements of ``tree`` define: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(tree: ast.AST) -> set[str]:
    """The names that ``tree`` reads, bare or as an attribute of anything."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Each private module-level name of ``trees``, keyed by file name,
    that no tree reads, as ``file: name``."""
    read = set().union(*map(_read_names, trees.values()))
    return [f"{name}: {private}" for name, tree in trees.items() for private in sorted(_private_names(tree) - read)]


class TestImports:
    def test_every_imported_name_is_used(self):
        # No linter ships with the package, so a stale import would stay.
        unused = []
        for path in _sources():
            unused += [f"{path.name}: {name}" for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
        assert unused == []

    def test_the_rule_catches_each_kind_of_import(self):
        source = (
            "from __future__ import annotations\nimport os, json\nimport xml.etree\n"
            "from functools import partial, reduce\nfrom itertools import chain as join\n"
            "import collections.abc as abc\n"
            "def f(x: abc.Iterable) -> None:\n    from math import tau\n    return json.dumps(reduce(x))\n"
        )
        assert _unused_imports(ast.parse(source)) == ["join", "os", "partial", "tau", "xml"]

    def test_every_private_name_is_read(self):
        # A private name has no reader outside the package, so one that no
        # module reads is dead code: a leftover table or helper.
        trees = {path.name: ast.parse(path.read_text(), str(path)) for path in _sources()}
        assert len(set().union(*map(_private_names, trees.values()))) > 50
        assert _unread_private_names(trees) == []

    def test_the_private_rule_catches_each_kind_of_definition(self):
        trees = {
            "a.py": ast.parse(
                "import os as _os\n__all__ = []\n_TABLE, _SIZE = {}, 4\n_hint: int = 1\n"
                "def _helper():\n    _local = 1\n    return _local\nclass _Kind:\n    _field = 1\n"
                "def _recursive():\n    return _recursive()\n"
                "def public():\n    return _SIZE\n"
            ),
            "b.py": ast.parse("import a\nprint(a._helper, a._TABLE)\n_spare = 3\n"),
        }
        assert _unread_private_names(trees) == ["a.py: _Kind", "a.py: _hint", "b.py: _spare"]

    def test_only_the_package_lists_its_public_names(self):
        # cuberow._HOMES is the one list of public names, and nothing
        # star-imports a submodule, so a submodule's __all__ is a second copy.
        binders = [path.name for path in _sources() if _binds_all(ast.parse(path.read_text(), str(path)))]
        assert binders == ["__init__.py"]

    def test_the_all_rule_catches_each_kind_of_binding(self):
        for source in (
            "__all__ = []", "__all__ += []", "__all__: list = []", "x, __all__ = 1, []", "for __all__ in []: pass"
        ):
            assert _binds_all(ast.parse(source)), source
        assert not _binds_all(ast.parse("names = __all__\nprint(module.__all__)\n"))


def _binds_all(tree: ast.AST) -> bool:
    """Whether any statement of ``tree`` binds the name ``__all__``."""
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    return any(name.id == "__all__" and isinstance(name.ctx, ast.Store) for name in names)
