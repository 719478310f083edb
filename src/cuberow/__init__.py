"""cuberow: exact wire density and certified track counts for hypercube rows.

The package analyzes single-row layouts of the binary hypercube: closed-form
crossing counts at every vertical cutline, full enumeration of the cuts where
density peaks, terminal-ordering penalties, left-edge channel routing with a
verification certificate, and a brute-force oracle that independently
recomputes every claim.

``import cuberow`` loads no submodule.  Each public name is imported from
its submodule on first use (PEP 562) and then kept here, so a program pays
only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "HypercubeRow",
            "cut_density",
            "cut_density_bitsum",
            "cut_density_bitsum_profile",
            "cut_density_profile",
            "dimension_link_count",
            "leftmost_max_cut",
            "max_cut_density",
            "max_density_cuts",
        ),
        "density",
    ),
    **dict.fromkeys(
        (
            "IncompleteAssignmentError",
            "InvalidCutError",
            "InvalidDimensionError",
            "LayoutError",
            "NetlistFormatError",
            "RenderSizeError",
            "RowSizeError",
            "TooManyWiresError",
            "UnknownChoiceError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "Netlist",
            "Placement",
            "TerminalMode",
            "Wire",
            "build_netlist",
            "dump_netlist",
            "gray_code",
            "gray_rank",
            "load_netlist",
            "max_terminal_cut_density",
            "max_wirelength",
            "terminal_cut_density",
            "total_wirelength",
        ),
        "netlist",
    ),
    **dict.fromkeys(
        (
            "CrossingTable",
            "brute_link_count",
            "brute_maximizers",
            "brute_track_count",
            "coverage_bound",
            "crossing_profile",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "IntervalWire",
            "RouteCertificate",
            "TrackAssignment",
            "channel_density",
            "dump_assignment",
            "left_edge_route",
            "load_assignment",
            "verify_assignment",
            "wire_intervals",
        ),
        "routing",
    ),
}
_SUBMODULES = ("cli", "density", "errors", "kernels", "netlist", "oracle", "render", "routing", "selfcheck")

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is not None:
        value = globals()[name] = getattr(_import_module(f"{__name__}.{home}"), name)
        return value
    if name in _SUBMODULES:
        # The import binds the submodule here itself.
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
