"""cuberow: exact wire density and certified track counts for hypercube rows.

The package analyzes single-row layouts of the binary hypercube: closed-form
crossing counts at every vertical cutline, full enumeration of the cuts where
density peaks, terminal-ordering penalties, left-edge channel routing with a
verification certificate, and a brute-force oracle that independently
recomputes every claim.
"""

from cuberow.density import (
    HypercubeRow,
    cut_density,
    cut_density_bitsum,
    cut_density_bitsum_profile,
    cut_density_profile,
    dimension_link_count,
    leftmost_max_cut,
    max_cut_density,
    max_density_cuts,
)
from cuberow.errors import (
    IncompleteAssignmentError,
    InvalidCutError,
    InvalidDimensionError,
    LayoutError,
    NetlistFormatError,
    RenderSizeError,
    RowSizeError,
    TooManyWiresError,
    UnknownChoiceError,
)
from cuberow.netlist import (
    Netlist,
    Placement,
    TerminalMode,
    Wire,
    build_netlist,
    dump_netlist,
    gray_code,
    gray_rank,
    load_netlist,
    max_terminal_cut_density,
    max_wirelength,
    terminal_cut_density,
    total_wirelength,
)
from cuberow.oracle import (
    CrossingTable,
    brute_link_count,
    brute_maximizers,
    brute_track_count,
    coverage_bound,
    crossing_profile,
)
from cuberow.routing import (
    IntervalWire,
    RouteCertificate,
    TrackAssignment,
    channel_density,
    dump_assignment,
    left_edge_route,
    load_assignment,
    verify_assignment,
    wire_intervals,
)

__version__ = "0.1.0"
