"""Exception types shared across the package."""


class LayoutError(ValueError):
    """Base class for every domain error raised by cuberow."""


class RowSizeError(LayoutError):
    """Node count is not a power of two in 2..MAX_NODES."""


class InvalidCutError(LayoutError):
    """Cut position (or terminal slot) outside its legal range."""


class InvalidDimensionError(LayoutError):
    """Link dimension outside 1..dims."""


class UnknownChoiceError(LayoutError):
    """Placement or terminal mode that names none of its enum's members."""


class NetlistFormatError(LayoutError):
    """Malformed netlist or track-assignment text, or netlist wires that
    are not distinct links of their row with terminals on it, whether read
    from text or given to ``Netlist`` by hand."""


class IncompleteAssignmentError(LayoutError):
    """Track assignment is missing at least one routed wire."""


class TooManyWiresError(LayoutError):
    """Instance exceeds the exact-search size cap."""


class RenderSizeError(LayoutError):
    """Requested drawing exceeds the renderer's size cap."""
