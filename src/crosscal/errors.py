"""Exception hierarchy for the calibration toolkit.

Every failure mode raised by the pipelines maps to one of these classes so
callers (and the CLI) can react to specific stages without string matching.
"""


class CrosscalError(Exception):
    """Base class for all toolkit errors."""


# --- geometry ---------------------------------------------------------------

class NonPositiveDepth(CrosscalError):
    """Point is on or behind the camera plane (Z <= 1e-9)."""


# --- lidar pipeline ---------------------------------------------------------

class LidarStageError(CrosscalError):
    """Base for Algorithm-stage failures; carries the stage name."""

    stage = "unknown"


class EmptyAfterFilter(LidarStageError):
    stage = "filter"


class EmptyMatch(LidarStageError):
    stage = "match"


class DegenerateInput(LidarStageError):
    stage = "ransac"


class LowInlierRatio(LidarStageError):
    stage = "ransac"


class PoorFit(LidarStageError):
    """The plane's outline is larger than the board: the plane holds more."""

    stage = "outline"


class GridTooSmall(LidarStageError):
    stage = "window"


class NoVoidFound(LidarStageError):
    stage = "circles"


class InconsistentCircles(LidarStageError):
    """Refined centers do not form the target's design pattern."""

    stage = "circles"


# --- camera pipeline --------------------------------------------------------

class InsufficientCorners(CrosscalError):
    """Fewer than 4 usable corner observations."""


class DegenerateConfiguration(CrosscalError):
    """Board points of the observed corners are collinear."""


class BehindCamera(CrosscalError):
    """No pose candidate places all used corners at positive depth."""


# --- detect -----------------------------------------------------------------

class NoDetections(CrosscalError):
    """No detection of a dataset succeeded."""


# --- optimizer --------------------------------------------------------------

class DisconnectedGraph(CrosscalError):
    """Co-visibility graph is not connected; components attached."""

    def __init__(self, components):
        self.components = components
        super().__init__(f"co-visibility graph has {len(components)} components: {components}")


class NoReferenceObservations(CrosscalError):
    """Reference sensor never detected the target."""


class DegenerateCenters(CrosscalError):
    """A detection's 4 circle centers are collinear."""


class SingularNormalEquations(CrosscalError):
    """Normal equations rank deficient; lists suspect sensors."""

    def __init__(self, suspects):
        self.suspects = suspects
        super().__init__(f"singular normal equations; suspect sensors: {suspects}")


class SolverNotConverged(CrosscalError):
    """Global solve ended unconverged, at the iteration cap or stalled with
    a gradient cosine of at least lm.STALL_COSINE; diagnostics attached."""

    def __init__(self, diagnostics):
        self.diagnostics = d = diagnostics
        super().__init__(
            f"final cost {d.final_cost:.6g}, gradient norm {d.gradient_norm:.6g}, "
            f"gradient cosine {d.gradient_cosine:.3g}, {d.iterations} iterations"
        )


class UnknownSensor(CrosscalError):
    """A sensor absent from the config, or a consistency chain that
    references a sensor absent from the result."""


# --- simulator --------------------------------------------------------------

class InfeasibleLayout(CrosscalError):
    """Scene constraints cannot be met (e.g. board invisible everywhere)."""


# --- io ---------------------------------------------------------------------

class ParseError(CrosscalError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.reason, self.line = message, line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnsupportedFormat(CrosscalError):
    """File extension / magic not recognized."""


class SchemaVersionMismatch(CrosscalError):
    """Detection/report file declares an unsupported schema version."""


class MissingField(CrosscalError):
    """Required field absent from a record."""


class IoError(CrosscalError):
    """Filesystem-level failure while reading inputs or writing outputs."""
