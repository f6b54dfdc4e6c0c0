"""Exception hierarchy shared by all flexasm modules.

Every error raised by the library derives from :class:`FlexasmError`, so
callers (and the CLI) can distinguish modeling failures from programming
errors.  The classes are deliberately thin; any diagnostic detail goes in
the message.  The one exception is :class:`IkNotConverged`, which also
carries the task error its solver stopped at, because callers compare it.
"""


class FlexasmError(Exception):
    """Base class for all library errors."""


# --- state-space algebra -------------------------------------------------

class WidthMismatch(FlexasmError):
    """Wired or transformed channels have incompatible widths."""


class UnknownChannel(FlexasmError):
    """A channel name does not exist on the referenced system."""


class IllPosedLoop(FlexasmError):
    """The static loop matrix I - D_loop is singular beyond tolerance."""


class SingularDBlock(FlexasmError):
    """Channel inversion requested through a singular feedthrough block."""


class NonSquareSelection(FlexasmError):
    """Channel inversion requested with unequal input/output widths."""


class UnstableSystem(FlexasmError):
    """A system norm was requested for an unstable model."""


class NonzeroFeedthrough(FlexasmError):
    """H2 norm requested for a system with direct feedthrough."""


# --- multibody / modal data ----------------------------------------------

class InvalidModalData(FlexasmError):
    """Modal body data violates a hard invariant."""


class InvalidMode(FlexasmError):
    """Referenced flexible mode index does not exist."""


class UnknownPort(FlexasmError):
    """Rigid body port name has no declared offset."""


class SingularInertia(FlexasmError):
    """Rigid body mass matrix is not invertible."""


class AlphaOutOfRange(FlexasmError):
    """Rotation angle is not finite or exceeds 2*pi in magnitude."""


class LayoutError(FlexasmError):
    """Tile layout violates uniqueness or growth-adjacency rules."""


class DisconnectedLayout(FlexasmError):
    """Tile layout's first cell does not touch the clamp, so its lattice
    would not tie the structure to the spacecraft."""


class EigenFailure(FlexasmError):
    """Modal eigensolve failed or was requested beyond the dof count."""


class ParseError(FlexasmError):
    """A body or scenario file could not be parsed at all."""


class SchemaError(FlexasmError):
    """A body or scenario file parsed but violates the schema."""


class UnitError(FlexasmError):
    """A quantity is missing its unit suffix or uses the wrong unit."""


# --- robot ----------------------------------------------------------------

class JointOutOfRange(FlexasmError):
    """Joint angle outside the +-2*pi envelope."""


class IkNotConverged(FlexasmError):
    """Inverse kinematics did not reach the task tolerance.

    ``task_error`` is the smallest task error the solver reached, NaN when
    no solver ran.
    """

    def __init__(self, message: str, task_error: float = float("nan")):
        super().__init__(message)
        self.task_error = task_error


class IkUnreachable(IkNotConverged):
    """The target lies beyond a closed-form bound on the chain's reach, so
    no joint angles reach it: a property of the geometry, not of seeds."""


# --- scenario / path optimization ------------------------------------------

class StateInvalid(FlexasmError):
    """Assembly state violates its invariants."""


class MissingStructureData(FlexasmError):
    """No modal data available for the requested structure size/port."""


class NominalUnstable(FlexasmError):
    """Robustness analysis requires a stable nominal closure."""


class Unreachable(FlexasmError):
    """No path exists between the requested graph nodes."""


class CostNotPlanned(FlexasmError):
    """A plan asked for a cost kind its planner was not built to price."""
