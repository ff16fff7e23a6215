"""Exception hierarchy shared by all pviso modules.

Two broad families: bad inputs (``PvisoValueError``) and numerical
failures detected at run time (``PvisoNumericalError``).  The CLI maps
them to distinct exit codes.
"""


class PvisoError(Exception):
    """Base class for every error raised by this package."""


class PvisoValueError(PvisoError, ValueError):
    """Invalid argument or parameter combination."""


class PvisoNumericalError(PvisoError, RuntimeError):
    """A computation failed or left its guaranteed accuracy regime."""


class GammaPoleError(PvisoValueError):
    """Gamma/digamma evaluated too close to a non-positive integer."""


class SingularMatrixError(PvisoValueError):
    """2x2 inverse requested for a numerically singular matrix."""


class ZeroConstantError(PvisoValueError):
    """c0 or cx vanishes where the generic family requires it nonzero."""


class DegenerateParameterError(PvisoValueError):
    """A zero/pole lattice asked for where its leading asymptotics degenerate
    (the theta conditions of ``transcendents.zero_pole_seeds``)."""


class DomainError(PvisoValueError):
    """Evaluation point lies outside the admissible sector-like domain."""


class OriginError(PvisoValueError):
    """The flow vector field is singular at x = 0."""


class PathError(PvisoValueError):
    """Integration path passes too close to a singular point."""


class RadiusError(PvisoValueError):
    """Normalization radius too small for the given state."""


class OddStepsError(PvisoValueError):
    """Braid shift requested for an odd number of steps."""


class ResonanceError(PvisoValueError):
    """Parameter resonance: a closed-form factor is genuinely singular."""


class StepUnderflowError(PvisoNumericalError):
    """Adaptive integrator drove the step size below its floor."""


class InvariantDriftError(PvisoNumericalError):
    """A conserved quantity drifted beyond the allowed tolerance."""


class ConsistencyError(PvisoNumericalError):
    """Internal cross-check between two constructions failed."""


class ConvergenceError(PvisoNumericalError):
    """Iteration (Newton refinement) failed to converge."""


class StencilError(PvisoNumericalError):
    """A finite-difference stencil hit a pole or invalid sample."""
