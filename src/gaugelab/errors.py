"""Exception types raised by the gaugelab modules."""


class GaugelabError(Exception):
    """Base class for all gaugelab errors."""


class BoundaryLeak(GaugelabError):
    """Wavefunction tail at the grid edge exceeds the leak threshold; enlarge L."""


class NotConverged(GaugelabError):
    """Doubling the grid shifts retained eigenvalues beyond tolerance."""


class CalibrationFailed(GaugelabError):
    """Potential-shape root finder exhausted its iteration budget."""


class UnsupportedKind(GaugelabError):
    """Unknown model kind requested."""


class ClosedFormNeedsTwoLevels(GaugelabError):
    """The closed-form difference operator is defined only for M = 1."""


class SolverFailure(GaugelabError):
    """Eigensolver output violated its residual or orthonormality contract."""


class NotNormalized(GaugelabError):
    """State vector is not normalized to within tolerance."""


class MissingContext(GaugelabError):
    """Frame context lacks an operator required by the requested representation."""


class SpaceMismatch(GaugelabError):
    """An operand's shape does not fit the space or basis it is used with."""


class CutoffCeiling(GaugelabError):
    """Convergence escalation exhausted its cutoff budget."""


class DegenerateGapAmbiguity(GaugelabError):
    """Two transition-gap clusters are too close to separate at this tolerance."""


class ConfigError(GaugelabError):
    """Experiment configuration failed validation."""
