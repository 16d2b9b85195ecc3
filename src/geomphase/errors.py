"""Exception types shared across the package.

Every numerical guard raises one of these so callers can tell a misuse
(bad input) from a genuine numerical obstruction (branch cut, rank loss,
level crossing) without string-matching messages.
"""


class GeomPhaseError(ValueError):
    """Base class for all package-specific errors."""


class HermiticityError(GeomPhaseError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class SkewHermiticityError(GeomPhaseError):
    """Input expected to be skew-Hermitian is not, beyond tolerance."""


class UnitarityError(GeomPhaseError):
    """Input expected to be unitary is not, beyond tolerance."""


class BranchCutError(GeomPhaseError):
    """A unitary log has an eigenvalue too close to the -1 branch point."""


class RankDeficiencyError(GeomPhaseError):
    """Polar decomposition requested for a (near-)singular matrix."""


class GridTooCoarseError(GeomPhaseError):
    """Consecutive samples are too far apart for a trustworthy interval log."""


class DegeneracySplitError(GeomPhaseError):
    """A degenerate eigenvalue group changes rank along the sampled path."""


class TrackingAmbiguityError(GeomPhaseError):
    """Eigenvalue crossing makes level tracking along the path ambiguous."""


class DegenerateMixingError(GeomPhaseError):
    """Model parameters land on the point where the mixing angle is undefined."""


class NonCyclicError(GeomPhaseError):
    """Evolution failed the cyclicity check needed for a phase decomposition."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


class ConfigError(GeomPhaseError):
    """Malformed experiment configuration."""
