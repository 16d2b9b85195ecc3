"""Geometric phases of conserved-operator eigenframes.

The package builds cyclic frames from the eigenvectors of a conserved
operator, transports them around one period, and extracts total, dynamic
and geometric phases, including the non-Abelian holonomy of degenerate
levels. The numerical kernels work on stacks of small matrices: closed
forms for 2 x 2 and smaller matrices, numpy's LAPACK bindings for larger
ones.
"""

from .errors import (
    BranchCutError,
    ConfigError,
    DegeneracySplitError,
    DegenerateMixingError,
    GeomPhaseError,
    GridTooCoarseError,
    HermiticityError,
    NonCyclicError,
    RankDeficiencyError,
    SkewHermiticityError,
    TrackingAmbiguityError,
    UnitarityError,
)
from .linalg import (
    circular_distance,
    group_degenerate,
    matrix_log_unitary,
    mod_2pi,
    polar_unitary,
    unitary_eigenphases,
    unitary_exp,
)
from .models import (
    ActionRingBlock,
    OperatorFamily,
    RotatingRingBlock,
    SpinHalf,
    StaticRingBlock,
    assemble_blocks,
    constant_family,
    coupling_matrix,
    rotating_family,
    trig_family,
)
from .evolution import (
    PhaseReport,
    Trajectory,
    aa_phase,
    cyclic_defect,
    evolve,
)
from .invariants import (
    decompose_state,
    eigenvalue_drift,
    invariance_residual,
    transport_error,
)
from .holonomy import (
    EigenframeSource,
    FramePath,
    berry_phase,
    connection_samples,
    gauge_transform,
    holonomy_report,
    phase_matrix,
    random_phase_gauge,
    random_unitary_gauge,
    sample_frames,
    wilson_loop,
)
from .action import torus_path, torus_phase
from .ringstate import RingState, assembled_evolve, blockwise_evolve
from .experiments import EXPERIMENTS

__version__ = "0.1.0"

__all__ = [
    "GeomPhaseError",
    "HermiticityError",
    "SkewHermiticityError",
    "UnitarityError",
    "BranchCutError",
    "RankDeficiencyError",
    "GridTooCoarseError",
    "DegeneracySplitError",
    "TrackingAmbiguityError",
    "DegenerateMixingError",
    "NonCyclicError",
    "ConfigError",
    "mod_2pi",
    "circular_distance",
    "group_degenerate",
    "unitary_exp",
    "unitary_eigenphases",
    "matrix_log_unitary",
    "polar_unitary",
    "OperatorFamily",
    "trig_family",
    "constant_family",
    "rotating_family",
    "SpinHalf",
    "coupling_matrix",
    "StaticRingBlock",
    "RotatingRingBlock",
    "ActionRingBlock",
    "assemble_blocks",
    "Trajectory",
    "PhaseReport",
    "evolve",
    "cyclic_defect",
    "aa_phase",
    "invariance_residual",
    "eigenvalue_drift",
    "transport_error",
    "decompose_state",
    "FramePath",
    "EigenframeSource",
    "sample_frames",
    "connection_samples",
    "phase_matrix",
    "wilson_loop",
    "berry_phase",
    "gauge_transform",
    "random_phase_gauge",
    "random_unitary_gauge",
    "holonomy_report",
    "torus_path",
    "torus_phase",
    "RingState",
    "blockwise_evolve",
    "assembled_evolve",
    "EXPERIMENTS",
]
