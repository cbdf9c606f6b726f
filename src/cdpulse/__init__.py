"""Counterdiabatic pulse design and verification for 3/4-level state transfer."""

from .basis import (
    AngleSchedule,
    BasisFamily,
    MovingBasis,
    build_four_level_basis,
    build_phased_basis,
    build_three_real_basis,
)
from .dynamics import (
    HamiltonianSpec,
    Rotation,
    Trajectory,
    bloch_coordinates,
    cavity_qed_hamiltonian,
    evolve,
    extract_theta_kappa,
    four_level_hamiltonian,
    hamiltonian_from_basis,
    lambda_hamiltonian,
    phased_hamiltonian,
)
from .metrics import (
    DriveMetrics,
    RatioSurface,
    drive_metrics,
    mode_comparison_ratio,
    ratio_surface,
)
from .protocols import (
    Branch,
    Design,
    Protocol,
    ProtocolRequest,
    PulseSet,
    TargetState,
    design,
    preset_targets,
    select_branch,
)
from .schedules import (
    CubicPolynomial,
    fit_cubic,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSchedule",
    "BasisFamily",
    "Branch",
    "CubicPolynomial",
    "Design",
    "DriveMetrics",
    "HamiltonianSpec",
    "MovingBasis",
    "Protocol",
    "ProtocolRequest",
    "PulseSet",
    "RatioSurface",
    "Rotation",
    "TargetState",
    "Trajectory",
    "bloch_coordinates",
    "build_four_level_basis",
    "build_phased_basis",
    "build_three_real_basis",
    "cavity_qed_hamiltonian",
    "design",
    "drive_metrics",
    "evolve",
    "extract_theta_kappa",
    "fit_cubic",
    "four_level_hamiltonian",
    "hamiltonian_from_basis",
    "lambda_hamiltonian",
    "mode_comparison_ratio",
    "phased_hamiltonian",
    "preset_targets",
    "ratio_surface",
    "select_branch",
]
