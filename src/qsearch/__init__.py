"""Desk-scale simulations of search by rank-one Hamiltonian evolution and
its digital counterpart, plus the driver-independent time lower bound and
random-overlap statistics that frame both."""

from .analog import (
    TwoLevelSystem,
    absorb_phase,
    assemble_search_hamiltonian,
    full_space_probability,
    measurement_time,
    reduced_basis,
    success_probability,
    two_level_eigenvalues,
    two_level_hamiltonian,
)
from .bound import (
    BoundReport,
    DriverSchedule,
    TrajectorySet,
    discrimination_time,
    divergence_profile,
    evolve_trajectories,
    sum_oracle_hamiltonians,
)
from .errors import QSearchError
from .grover import (
    GroverInstance,
    GroverRun,
    apply_uf,
    apply_us,
    optimal_iterations,
    reduced_probability,
    rotation_angle,
    run_grover,
)
from .linalg import (
    HermitianOperator,
    RankOneHamiltonian,
    StateVector,
    eigendecompose,
    expm_apply,
    inner_product,
)
from .statistics import OverlapSample, overlap_statistics, random_state

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DriverSchedule",
    "GroverInstance",
    "GroverRun",
    "HermitianOperator",
    "OverlapSample",
    "QSearchError",
    "RankOneHamiltonian",
    "StateVector",
    "TrajectorySet",
    "TwoLevelSystem",
    "absorb_phase",
    "apply_uf",
    "apply_us",
    "assemble_search_hamiltonian",
    "discrimination_time",
    "divergence_profile",
    "eigendecompose",
    "evolve_trajectories",
    "expm_apply",
    "full_space_probability",
    "inner_product",
    "measurement_time",
    "optimal_iterations",
    "overlap_statistics",
    "random_state",
    "reduced_basis",
    "reduced_probability",
    "rotation_angle",
    "run_grover",
    "success_probability",
    "sum_oracle_hamiltonians",
    "two_level_eigenvalues",
    "two_level_hamiltonian",
]
