"""Equilibrium solver for two-company electric fleet allocation contests.

Two ride-hailing companies split fixed fleets across regions. Each
region pays out a contest share of its market volume, softened by an
abandonment offset, and charges a linear per-vehicle energy cost. The
package computes the game's unique Nash equilibrium in closed form,
certifies boundary cases, and ships independent verification oracles,
experiment sweeps, and a CLI.
"""

from .boundary import (
    FAMILIES,
    BoundaryCandidate,
    boundary_candidate,
    certify,
    enumerate_candidates,
    family_strategy,
    pinned_best_response,
)
from .config import emit_csv, format_config, parse_config
from .errors import (
    DomainError,
    FleetContestError,
    GridSizeError,
    InconsistencyError,
    NumericalError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .experiments import (
    SweepRecord,
    alpha_sweep,
    detect_alpha_crit,
    detect_optimal_fleet,
    fleet_sweep,
    four_region_spec,
    reference_rows,
    solve_batch,
    solve_spec,
    solve_two_region,
    two_region_spec,
)
from .game import (
    PLAYERS,
    Allocation,
    DualCertificate,
    GameSpec,
    JointStrategy,
    RegionParams,
    is_feasible,
    joint_from_arrays,
    market_share,
    opponent,
    profit_loss,
    raw_utility,
    raw_utility_gradient,
    region_from_raw,
    utility,
    utility_gradient,
)
from .interior import (
    InteriorOutcome,
    NotInterior,
    interior_equilibrium,
    mass_balance,
    mass_balance_derivative,
)
from .result import EquilibriumResult, InteriorSolveTrace
from .verify import (
    ConcavityCertificate,
    GridOracleResult,
    concavity_certificate,
    duals_from_gradients,
    grid_equilibrium,
    iterated_best_response,
    kkt_residual,
    ne_residual,
)

#: The grid kernel's implementation (_kernels, plain numpy), which benchmark
#: run records report.
KERNEL_BACKEND = "python"
__version__ = "0.1.0"
