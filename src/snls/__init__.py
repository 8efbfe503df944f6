"""Pseudospectral simulation of the 1-D stochastic cubic Schrödinger
equation on the torus with low-regularity symplectic stochastic
Runge-Kutta schemes."""

from .config import ConfigError, RunConfig, initial_field, parse_config
from .diagnostics import energy_h0, mass, sobolev_norm, symplectic_defect
from .experiments import (
    ErrorTable,
    ExperimentInvalidError,
    cmd_conservation,
    cmd_kernel_error,
    cmd_local_error,
    cmd_symplectic,
    reference_solution,
)
from .integrator import (
    TABLEAUX,
    FixedPointConfig,
    FixedPointResult,
    RunRecord,
    StepOutcome,
    StepRejectedError,
    Tableau,
    TableauViolation,
    explicit_tableau,
    fixed_point_solve,
    midpoint_tableau,
    simulate,
    step,
    step_bound,
    step_with_increment,
    validate_tableau,
)
from .kernels import (
    KernelSpec,
    ModeQuad,
    default_kernel_spec,
    kernel_K2d,
    kernel_exact,
    kernel_weight,
    phi1,
    weighted_exp_integral,
)
from .maps import ModelParams, map_F, map_F_midpoint_physical, map_P_frozen, orthogonality_defect
from .noise import (
    BrownianPath,
    CovarianceOp,
    NoiseIncrement,
    coarsen,
    default_phi,
    increment,
    refine,
    sample_path,
    stack_paths,
    strat_integral,
    strat_pair_integrals,
    symmetrized_midpoint_double,
    write_manifest,
)
from .torus import (
    SpectralField,
    TorusGrid,
    cubic_convolution,
    free_propagator,
    from_physical,
    make_grid,
    read_snapshot,
    to_physical,
    write_snapshot,
    zero_field,
)

__version__ = "0.1.0"
