"""curlforce: a numerical laboratory for planar motion under curl forces."""

__version__ = "0.1.0"

from .core import (
    DomainError,
    EFSeries,
    PolarState,
    Trajectory,
    drift_metric,
    polar_states,
    real_power,
    resample,
)
from .integrate import Event, IntegrationError, IntegratorSettings, integrate
from .systems import (
    AngleFunction,
    ErmakovField,
    ForceField,
    GorringeLeachField,
    IsotropicDragField,
    IsotropicField,
    curl,
    curl_fd,
    drag_ef_rhs,
    ef_rhs,
    geodesic_rhs,
    mu_minus3_rhs,
    orbit_polar_rhs,
    polar_rhs,
    psi_reduced_rhs,
    raw_ef_rhs,
    third_order_residual,
    third_order_rhs,
)
from .invariants import (
    GeneratorSpec,
    NonNoetherianWarning,
    PowerLagrangian,
    abel_invariant_check,
    ef_integral_m5,
    ef_integral_m7,
    angular_momentum,
    lrr_invariant,
    mu3_invariant,
    noether_integral,
    noether_residual,
    prop31_integral,
)
from .analysis import (
    AbelReport,
    ChainQuadrature,
    DragMapReport,
    NonRealLambda,
    NoRoot,
    ParticularSolution,
    QuadratureError,
    QuadratureResult,
    ResidualStats,
    abel_reduction_residual,
    drag_map_residual,
    drag_exponents,
    ef_residual,
    j_of_r,
    lambda_coeff,
    m_from_mu,
    orbit_theta_of_r,
    particular_solution,
    power_solution_y0,
    quad_adaptive,
    reparametrize_by_angle,
    scaling_map_residual,
    seed_polar_from_particular,
    time_of_r,
    torque_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
