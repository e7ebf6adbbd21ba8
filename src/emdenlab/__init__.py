"""Numerical laboratory for the weighted radial source equation

    div(|x|^a grad u) + |x|^b u^p = 0  on R^N,  u > 0,

re-enacting its existence dichotomy: shots that cross zero below the
critical power, the explicit bubble at criticality, convergence to the
singular power profile above it, plus the integral identities and the
weighted Rayleigh quotient that certify each side.
"""

__version__ = "0.1.0"

from .ckn import (
    ADMISSIBLE,
    BALANCE_VIOLATED,
    BAND_VIOLATED,
    BalanceReport,
    CknTriple,
    EnergyReport,
    best_constant,
    bubble_energy_closed_form,
    check_balance,
    energy,
)
from .closed_forms import (
    BubbleProfile,
    SingularProfile,
    bubble,
    bubble_amplitude,
    bubble_eval,
    bubble_second_derivative,
    normalized_bubble,
    residual,
    singular_eval,
    singular_solution,
)
from .emden_fowler import (
    CylinderTrajectory,
    FixedPointReport,
    cylinder_rhs,
    fixed_points,
    hamiltonian,
    to_cylinder,
)
from .errors import (
    BalanceViolated,
    BracketInvalid,
    DegenerateWeight,
    DerivativeUndefinedAtOrigin,
    DimensionTooSmall,
    EmdenLabError,
    InadmissibleWeights,
    NonFiniteParameter,
    NonIntegerDimension,
    NonintegrableProfile,
    NonMonotoneThreshold,
    NonpositiveNode,
    NonpositiveRadius,
    NonpositiveSolution,
    NotCritical,
    NotInRange,
    NotInSerrinSupercriticalRange,
    QuadratureMismatch,
    RangeExceeded,
    SymmetryBreakingRegion,
)
from .params import (
    CRITICAL,
    CRITICAL_REL_TOL,
    BALANCE_REL_TOL,
    INADMISSIBLE_WEIGHTS,
    NO_POSITIVE_SOLUTION_SERRIN,
    NOT_APPLICABLE,
    RADIAL_MINIMIZER,
    SUBCRITICAL_LIOUVILLE,
    SUPERCRITICAL,
    SYMMETRY_BREAKING,
    DerivedExponents,
    ProblemParams,
    Regime,
    balance_residual,
    beta_fs,
    classify,
    derive,
    fs_region,
    validate,
)
from .pohozaev import (
    PohozaevReport,
    ball_nonexistence_coeff,
    sphere_area,
    weighted_node_integral,
)
from .pohozaev import evaluate as ball_identity
from .shooting import (
    ConvergedToSingular,
    CrossedZero,
    Inconclusive,
    PositiveGlobal,
    RadialTrajectory,
    ShootConfig,
    classify_trajectory,
    series_start,
    series_truncation_estimate,
    shoot,
    sweep_shoot,
    threshold_bisect,
    trajectory_from_csv,
    trajectory_to_csv,
)
