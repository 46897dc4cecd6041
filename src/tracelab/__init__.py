"""Numerical laboratory for Toeplitz trace asymptotics on weighted projective models."""

__version__ = "0.1.0"

from .asymptotics import (
    FitResult,
    GaussianIntegralResult,
    LocalPrediction,
    component_f_integral,
    fit_expansion,
    gaussian_normal_integral,
    local_prediction,
    predict_global_component,
    predict_local,
    psi2,
    stationary_point_check,
)
from .errors import (
    CacheError,
    CalibrationError,
    ChartError,
    CleanLocusError,
    ConfigError,
    CoverageError,
    DegenerateDirectionError,
    FitError,
    InputError,
    PeriodError,
    QuadratureError,
    TracelabError,
)
from .geometry import (
    FixedComponent,
    HeisenbergChart,
    ProjectiveModel,
    calibrate,
    contact_field,
    fixed_components,
    flow_differential_normal,
    flow_sphere,
    hamiltonian,
    heisenberg_chart,
    make_model,
    period_gap,
)
from .harness import ExperimentConfig, RunResult, parse_lambda_grid, run
from .reports import ScanReport
from .smoothing import (
    ParitySplit,
    TraceResult,
    negative_lambda_scan,
    offlocus_decay_scan,
    parity_scan,
    parity_split,
    scaled_diagonal_scan,
    smoothed_kernel_diagonal,
    smoothed_trace,
    spectral_tail_bound,
)
from .spectral import (
    EigenBlock,
    SpectralPackage,
    degree_block,
    eigendata,
    eigensection_values,
    monomial_norms,
    multi_indices,
    section_dimension,
    szego_diagonal,
    toeplitz_matrix,
)
from .windows import Window
