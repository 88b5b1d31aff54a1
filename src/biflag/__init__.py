"""Resistive-force-theory model of a biflagellated low-Reynolds swimmer.

The package provides a closed-form solver for swimming speed, power,
efficiency, and cost of transport; an independent numerical evaluator of
the same segment drag model used to validate it; calibration of the
thrust-scale parameter against measured speeds; parameter sweeps and
frequency heatmaps; and a CLI with CSV/JSON/SVG output.
"""

from .calibrate import (
    CalibrationResult,
    DesignBounds,
    ExperimentalPoint,
    OptimizeResult,
    builtin_dataset,
    fit_thrust_scale,
    load_dataset_csv,
    model_speed,
    optimize_design,
    point_config,
    save_dataset_csv,
    symmetric_points,
)
from .closed_form import (
    GRAVITY,
    PowerBreakdown,
    RobotConfig,
    SolveResult,
    body_drag,
    cost_of_transport,
    efficiency,
    flagellum_thrust,
    full_solve,
    powers,
    solve_velocity,
    solve_velocity_unreduced,
)
from .config_io import (
    config_from_dict,
    config_to_dict,
    config_to_yaml,
    load_config,
)
from .core import (
    ANTERIOR,
    POSTERIOR,
    BodyGeometry,
    CompositeDrag,
    DerivedShape,
    FlagellumSpec,
    FluidMedium,
    brennen_winet,
    composite_coeffs,
    reynolds_number,
)
from .errors import (
    AsymmetryError,
    BiflagError,
    BracketError,
    ConfigError,
    DomainError,
    InconsistencyError,
    NumericalError,
    ParameterError,
    SlenderBodyError,
)
from .oracle import (
    OracleSettings,
    OracleSolution,
    average_thrust,
    oracle_full_solve,
    oracle_power,
    oracle_residual,
    oracle_solve,
)
from .presets import (
    AMPLITUDE_BY_LENGTH,
    amplitude_for_length,
    default_config,
    smooth_config,
    with_params,
)
from .svgplot import emit_plot
from .sweep import (
    HeatmapResult,
    SweepSpec,
    Table,
    heatmap,
    linear_grid,
    sweep,
)

__version__ = "0.1.0"
