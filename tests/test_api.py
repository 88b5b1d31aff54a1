"""The package's public names, pinned: a new name must replace an old
one deliberately, not appear beside it."""

import types

import biflag
from biflag import closed_form


def test_public_names_of_biflag():
    names = sorted(name for name, value in vars(biflag).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == [
        "AMPLITUDE_BY_LENGTH", "ANTERIOR", "AsymmetryError", "BiflagError",
        "BodyGeometry", "BracketError", "CalibrationResult", "CompositeDrag",
        "ConfigError", "DesignBounds", "DomainError", "ExperimentalPoint",
        "FlagellumAverages", "FlagellumSpec", "FluidMedium", "GRAVITY",
        "HeatmapResult", "InconsistencyError", "NumericalError",
        "OptimizeResult", "OracleSettings", "POSTERIOR", "ParameterError",
        "RobotConfig", "SlenderBodyError", "SolveResult", "SweepSpec",
        "Table", "amplitude_for_length", "brennen_winet", "builtin_dataset",
        "composite_coeffs", "config_from_dict", "config_to_dict",
        "config_to_yaml", "default_config", "emit_plot", "fit_thrust_scale",
        "flagellum_averages", "full_solve", "heatmap", "linear_grid",
        "load_config", "load_dataset_csv", "model_speed", "optimize_design",
        "oracle_full_solve", "point_config", "save_dataset_csv",
        "smooth_config", "solve_velocity", "sweep", "symmetric_points",
        "with_params",
    ]


def test_public_surface_of_closed_form():
    defined = sorted(name for name, value in vars(closed_form).items()
                     if not name.startswith("_")
                     and getattr(value, "__module__", None)
                     == closed_form.__name__)
    assert defined == ["RobotConfig", "SolveResult", "assemble_result",
                       "full_solve", "solve_velocity"]
    assert closed_form.GRAVITY == 9.81
