"""Calibration against measured speeds and derivative-free design search.

The single calibration knob is ``thrust_scale``, a multiplier on both
drag coefficients of both flagella. Model speed is monotone and bounded
in it, so the relative least-squares residual is unimodal and a
golden-section search over log(scale) finds the global fit.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .closed_form import RobotConfig, full_solve, solve_velocity
from .errors import BiflagError, DomainError, ParameterError
from .presets import amplitude_for_length, with_params
from .sweep import linear_grid

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: fitted scale is searched on this interval
SCALE_BOUNDS = (1e-3, 1e3)

DATASET_CSV_COLUMNS = ("L_m", "f1_hz", "f2_hz", "speed_m_s",
                       "speed_sd_m_s", "source")

DESIGN_PARAMS = ("f1", "f2", "L", "A", "lambda")


@dataclass(frozen=True)
class ExperimentalPoint:
    """One measured operating point of the robot."""

    L: float         # flagellum length [m]
    f1: float        # anterior beat frequency [Hz]
    f2: float        # posterior beat frequency [Hz]
    speed: float     # measured speed [m/s]
    speed_sd: float  # standard deviation of the speed [m/s]
    source: str      # label of the measurement series

    def __post_init__(self) -> None:
        for name in ("L", "f1", "f2", "speed", "speed_sd"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name}: must be finite, got {value!r}")
        if self.speed < 0:
            raise ParameterError("speed: must be >= 0")
        if self.speed_sd < 0:
            raise ParameterError("speed_sd: must be >= 0")


@dataclass(frozen=True)
class CalibrationResult:
    thrust_scale: float           # fitted multiplier
    residuals: tuple[float, ...]  # signed relative errors, one per point
    max_rel_error: float          # max |residual|


@dataclass(frozen=True)
class DesignBounds:
    """Closed search intervals per design parameter.

    ``constraint_sum`` fixes f1 + f2 to a constant; the posterior
    frequency is then slaved to the anterior one and must stay
    non-negative over the searched interval.
    """

    intervals: Mapping[str, tuple[float, float]]
    constraint_sum: float | None = None

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ParameterError("intervals: must not be empty")
        for name, (lo, hi) in self.intervals.items():
            if name not in DESIGN_PARAMS:
                raise ParameterError(
                    f"intervals: unknown design parameter {name!r}")
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ParameterError(
                    f"intervals: {name}: interval must be finite and ordered")
        if self.constraint_sum is not None and "f1" not in self.intervals:
            raise ParameterError(
                "constraint_sum: requires an f1 interval to search along")


def builtin_dataset() -> list[ExperimentalPoint]:
    """Measured speeds of the glycerine-tank robot.

    Three symmetric-frequency points for the 12 cm flagella, two length
    variants at 4.41 Hz, the two single-flagellum runs, and the
    dual-actuation point from the power-consumption study. The last one
    deliberately duplicates the 4.41 Hz operating condition of the
    frequency sweep at a different measured speed; both are retained
    under distinct source labels. The frequency-sweep top point is
    labelled 5.28 Hz in the measurement series even though one summary
    lists 5.18 Hz; the label records the discrepancy.
    """
    return [
        ExperimentalPoint(0.12, 2.05, 2.05, 0.0118, 0.0005,
                          "frequency-sweep@2.05Hz"),
        ExperimentalPoint(0.12, 4.41, 4.41, 0.0332, 0.0004,
                          "frequency-sweep@4.41Hz"),
        ExperimentalPoint(0.12, 5.28, 5.28, 0.0341, 0.0003,
                          "frequency-sweep@5.28Hz(also-listed-5.18Hz)"),
        ExperimentalPoint(0.10, 4.41, 4.41, 0.0235, 0.0005,
                          "length-study@L=0.10m"),
        ExperimentalPoint(0.065, 4.41, 4.41, 0.0094, 0.0003,
                          "length-study@L=0.065m"),
        ExperimentalPoint(0.12, 4.41, 0.0, 0.0164, 0.0002,
                          "single-flagellum@anterior-4.41Hz"),
        ExperimentalPoint(0.12, 0.0, 4.41, 0.0044, 0.0002,
                          "single-flagellum@posterior-4.41Hz"),
        ExperimentalPoint(0.12, 4.41, 4.41, 0.0309, 0.0006,
                          "dual-power-study@4.41Hz"),
    ]


def symmetric_points(points: Iterable[ExperimentalPoint]) -> list[ExperimentalPoint]:
    """Points with both flagella at the same frequency.

    Single-flagellum runs are excluded from fitting by default: the
    model treats pulling and pushing identically, so it cannot
    distinguish them. They remain available for reporting.
    """
    return [p for p in points if p.f1 == p.f2]


def point_config(base: RobotConfig, point: ExperimentalPoint,
                 coupling: Mapping[float, float] | None = None) -> RobotConfig:
    """Base configuration adjusted to one experimental operating point."""
    amplitude = (amplitude_for_length(point.L, dict(coupling))
                 if coupling is not None else base.anterior.A)
    return with_params(base, {"L": point.L, "A": amplitude,
                              "f1": point.f1, "f2": point.f2})


def model_speed(base: RobotConfig, point: ExperimentalPoint,
                coupling: Mapping[float, float] | None = None) -> float:
    return solve_velocity(point_config(base, point, coupling))


def _golden_min(fn: Callable[[float], float], lo: float, hi: float,
                tol: float) -> float:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def fit_thrust_scale(points: Sequence[ExperimentalPoint], base: RobotConfig,
                     coupling: Mapping[float, float] | None = None,
                     rel_tol: float = 1e-6) -> CalibrationResult:
    """Fit thrust_scale by relative least squares on measured speeds.

    Minimizes sum(((U_model - U_exp)/U_exp)^2) by golden-section search
    in log(scale) over [1e-3, 1e3] to relative tolerance ``rel_tol``,
    which must be finite and > 0; below a few ulps of the search bracket
    it acts as that floor. The fitted scale replaces whatever
    thrust_scale ``base`` carries. Raises DomainError when the model
    speed is 0 at every point at the fitted scale, where the scale has
    no effect on the fit.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ParameterError("rel_tol: must be finite and > 0")
    points = list(points)
    if not points:
        raise DomainError("fit requires at least one experimental point")
    for p in points:
        if p.speed <= 0:
            raise DomainError(
                f"point {p.source!r}: relative residual needs speed > 0")
    configs = [point_config(base, p, coupling) for p in points]

    def speeds_at(scale: float) -> list[float]:
        return [solve_velocity(replace(cfg, thrust_scale=scale))
                for cfg in configs]

    def residuals_of(speeds: list[float]) -> list[float]:
        return [(u - p.speed) / p.speed for u, p in zip(speeds, points)]

    def objective(log_scale: float) -> float:
        return sum(r * r for r in residuals_of(speeds_at(math.exp(log_scale))))

    lo, hi = math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])
    # a bracket narrower than a few ulps of its ends can shrink no further
    log_tol = max(math.log1p(rel_tol), 4.0 * math.ulp(max(-lo, hi)))
    log_best = _golden_min(objective, lo, hi, log_tol)
    scale = math.exp(log_best)
    speeds = speeds_at(scale)
    if not any(speeds):
        raise DomainError("model speed is 0 at every point at the fitted"
                          f" thrust_scale {scale!r}: the fit is undetermined")
    residuals = residuals_of(speeds)
    return CalibrationResult(thrust_scale=scale,
                             residuals=tuple(residuals),
                             max_rel_error=max(abs(r) for r in residuals))


@dataclass(frozen=True)
class OptimizeResult:
    params: dict[str, float]  # best point found, one entry per free axis
    value: float              # objective value there
    objective: str


def _objective_fn(cfg: RobotConfig, objective: str,
                  constraint_sum: float | None) -> Callable[[Mapping[str, float]], float]:
    def design(values: Mapping[str, float]) -> RobotConfig:
        if constraint_sum is not None:
            values = {**values, "f2": constraint_sum - values["f1"]}
        return with_params(cfg, values)

    if objective == "speed":
        def fn(values: Mapping[str, float]) -> float:
            return abs(solve_velocity(design(values)))
    elif objective == "efficiency":
        def fn(values: Mapping[str, float]) -> float:
            return full_solve(design(values)).eta
    else:
        raise ParameterError("objective: must be 'speed' or 'efficiency'")

    def guarded(values: Mapping[str, float]) -> float:
        try:
            return fn(values)
        except BiflagError as exc:
            raise type(exc)(
                f"objective undefined at {dict(values)!r}: {exc}") from exc
    return guarded


def optimize_design(cfg: RobotConfig, bounds: DesignBounds, objective: str,
                    coarse: int = 33) -> OptimizeResult:
    """Maximize speed or efficiency over the bounded design parameters.

    Strategy: exhaustive coarse grid (``coarse`` points per free axis,
    at least 17), then coordinate-wise pattern refinement with halving
    steps until every step is below 1e-4 of its axis span. The result
    is never worse than the best coarse-grid point.
    """
    try:
        coarse = max(17, int(coarse))
    except (ValueError, OverflowError):
        raise ParameterError(
            f"coarse: must be a finite number, got {coarse!r}") from None
    axes = [p for p in DESIGN_PARAMS if p in bounds.intervals]
    if bounds.constraint_sum is not None and "f2" in axes:
        axes.remove("f2")  # slaved to f1 through the constraint
    intervals = {}
    for name in axes:
        lo, hi = bounds.intervals[name]
        if bounds.constraint_sum is not None and name == "f1" and \
                "f2" in bounds.intervals:
            f2_lo, f2_hi = bounds.intervals["f2"]
            lo = max(lo, bounds.constraint_sum - f2_hi)
            hi = min(hi, bounds.constraint_sum - f2_lo)
            if lo > hi:
                raise ParameterError(
                    "constraint_sum: empty feasible f1 interval")
        intervals[name] = (lo, hi)
    fn = _objective_fn(cfg, objective, bounds.constraint_sum)

    if len(axes) >= 3:  # keep the cartesian coarse stage tractable
        coarse = 17
    grids = {name: linear_grid(lo, hi, coarse if hi > lo else 1)
             for name, (lo, hi) in intervals.items()}
    best_values, best = None, -math.inf
    for combo in itertools.product(*(grids[name] for name in axes)):
        values = dict(zip(axes, combo))
        v = fn(values)
        if v > best:
            best_values, best = values, v

    spans = {name: intervals[name][1] - intervals[name][0] for name in axes}
    steps = {name: (spans[name] / (coarse - 1) if spans[name] > 0 else 0.0)
             for name in axes}
    current = dict(best_values)
    while any(steps[name] > 1e-4 * spans[name] for name in axes
              if spans[name] > 0):
        moved = False
        for name in axes:
            if steps[name] == 0.0:
                continue
            lo, hi = intervals[name]
            for cand in (current[name] - steps[name],
                         current[name] + steps[name]):
                cand = min(max(cand, lo), hi)
                if cand == current[name]:
                    continue
                trial = dict(current)
                trial[name] = cand
                v = fn(trial)
                if v > best:
                    current, best = trial, v
                    moved = True
        if not moved:
            steps = {name: step / 2.0 for name, step in steps.items()}
    return OptimizeResult(params=current, value=best, objective=objective)


def save_dataset_csv(points: Iterable[ExperimentalPoint], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DATASET_CSV_COLUMNS)
        for p in points:
            writer.writerow([repr(p.L), repr(p.f1), repr(p.f2),
                             repr(p.speed), repr(p.speed_sd), p.source])


def load_dataset_csv(path) -> list[ExperimentalPoint]:
    """Points of a dataset CSV file written by save_dataset_csv.

    Raises DomainError naming the line and column of any numeric field
    that is not a finite number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DATASET_CSV_COLUMNS:
            raise DomainError(
                f"dataset CSV must start with header {','.join(DATASET_CSV_COLUMNS)}")
        points = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(DATASET_CSV_COLUMNS):
                raise DomainError(f"dataset CSV row has {len(row)} fields: {row!r}")
            numbers = [_finite_field(reader.line_num, column, text)
                       for column, text in zip(DATASET_CSV_COLUMNS, row[:5])]
            points.append(ExperimentalPoint(*numbers, source=row[5]))
    return points


def _finite_field(line: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"dataset CSV line {line}, column {column}: must be"
                          f" a finite number, got {text!r}")
    return value
