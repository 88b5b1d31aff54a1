"""Parameter sweeps and frequency heatmaps over either solver backend.

Grids are uniform and inclusive of both endpoints. Rows are assembled
in axis order, so identical inputs always produce bit-identical tables.

SOLVERS is the one map from backend name to solver. The oracle, and
the closed form on a geometry axis, solve every point from a fresh
config. A closed-form grid over frequencies (axes f_sym, f1 and f2, and
every heatmap) builds no flagellum spec: frequency enters no geometry
check, so it checks each frequency once, computes the drag pair once
and each point from its two wave speeds. Each point still gives exactly
what full_solve gives on a fresh config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .closed_form import (
    RobotConfig,
    SolveResult,
    _body,
    _kernel,
    _point,
    _range_error,
    full_solve,
)
from .core import (
    _check_frequency,
    _check_integer,
    _check_numbers,
    _finite,
    _pair,
)
from .errors import BiflagError, NumericalError, ParameterError
from .oracle import OracleSettings, oracle_full_solve
from .presets import amplitude_for_length, with_params

AXIS_COLUMNS = {
    "f_sym": "f_hz",
    "f1": "f1_hz",
    "f2": "f2_hz",
    "L": "L_m",
    "lambda": "lambda_m",
    "A": "A_m",
}

OUTPUT_COLUMNS = {
    "U_X": "U_m_s",
    "P1": "P1_W",
    "P2": "P2_W",
    "P0": "P0_W",
    "eta": "eta",
    "CoT": "CoT",
    "Re": "Re",
}

#: solver(cfg, settings) of each backend; each looks its function up by
#: name when called, so a wrapper bound over that name sees every call
SOLVERS = {
    "closed_form": lambda cfg, settings: full_solve(cfg),
    "oracle": lambda cfg, settings: oracle_full_solve(cfg, settings),
}

BACKENDS = tuple(SOLVERS)


def linear_grid(start: float, stop: float, count: int) -> list[float]:
    """Uniform inclusive grid; endpoints are exact.

    Raises ParameterError for an endpoint that is not a number,
    NumericalError for an int endpoint beyond double range, and where
    both endpoints are finite but the span stop - start overflows.
    """
    _check_integer("count", count, 1)
    for name, value in (("start", start), ("stop", stop)):
        _check_numbers((f"grid {name}", value))
        if isinstance(value, int) and not _finite(value):
            raise NumericalError(f"grid {name}: an integer beyond"
                                 " double-precision range")
    if count == 1:
        return [start]
    span = stop - start
    if abs(span) == math.inf and math.isfinite(start) and math.isfinite(stop):
        raise NumericalError(f"grid span from {start!r} to {stop!r} overflows:"
                             " the inputs lie beyond double-precision range")
    return [start + span * (i / (count - 1)) for i in range(count)]


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description."""

    axis: str
    start: float
    stop: float
    count: int
    backend: str = "closed_form"
    coupling: Mapping[float, float] | None = None  # L -> A, axis "L" only

    def __post_init__(self) -> None:
        if self.axis not in AXIS_COLUMNS:
            raise ParameterError(
                f"axis: must be one of {sorted(AXIS_COLUMNS)}")
        # two strings order against each other, so each is checked first
        _check_numbers(("start", self.start), ("stop", self.stop))
        if self.start > self.stop:
            raise ParameterError("start: must be <= stop")
        _check_integer("count", self.count, 1)
        if self.backend not in SOLVERS:
            raise ParameterError(f"backend: must be one of {BACKENDS}")
        if self.coupling is not None and self.axis != "L":
            raise ParameterError("coupling: only valid with axis 'L'")


@dataclass
class Table:
    """Rectangular numeric result table."""

    columns: list[str]
    rows: list[list[float]]


@dataclass
class HeatmapResult:
    """Row-major grid: values[i][j] is the output at (f1[i], f2[j])."""

    f1: list[float]
    f2: list[float]
    output: str
    values: list[list[float]]


def _frequency_solver(cfg: RobotConfig, f1_values: list[float],
                      f2_values: list[float]
                      ) -> Callable[[int, int], SolveResult]:
    """solve(i, j) of ``cfg`` at (f1_values[i], f2_values[j]); the grid
    is closed-form only, as the oracle solves every point afresh.

    Equal to full_solve(with_params(cfg, {"f1": ..., "f2": ...})), and
    raises what that raises, in the same order: each frequency is
    checked on first use, the anterior first, as building its flagellum
    spec would check it. It builds no spec: it keeps the wave speed
    lambda*f of each frequency and computes the drag pair and every
    other constant that no frequency changes at the first point.
    """
    lam1, lam2 = cfg.anterior.lam, cfg.posterior.lam
    waves1: dict[int, float] = {}
    waves2: dict[int, float] = {}
    kernel = body = None

    def closed_form(i: int, j: int) -> SolveResult:
        nonlocal kernel, body
        try:
            if i not in waves1:
                _check_frequency(f1_values[i])
                waves1[i] = lam1 * f1_values[i]
            if j not in waves2:
                _check_frequency(f2_values[j])
                waves2[j] = lam2 * f2_values[j]
            if kernel is None:
                kernel = _kernel(cfg)
                body = _body(cfg)
            return _point(kernel, body, waves1[i], waves2[j])
        except (OverflowError, ZeroDivisionError) as exc:
            raise _range_error(exc) from exc
    return closed_form


def sweep(cfg: RobotConfig, spec: SweepSpec,
          settings: OracleSettings | None = None) -> Table:
    """Every output along one axis: the axis column, then OUTPUT_COLUMNS.

    A model-precondition failure at any grid point aborts the whole
    sweep with an error naming the point; no partial table is returned.
    """
    values = linear_grid(spec.start, spec.stop, spec.count)
    axis_col = AXIS_COLUMNS[spec.axis]
    if spec.backend == "closed_form" and spec.axis in ("f_sym", "f1", "f2"):
        f1_values = [cfg.anterior.f] if spec.axis == "f2" else values
        f2_values = [cfg.posterior.f] if spec.axis == "f1" else values
        solve_at = _frequency_solver(cfg, f1_values, f2_values)

        def solve(i: int) -> SolveResult:
            return solve_at(0 if spec.axis == "f2" else i,
                            0 if spec.axis == "f1" else i)
    else:
        solver = SOLVERS[spec.backend]

        def solve(i: int) -> SolveResult:
            point = {spec.axis: values[i]}
            if spec.coupling is not None:
                point["A"] = amplitude_for_length(values[i],
                                                  dict(spec.coupling))
            return solver(with_params(cfg, point), settings)

    def evaluate(i: int) -> list[float]:
        try:
            result = solve(i)
        except BiflagError as exc:
            raise type(exc)(
                f"sweep point {axis_col}={values[i]!r}: {exc}") from exc
        return [values[i]] + [getattr(result, name) for name in OUTPUT_COLUMNS]

    rows = [evaluate(i) for i in range(len(values))]
    return Table(columns=[axis_col, *OUTPUT_COLUMNS.values()], rows=rows)


def heatmap(cfg: RobotConfig, f1_range: tuple[float, float],
            f2_range: tuple[float, float], counts: tuple[int, int],
            output: str = "eta", backend: str = "closed_form",
            settings: OracleSettings | None = None) -> HeatmapResult:
    """Output over the (f1, f2) frequency grid, row-major in f1."""
    if output not in OUTPUT_COLUMNS:
        raise ParameterError(f"output: unknown output {output!r}")
    if backend not in SOLVERS:
        raise ParameterError(f"backend: must be one of {BACKENDS}")
    (f1_lo, f1_hi), (f2_lo, f2_hi), (n1, n2) = (
        _pair(f1_range, "f1_range"), _pair(f2_range, "f2_range"),
        _pair(counts, "counts"))
    f1_values = linear_grid(f1_lo, f1_hi, n1)
    f2_values = linear_grid(f2_lo, f2_hi, n2)
    if backend == "closed_form":
        solve = _frequency_solver(cfg, f1_values, f2_values)
    else:
        def solve(i: int, j: int) -> SolveResult:
            return SOLVERS[backend](with_params(
                cfg, {"f1": f1_values[i], "f2": f2_values[j]}), settings)

    def evaluate(i: int, j: int) -> float:
        try:
            result = solve(i, j)
        except BiflagError as exc:
            raise type(exc)(
                f"heatmap point f1_hz={f1_values[i]!r},"
                f" f2_hz={f2_values[j]!r}: {exc}") from exc
        return getattr(result, output)

    values = [[evaluate(i, j) for j in range(len(f2_values))]
              for i in range(len(f1_values))]
    return HeatmapResult(f1=f1_values, f2=f2_values, output=output,
                         values=values)
